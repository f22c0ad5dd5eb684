/**
 * @file
 * Randomized equivalence of the flat NetworkDef analysis (nn/layering)
 * against the verifier's set-based reference layering, over more than
 * ten thousand definitions: whole populations evolved from several
 * seeds (feed-forward and recurrent), plus mutants of them with
 * cycles, dangling hidden nodes, ingress-free outputs, duplicate ids
 * and connections, undefined endpoints and non-finite parameters.
 * Layer order, NetStats (density compared bit for bit) and every
 * checkDefInvariants message must agree, and the INAX cost read off
 * NetStats must equal the one built from a FeedForwardNetwork.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <utility>

#include "inax/dma.hh"
#include "inax/pu.hh"
#include "neat/population.hh"
#include "nn/compile.hh"
#include "nn/layering.hh"
#include "nn/net_stats.hh"
#include "verify/reference_layering.hh"

namespace e3 {
namespace {

using verify::referenceIsAcyclic;
using verify::referenceLayers;
using verify::referenceRequiredNodes;

/** NetStats as the set-based implementation computed them. */
NetStats
referenceNetStats(const NetworkDef &def)
{
    NetStats stats;
    const std::set<int> required = referenceRequiredNodes(def);
    const std::set<int> inputs(def.inputIds.begin(), def.inputIds.end());
    const bool acyclic = referenceIsAcyclic(def);
    std::vector<std::vector<int>> layers;
    if (acyclic)
        layers = referenceLayers(def);
    else
        layers.emplace_back(required.begin(), required.end());
    for (const auto &layer : layers) {
        stats.layerSizes.push_back(layer.size());
        stats.activeNodes += layer.size();
        for (int id : layer) {
            size_t deg = 0;
            for (const auto &c : def.conns) {
                if (c.to == id &&
                    (inputs.count(c.from) || required.count(c.from)))
                    ++deg;
            }
            stats.inDegrees.push_back(deg);
            stats.activeConnections += deg;
        }
    }
    uint64_t dense = 0;
    if (acyclic) {
        std::vector<size_t> denseLayers{def.inputIds.size()};
        denseLayers.insert(denseLayers.end(), stats.layerSizes.begin(),
                           stats.layerSizes.end());
        dense = denseConnectionCount(denseLayers);
    } else {
        dense = static_cast<uint64_t>(stats.activeNodes) *
                (def.inputIds.size() + stats.activeNodes);
    }
    stats.density = dense > 0
                        ? static_cast<double>(stats.activeConnections) /
                              static_cast<double>(dense)
                        : 0.0;
    return stats;
}

/** checkDefInvariants as the set-based implementation worded it. */
Status
referenceInvariants(const NetworkDef &def, bool recurrent)
{
    std::set<int> inputs;
    for (int id : def.inputIds) {
        if (!inputs.insert(id).second)
            return Status::error("duplicate input id ", id);
    }
    std::set<int> nodes;
    for (const auto &node : def.nodes) {
        if (!nodes.insert(node.id).second)
            return Status::error("duplicate node id ", node.id);
        if (inputs.count(node.id))
            return Status::error("input id ", node.id,
                                 " declared as a computed node");
        if (!std::isfinite(node.bias))
            return Status::error("non-finite bias on node ", node.id);
    }
    for (int id : def.outputIds) {
        if (!nodes.count(id))
            return Status::error("output node ", id, " is not defined");
    }
    std::set<std::pair<int, int>> conns;
    for (const auto &conn : def.conns) {
        if (!conns.insert({conn.from, conn.to}).second)
            return Status::error("duplicate connection ", conn.from,
                                 "->", conn.to);
        if (inputs.count(conn.to) || conn.to < 0)
            return Status::error("connection ", conn.from, "->",
                                 conn.to, " targets an input id");
        if (!nodes.count(conn.to))
            return Status::error("connection ", conn.from, "->",
                                 conn.to, " targets undefined node ",
                                 conn.to);
        if (!inputs.count(conn.from) && !nodes.count(conn.from))
            return Status::error("connection ", conn.from, "->",
                                 conn.to, " reads undefined node ",
                                 conn.from);
        if (!std::isfinite(conn.weight))
            return Status::error("non-finite weight on connection ",
                                 conn.from, "->", conn.to);
    }
    if (!recurrent && !referenceIsAcyclic(def))
        return Status::error(
            "connections form a cycle in a feed-forward definition");
    return Status();
}

/** The INAX cost as built from a compiled FeedForwardNetwork. */
IndividualCost
networkCost(const NetworkDef &def, const InaxConfig &cfg)
{
    const FeedForwardNetwork net = FeedForwardNetwork::create(def);
    const InferenceCost inference = scheduleInference(net, cfg);
    IndividualCost cost;
    cost.inferenceCycles = inference.cycles;
    cost.peActiveCycles = inference.peActiveCycles;
    cost.setupCycles =
        setupCycles(net.nodeCount(), net.connectionCount(), cfg);
    cost.numInputs = net.numInputs();
    cost.numOutputs = net.numOutputs();
    cost.weightBufferWords =
        configWords(net.nodeCount(), net.connectionCount());
    cost.valueBufferWords = net.valueSlots();
    return cost;
}

uint64_t
bitsOf(double v)
{
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    return bits;
}

/** Every decoded genome of @p generations generations from @p seed. */
void
evolvedDefs(size_t inputs, size_t outputs, bool feedForward,
            uint64_t seed, int generations, std::vector<NetworkDef> &out)
{
    NeatConfig cfg = NeatConfig::forTask(inputs, outputs, 1e300);
    cfg.populationSize = 100;
    cfg.feedForward = feedForward;
    Population pop(cfg, seed);
    Rng noise(seed * 7919 + 1);
    for (int gen = 0; gen < generations; ++gen) {
        for (const auto &[key, genome] : pop.genomes())
            out.push_back(genome.toNetworkDef(cfg));
        // Reward size so the topologies keep growing.
        pop.evaluateAll([&](const Genome &g) {
            return static_cast<double>(2 * g.nodes.size() + g.conns.size()) +
                   noise.uniform();
        });
        pop.advance();
    }
}

/** Any id the def mentions, or a fresh one. */
int
pickId(const NetworkDef &def, Rng &rng)
{
    const size_t n = def.inputIds.size() + def.nodes.size() + 1;
    const size_t k = static_cast<size_t>(rng.uniformInt(n));
    if (k < def.inputIds.size())
        return def.inputIds[k];
    if (k - def.inputIds.size() < def.nodes.size())
        return def.nodes[k - def.inputIds.size()].id;
    return 1000 + static_cast<int>(rng.uniformInt(uint64_t{50}));
}

/** One random structural defect or oddity applied to @p def. */
NetworkDef
mutant(NetworkDef def, Rng &rng)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    switch (rng.uniformInt(uint64_t{10})) {
      case 0: // a cycle (or self-loop) through existing nodes
        if (!def.nodes.empty()) {
            const int a = def.nodes[rng.uniformInt(def.nodes.size())].id;
            const int b = def.nodes[rng.uniformInt(def.nodes.size())].id;
            def.conns.push_back({a, b, 0.5});
            def.conns.push_back({b, a, -0.5});
        }
        break;
      case 1: { // a dangling hidden node fed from an input
        const int id = 500 + static_cast<int>(def.nodes.size());
        def.nodes.push_back({id, 0.1, Activation::ReLU, Aggregation::Max});
        def.conns.push_back({def.inputIds.front(), id, 1.0});
        if (rng.uniform() < 0.5 && !def.nodes.empty())
            def.conns.push_back({def.nodes.front().id, id, 2.0});
        break;
      }
      case 2: { // an ingress-free output
        const int out = def.outputIds[rng.uniformInt(def.outputIds.size())];
        std::vector<NetworkDef::Conn> kept;
        for (const auto &c : def.conns) {
            if (c.to != out)
                kept.push_back(c);
        }
        def.conns = std::move(kept);
        break;
      }
      case 3: // a duplicate node id
        if (!def.nodes.empty())
            def.nodes.push_back(def.nodes[rng.uniformInt(def.nodes.size())]);
        break;
      case 4: // a duplicate connection
        if (!def.conns.empty())
            def.conns.push_back(def.conns[rng.uniformInt(def.conns.size())]);
        break;
      case 5: // a non-finite weight or bias
        if (rng.uniform() < 0.5 && !def.conns.empty())
            def.conns[rng.uniformInt(def.conns.size())].weight =
                rng.uniform() < 0.5 ? nan : -inf;
        else if (!def.nodes.empty())
            def.nodes[rng.uniformInt(def.nodes.size())].bias =
                rng.uniform() < 0.5 ? inf : nan;
        break;
      case 6: // an arbitrary edge, possibly to an input or undefined id
        def.conns.push_back({pickId(def, rng), pickId(def, rng), 0.25});
        break;
      case 7: // a duplicate input id
        def.inputIds.push_back(def.inputIds.front());
        break;
      case 8: // an input declared as a node
        def.nodes.push_back({def.inputIds.back(), 0.0, Activation::Sigmoid,
                             Aggregation::Sum});
        break;
      default: // shuffle connection order
        for (size_t i = def.conns.size(); i > 1; --i)
            std::swap(def.conns[i - 1], def.conns[rng.uniformInt(i)]);
        break;
    }
    return def;
}

void
expectEquivalent(const NetworkDef &def, const InaxConfig &cfg,
                 size_t &acyclicCount, size_t &compiledCount)
{
    DefAnalysis analysis;
    analyzeDef(def, analysis);

    const bool acyclic = referenceIsAcyclic(def);
    ASSERT_EQ(analysis.acyclic, acyclic);
    ASSERT_EQ(isAcyclic(def), acyclic);
    if (acyclic) {
        ++acyclicCount;
        ASSERT_EQ(feedForwardLayers(def), referenceLayers(def));
    }
    const std::set<int> required = referenceRequiredNodes(def);
    for (size_t i = 0; i < analysis.ids.size(); ++i) {
        ASSERT_EQ(analysis.isRequired(analysis.ids[i]),
                  required.count(analysis.ids[i]) > 0)
            << "id " << analysis.ids[i];
    }

    const NetStats wantStats = referenceNetStats(def);
    const NetStats stats = computeNetStats(def);
    ASSERT_EQ(stats.activeNodes, wantStats.activeNodes);
    ASSERT_EQ(stats.activeConnections, wantStats.activeConnections);
    ASSERT_EQ(stats.layerSizes, wantStats.layerSizes);
    ASSERT_EQ(stats.inDegrees, wantStats.inDegrees);
    ASSERT_EQ(bitsOf(stats.density), bitsOf(wantStats.density));

    for (bool recurrent : {false, true}) {
        const Status want = referenceInvariants(def, recurrent);
        const Status got = checkDefInvariants(def, recurrent);
        ASSERT_EQ(got.ok(), want.ok());
        ASSERT_EQ(got.message(), want.message());
    }

    if (acyclic && checkDefInvariants(def).ok()) {
        ++compiledCount;
        const IndividualCost want = networkCost(def, cfg);
        for (const IndividualCost &got :
             {puIndividualCost(stats, def.inputIds.size(),
                               def.outputIds.size(), cfg),
              puIndividualCost(def, cfg)}) {
            ASSERT_EQ(got.inferenceCycles, want.inferenceCycles);
            ASSERT_EQ(got.peActiveCycles, want.peActiveCycles);
            ASSERT_EQ(got.setupCycles, want.setupCycles);
            ASSERT_EQ(got.numInputs, want.numInputs);
            ASSERT_EQ(got.numOutputs, want.numOutputs);
            ASSERT_EQ(got.weightBufferWords, want.weightBufferWords);
            ASSERT_EQ(got.valueBufferWords, want.valueBufferWords);
        }
    }
}

TEST(AnalysisEquivalence, MatchesSetBasedReferenceOnTenThousandDefs)
{
    std::vector<NetworkDef> defs;
    for (uint64_t seed : {1, 2, 3})
        evolvedDefs(2, 1, true, seed, 12, defs);
    evolvedDefs(4, 2, true, 4, 12, defs);
    evolvedDefs(8, 4, true, 5, 10, defs);
    evolvedDefs(3, 2, false, 6, 12, defs);
    evolvedDefs(6, 3, false, 7, 10, defs);

    Rng rng(2026);
    const size_t evolved = defs.size();
    for (size_t i = 0; i < evolved; i += 2) {
        NetworkDef def = mutant(defs[i], rng);
        if (rng.uniform() < 0.3)
            def = mutant(std::move(def), rng);
        defs.push_back(std::move(def));
    }
    ASSERT_GE(defs.size(), 10000u);

    InaxConfig cfg;
    cfg.numPEs = 3;
    size_t acyclicCount = 0;
    size_t compiledCount = 0;
    for (const NetworkDef &def : defs) {
        ASSERT_NO_FATAL_FAILURE(
            expectEquivalent(def, cfg, acyclicCount, compiledCount));
    }
    // The sample must exercise both sides of every branch.
    EXPECT_GT(acyclicCount, defs.size() / 2);
    EXPECT_LT(acyclicCount, defs.size());
    EXPECT_GT(compiledCount, defs.size() / 2);
}

} // namespace
} // namespace e3
