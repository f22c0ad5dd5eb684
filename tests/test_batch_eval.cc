/**
 * @file
 * Equivalence suite for the batched SoA inference engine.
 *
 * The contract under test is exact: BatchNetwork (through both
 * compile entry points) must be bit-identical to the verifier's
 * layered per-genome evaluator, verify::ReferenceNetwork — same
 * doubles, not merely close — across every (activation x aggregation)
 * pair, randomized irregular topologies, degenerate shapes, and any
 * batch size or thread count. The quantized and recurrent value modes
 * are pinned to the outputs their former standalone classes produced,
 * and every mode's lanes to one-lane compiles. EXPECT_EQ on doubles
 * below is therefore deliberate.
 */

#include <algorithm>
#include <cstring>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "e3/synthetic.hh"
#include "nn/batch_eval.hh"
#include "verify/reference_layering.hh"

namespace e3 {
namespace {

using verify::ReferenceNetwork;

/** Random inputs in a range that exercises every activation's bends. */
std::vector<double>
randomInputs(size_t n, Rng &rng)
{
    std::vector<double> in(n);
    for (double &v : in)
        v = rng.uniform(-2.0, 2.0);
    return in;
}

/** A population of synthetic irregular nets with randomized per-node
 *  (activation, aggregation) so segment grouping is exercised. */
std::vector<NetworkDef>
randomizedPopulation(size_t count, uint64_t seed, size_t numInputs = 5,
                     size_t numOutputs = 3)
{
    SyntheticParams params;
    params.numIndividuals = count;
    params.numInputs = numInputs;
    params.numOutputs = numOutputs;
    params.numHidden = 12;
    params.sparsity = 0.35;
    params.hiddenLayers = 3;
    std::vector<NetworkDef> defs = syntheticPopulation(params, seed);
    Rng rng(seed ^ 0xBADC0FFEEULL);
    for (NetworkDef &def : defs) {
        for (NetworkDef::Node &node : def.nodes) {
            node.act = activationFromIndex(
                static_cast<int>(rng.uniformInt(numActivations)));
            node.agg = aggregationFromIndex(
                static_cast<int>(rng.uniformInt(numAggregations)));
            node.bias = rng.uniform(-1.0, 1.0);
        }
    }
    return defs;
}

/** The same population with random extra links between non-input
 *  nodes (back edges and self-loops included): recurrent lanes. */
std::vector<NetworkDef>
cyclicPopulation(size_t count, uint64_t seed)
{
    std::vector<NetworkDef> defs = randomizedPopulation(count, seed);
    Rng rng(seed ^ 0xC7C1EULL);
    for (NetworkDef &def : defs) {
        std::set<std::pair<int, int>> keys;
        for (const NetworkDef::Conn &c : def.conns)
            keys.insert({c.from, c.to});
        for (int k = 0; k < 6; ++k) {
            const int from = def.nodes[rng.uniformInt(def.nodes.size())].id;
            const int to = def.nodes[rng.uniformInt(def.nodes.size())].id;
            if (keys.insert({from, to}).second)
                def.conns.push_back({from, to, rng.uniform(-1.5, 1.5)});
        }
    }
    return defs;
}

/** FNV-1a over the bit patterns of @p n doubles, continuing @p h. */
uint64_t
foldDigest(uint64_t h, const double *values, size_t n)
{
    for (size_t i = 0; i < n; ++i) {
        uint64_t bits;
        std::memcpy(&bits, &values[i], sizeof bits);
        for (int b = 0; b < 8; ++b) {
            h ^= (bits >> (8 * b)) & 0xFF;
            h *= 0x100000001B3ULL;
        }
    }
    return h;
}

/**
 * Digest of @p ticks rounds over every lane of a population compile in
 * @p mode, lanes in order within a round, fresh random inputs each.
 */
uint64_t
populationDigest(const std::vector<NetworkDef> &defs,
                 const NetworkCompileOptions &mode, int ticks)
{
    Result<std::unique_ptr<BatchNetwork>> batch =
        compilePopulation(defs, mode);
    EXPECT_TRUE(batch.ok()) << batch.message();
    if (!batch.ok())
        return 0;
    Rng rng(2718);
    uint64_t h = 0xCBF29CE484222325ULL;
    std::vector<double> out(3);
    for (int t = 0; t < ticks; ++t) {
        for (size_t lane = 0; lane < defs.size(); ++lane) {
            const std::vector<double> in = randomInputs(5, rng);
            (*batch)->activateLane(lane, in.data(), out.data());
            h = foldDigest(h, out.data(), out.size());
        }
    }
    return h;
}

/** Reference outputs: one ReferenceNetwork per def, plain activate. */
std::vector<std::vector<double>>
referenceOutputs(const std::vector<NetworkDef> &defs,
                 const std::vector<std::vector<double>> &inputs)
{
    std::vector<std::vector<double>> out;
    out.reserve(defs.size());
    for (size_t i = 0; i < defs.size(); ++i) {
        ReferenceNetwork net = ReferenceNetwork::create(defs[i]);
        out.push_back(net.activate(inputs[i]));
    }
    return out;
}

void
expectBitIdentical(const std::vector<double> &expect, const double *got,
                   size_t n, const std::string &what)
{
    ASSERT_EQ(expect.size(), n) << what;
    for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(expect[i], got[i]) << what << " output " << i;
}

// --- exhaustive (activation x aggregation) sweep ---------------------

TEST(BatchEval, EveryActivationAggregationPairBitIdentical)
{
    // One small irregular net per (act, agg) pair: 3 inputs feeding two
    // hidden nodes feeding 2 outputs, plus a direct input->output edge
    // so outputs mix single-link and multi-link folds.
    Rng rng(101);
    for (int a = 0; a < numActivations; ++a) {
        for (int g = 0; g < numAggregations; ++g) {
            const Activation act = activationFromIndex(a);
            const Aggregation agg = aggregationFromIndex(g);
            NetworkDef def = NetworkDef::empty(3, 2);
            def.nodes.push_back({2, 0.1, act, agg});
            def.nodes.push_back({3, -0.2, act, agg});
            for (NetworkDef::Node &node : def.nodes) {
                node.act = act;
                node.agg = agg;
            }
            def.conns = {
                {-1, 2, 0.5},  {-2, 2, -1.5}, {-3, 3, 2.0},
                {-1, 3, 0.25}, {2, 0, 1.1},   {3, 0, -0.7},
                {3, 1, 0.9},   {-2, 1, 0.3},
            };

            Result<std::unique_ptr<BatchNetwork>> batch =
                compileReplicated(def, 4);
            ASSERT_TRUE(batch.ok()) << batch.message();
            ReferenceNetwork ref = ReferenceNetwork::create(def);

            for (int trial = 0; trial < 8; ++trial) {
                const std::vector<double> in = randomInputs(3, rng);
                const std::vector<double> expect = ref.activate(in);
                std::vector<double> got(2);
                (*batch)->activateLane(trial % 4, in.data(), got.data());
                expectBitIdentical(expect, got.data(), 2,
                                   "act=" + activationName(act) +
                                       " agg=" + aggregationName(agg));
            }
        }
    }
}

// --- randomized irregular populations, all batch sizes ---------------

TEST(BatchEval, RandomIrregularPopulationsBitIdentical)
{
    for (const size_t popSize : {size_t{1}, size_t{7}, size_t{64}}) {
        const std::vector<NetworkDef> defs =
            randomizedPopulation(popSize, 40 + popSize);
        Result<std::unique_ptr<BatchNetwork>> batch =
            compilePopulation(defs);
        ASSERT_TRUE(batch.ok()) << batch.message();
        ASSERT_EQ((*batch)->lanes(), popSize);

        Rng rng(7 * popSize + 1);
        std::vector<std::vector<double>> inputs;
        for (size_t i = 0; i < popSize; ++i)
            inputs.push_back(randomInputs(5, rng));
        const std::vector<std::vector<double>> expect =
            referenceOutputs(defs, inputs);

        for (size_t i = 0; i < popSize; ++i) {
            std::vector<double> got(3);
            (*batch)->activateLane(i, inputs[i].data(), got.data());
            expectBitIdentical(expect[i], got.data(), 3,
                               "pop=" + std::to_string(popSize) +
                                   " lane=" + std::to_string(i));
        }
    }
}

TEST(BatchEval, ActivateBatchStridedRowsBitIdentical)
{
    const size_t pop = 64;
    const std::vector<NetworkDef> defs = randomizedPopulation(pop, 99);
    Result<std::unique_ptr<BatchNetwork>> batch =
        compilePopulation(defs);
    ASSERT_TRUE(batch.ok()) << batch.message();

    // Strides wider than the arity: unused columns must stay untouched.
    const size_t inStride = 9, outStride = 6;
    Rng rng(4242);
    std::vector<double> in(pop * inStride, -123.0);
    std::vector<std::vector<double>> perLane;
    for (size_t i = 0; i < pop; ++i) {
        perLane.push_back(randomInputs(5, rng));
        std::copy(perLane[i].begin(), perLane[i].end(),
                  in.begin() + i * inStride);
    }
    const std::vector<std::vector<double>> expect =
        referenceOutputs(defs, perLane);

    // Partial batches too: count < lanes() must only touch [0, count).
    for (const size_t count : {size_t{1}, size_t{7}, pop}) {
        std::vector<double> out(pop * outStride, -77.0);
        (*batch)->activateBatch(count, in.data(), inStride, out.data(),
                                outStride);
        for (size_t i = 0; i < count; ++i)
            expectBitIdentical(expect[i], out.data() + i * outStride, 3,
                               "count=" + std::to_string(count) +
                                   " lane=" + std::to_string(i));
        for (size_t i = count; i < pop; ++i)
            EXPECT_EQ(out[i * outStride], -77.0)
                << "lane " << i << " written beyond count";
        for (size_t i = 0; i < count; ++i)
            for (size_t j = 3; j < outStride; ++j)
                EXPECT_EQ(out[i * outStride + j], -77.0)
                    << "stride padding clobbered";
    }
}

TEST(BatchEval, LargeReplicatedBatchBitIdentical)
{
    // 1024 lanes of one champion: the serve-side shape at scale.
    const std::vector<NetworkDef> defs = randomizedPopulation(1, 77);
    Result<std::unique_ptr<BatchNetwork>> batch =
        compileReplicated(defs[0], 1024);
    ASSERT_TRUE(batch.ok()) << batch.message();
    ASSERT_EQ((*batch)->lanes(), 1024u);

    ReferenceNetwork ref = ReferenceNetwork::create(defs[0]);
    Rng rng(55);
    std::vector<double> in(1024 * 5), out(1024 * 3);
    std::vector<std::vector<double>> perLane;
    for (size_t i = 0; i < 1024; ++i) {
        perLane.push_back(randomInputs(5, rng));
        std::copy(perLane[i].begin(), perLane[i].end(),
                  in.begin() + i * 5);
    }
    (*batch)->activateBatch(1024, in.data(), 5, out.data(), 3);
    for (size_t i = 0; i < 1024; ++i)
        expectBitIdentical(ref.activate(perLane[i]), out.data() + i * 3,
                           3, "lane " + std::to_string(i));
}

// --- concurrency: distinct lanes from distinct threads ---------------

TEST(BatchEval, ConcurrentDistinctLanesBitIdentical)
{
    const size_t pop = 32;
    const std::vector<NetworkDef> defs = randomizedPopulation(pop, 123);
    Result<std::unique_ptr<BatchNetwork>> batch =
        compilePopulation(defs);
    ASSERT_TRUE(batch.ok()) << batch.message();

    Rng rng(321);
    std::vector<std::vector<double>> inputs;
    for (size_t i = 0; i < pop; ++i)
        inputs.push_back(randomInputs(5, rng));
    const std::vector<std::vector<double>> expect =
        referenceOutputs(defs, inputs);

    std::vector<std::vector<double>> got(pop, std::vector<double>(3));
    // The test drives raw threads on purpose to provoke races in
    // activateLane.
    // e3-lint: raw-thread-ok
    std::vector<std::thread> threads;
    const size_t numThreads = 4;
    for (size_t t = 0; t < numThreads; ++t) {
        threads.emplace_back([&, t] {
            // Interleaved assignment: adjacent lanes on different
            // threads, so false sharing / races would surface.
            for (size_t i = t; i < pop; i += numThreads)
                for (int rep = 0; rep < 50; ++rep)
                    (*batch)->activateLane(i, inputs[i].data(),
                                           got[i].data());
        });
    }
    for (std::thread &th : threads) // e3-lint: raw-thread-ok
        th.join();
    for (size_t i = 0; i < pop; ++i)
        expectBitIdentical(expect[i], got[i].data(), 3,
                           "lane " + std::to_string(i));
}

// --- the population-compile entry points -----------------------------

TEST(BatchEval, CompilePopulationEnginesAgree)
{
    // The engine-naming overload forwards to the one engine: every
    // enumerator gives the reference outputs, as the plain call does.
    const std::vector<NetworkDef> defs = randomizedPopulation(7, 2026);
    Rng rng(11);
    std::vector<std::vector<double>> inputs;
    for (size_t i = 0; i < 7; ++i)
        inputs.push_back(randomInputs(5, rng));
    const std::vector<std::vector<double>> expect =
        referenceOutputs(defs, inputs);

    std::vector<std::pair<std::string, Result<std::unique_ptr<BatchNetwork>>>>
        batches;
    batches.emplace_back("plain", compilePopulation(defs));
    batches.emplace_back("Auto",
                         compilePopulation(defs, {}, BatchEngine::Auto));
    batches.emplace_back("PerGenome",
                         compilePopulation(defs, {}, BatchEngine::PerGenome));
    for (auto &[name, batch] : batches) {
        ASSERT_TRUE(batch.ok()) << name << ": " << batch.message();
        ASSERT_EQ((*batch)->lanes(), defs.size()) << name;
        for (size_t i = 0; i < 7; ++i) {
            std::vector<double> got(3);
            (*batch)->activateLane(i, inputs[i].data(), got.data());
            expectBitIdentical(expect[i], got.data(), 3,
                               name + " lane=" + std::to_string(i));
        }
    }
}

// --- value modes ---------------------------------------------------

TEST(BatchEval, ModeOutputsMatchRecordedDigests)
{
    // Recorded from the standalone QuantizedNetwork and RecurrentNetwork
    // classes the quantized and recurrent modes replaced: one network
    // per def, activated in the same order with the same inputs.
    NetworkCompileOptions q78, q34, recurrent;
    q78.quantization = FixedPointFormat{16, 8};
    q34.quantization = FixedPointFormat{8, 4};
    recurrent.recurrent = true;
    const std::vector<NetworkDef> acyclic = randomizedPopulation(64, 606);
    EXPECT_EQ(populationDigest(acyclic, q78, 4), 0xDDDCB79257087AC7ULL);
    EXPECT_EQ(populationDigest(acyclic, q34, 4), 0xC4EE7FFB2D558230ULL);
    EXPECT_EQ(populationDigest(cyclicPopulation(64, 707), recurrent, 20),
              0xADE07E099D46A035ULL);
}

TEST(BatchEval, LanesMatchOneLaneCompilesInEveryMode)
{
    // Lane i of an N-lane compile is the one-lane compile of def i, in
    // every mode, however the lanes' activations interleave.
    NetworkCompileOptions quantized, recurrent;
    quantized.quantization = FixedPointFormat{8, 4};
    recurrent.recurrent = true;
    const size_t n = 9;
    const std::vector<std::pair<NetworkCompileOptions,
                                std::vector<NetworkDef>>>
        cases = {{{}, randomizedPopulation(n, 31)},
                 {quantized, randomizedPopulation(n, 32)},
                 {recurrent, cyclicPopulation(n, 33)}};
    for (const auto &[mode, defs] : cases) {
        Result<std::unique_ptr<BatchNetwork>> batch =
            compilePopulation(defs, mode);
        ASSERT_TRUE(batch.ok()) << batch.message();
        std::vector<Network> single;
        for (const NetworkDef &def : defs)
            single.push_back(Network::create(def, mode));

        Rng rng(3);
        for (size_t tick = 0; tick < 5; ++tick) {
            for (size_t k = 0; k < n; ++k) {
                // A different lane permutation every tick.
                const size_t lane = (k * 5 + tick * 2) % n;
                const std::vector<double> in = randomInputs(5, rng);
                std::vector<double> got(3);
                (*batch)->activateLane(lane, in.data(), got.data());
                expectBitIdentical(
                    single[lane].activate(in), got.data(), 3,
                    "recurrent=" + std::to_string(mode.recurrent) +
                        " quantized=" +
                        std::to_string(mode.quantization.has_value()) +
                        " tick=" + std::to_string(tick) +
                        " lane=" + std::to_string(lane));
            }
        }
    }
}

TEST(BatchEval, ResetLaneLeavesOtherLanesUntouched)
{
    NetworkCompileOptions recurrent;
    recurrent.recurrent = true;
    const std::vector<NetworkDef> defs = cyclicPopulation(4, 23);
    Result<std::unique_ptr<BatchNetwork>> reset =
        compilePopulation(defs, recurrent);
    Result<std::unique_ptr<BatchNetwork>> kept =
        compilePopulation(defs, recurrent);
    Result<std::unique_ptr<BatchNetwork>> fresh =
        compilePopulation(defs, recurrent);
    ASSERT_TRUE(reset.ok() && kept.ok() && fresh.ok());

    Rng rng(77);
    std::vector<double> a(3), b(3);
    for (int tick = 0; tick < 6; ++tick) {
        for (size_t lane = 0; lane < defs.size(); ++lane) {
            const std::vector<double> in = randomInputs(5, rng);
            (*reset)->activateLane(lane, in.data(), a.data());
            (*kept)->activateLane(lane, in.data(), b.data());
        }
    }
    (*reset)->resetLane(2);

    for (size_t lane = 0; lane < defs.size(); ++lane) {
        const std::vector<double> in = randomInputs(5, rng);
        (*reset)->activateLane(lane, in.data(), a.data());
        // Lane 2 restarts from zero state; the others carry on.
        BatchNetwork &expect = lane == 2 ? **fresh : **kept;
        expect.activateLane(lane, in.data(), b.data());
        expectBitIdentical(b, a.data(), 3, "lane " + std::to_string(lane));
    }
}

// --- degenerate shapes and error paths -------------------------------

TEST(BatchEval, UnconnectedOutputsAndEmptyDef)
{
    // A def with no connections at all: outputs emit their activated
    // bias, exactly as the reference network does.
    NetworkDef def = NetworkDef::empty(2, 2);
    def.nodes[0].bias = 0.75;
    def.nodes[1].bias = -2.0;
    Result<std::unique_ptr<BatchNetwork>> batch =
        compileReplicated(def, 3);
    ASSERT_TRUE(batch.ok()) << batch.message();

    ReferenceNetwork ref = ReferenceNetwork::create(def);
    const std::vector<double> in = {0.5, -0.5};
    const std::vector<double> expect = ref.activate(in);
    std::vector<double> got(2);
    (*batch)->activateLane(2, in.data(), got.data());
    expectBitIdentical(expect, got.data(), 2, "biases only");
}

TEST(BatchEval, CompileErrors)
{
    // Empty population.
    EXPECT_FALSE(compilePopulation({}).ok());

    // Mismatched arity across the population.
    std::vector<NetworkDef> mixed = {NetworkDef::empty(2, 1),
                                     NetworkDef::empty(3, 1)};
    Result<std::unique_ptr<BatchNetwork>> arity = compilePopulation(mixed);
    EXPECT_FALSE(arity.ok());

    // Malformed def (connection from an undeclared node id) is an
    // error, not a crash, and names the offending genome.
    std::vector<NetworkDef> bad = {NetworkDef::empty(2, 1),
                                   NetworkDef::empty(2, 1)};
    bad[1].conns.push_back({-1, 999, 1.0});
    Result<std::unique_ptr<BatchNetwork>> malformed =
        compilePopulation(bad);
    ASSERT_FALSE(malformed.ok());
    EXPECT_NE(malformed.message().find("genome 1"), std::string::npos)
        << malformed.message();

    // Recurrent compiles; recurrent plus quantized, or a nonsensical
    // fixed-point format, is an error.
    NetworkCompileOptions recur;
    recur.recurrent = true;
    EXPECT_TRUE(compileReplicated(NetworkDef::empty(2, 1), 2, recur).ok());
    recur.quantization = FixedPointFormat{16, 8};
    EXPECT_FALSE(compileReplicated(NetworkDef::empty(2, 1), 2, recur).ok());
    EXPECT_FALSE(compilePopulation({NetworkDef::empty(2, 1)}, recur).ok());
    NetworkCompileOptions badFormat;
    badFormat.quantization = FixedPointFormat{8, 8};
    EXPECT_FALSE(compilePopulation({NetworkDef::empty(2, 1)}, badFormat).ok());
}

TEST(BatchEval, ResetIsIdempotentForFeedForward)
{
    const std::vector<NetworkDef> defs = randomizedPopulation(4, 31);
    Result<std::unique_ptr<BatchNetwork>> batch =
        compilePopulation(defs);
    ASSERT_TRUE(batch.ok()) << batch.message();

    Rng rng(13);
    const std::vector<double> in = randomInputs(5, rng);
    std::vector<double> first(3), second(3);
    (*batch)->activateLane(1, in.data(), first.data());
    (*batch)->reset();
    (*batch)->activateLane(1, in.data(), second.data());
    expectBitIdentical(first, second.data(), 3, "post-reset");
}

TEST(BatchEval, TotalOpsCountsEveryLink)
{
    NetworkDef def = NetworkDef::empty(2, 1);
    def.conns = {{-1, 0, 1.0}, {-2, 0, 1.0}};

    // Replicated lanes share one program: 2 ops, not 2 x 8.
    Result<std::unique_ptr<BatchNetwork>> replicated =
        compileReplicated(def, 8);
    ASSERT_TRUE(replicated.ok()) << replicated.message();
    EXPECT_EQ((*replicated)->totalOps(), 2u);

    // A population compile owns one program per genome.
    Result<std::unique_ptr<BatchNetwork>> population =
        compilePopulation({def, def, def});
    ASSERT_TRUE(population.ok()) << population.message();
    EXPECT_EQ((*population)->totalOps(), 6u);
}

// --- the vector activate() wrapper over activateInto() ---------------

TEST(BatchEval, ActivateWrapperMatchesActivateInto)
{
    const std::vector<NetworkDef> defs = randomizedPopulation(1, 63);
    Network net = Network::create(defs[0]);
    Rng rng(9);
    const std::vector<double> in = randomInputs(5, rng);
    const std::vector<double> viaWrapper = net.activate(in);
    std::vector<double> viaInto(3);
    net.activateInto(in.data(), viaInto.data());
    expectBitIdentical(viaWrapper, viaInto.data(), 3, "wrapper");
}

} // namespace
} // namespace e3
