#include "neat/genome.hh"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>

#include "common/logging.hh"

namespace e3 {

void
Genome::configureNew(const NeatConfig &cfg, Rng &rng)
{
    fitness = std::numeric_limits<double>::quiet_NaN();
    nodes.clear();
    conns.clear();

    for (size_t o = 0; o < cfg.numOutputs; ++o) {
        const int id = static_cast<int>(o);
        nodes.emplace(id, NodeGene::create(id, cfg, rng));
    }
    std::vector<int> hiddenIds;
    for (size_t h = 0; h < cfg.numHidden; ++h) {
        const int id = static_cast<int>(cfg.numOutputs + h);
        nodes.emplace(id, NodeGene::create(id, cfg, rng));
        hiddenIds.push_back(id);
    }

    auto maybeConnect = [&](int from, int to) {
        if (rng.chance(cfg.initialConnectionFraction)) {
            const ConnKey key{from, to};
            conns.emplace(key, ConnGene::create(key, cfg, rng));
        }
    };

    for (size_t i = 0; i < cfg.numInputs; ++i) {
        const int in = -1 - static_cast<int>(i);
        if (hiddenIds.empty()) {
            for (size_t o = 0; o < cfg.numOutputs; ++o)
                maybeConnect(in, static_cast<int>(o));
        } else {
            for (int h : hiddenIds)
                maybeConnect(in, h);
        }
    }
    for (int h : hiddenIds) {
        for (size_t o = 0; o < cfg.numOutputs; ++o)
            maybeConnect(h, static_cast<int>(o));
    }
}

NetworkDef
Genome::toNetworkDef(const NeatConfig &cfg) const
{
    NetworkDef def;
    for (size_t i = 0; i < cfg.numInputs; ++i)
        def.inputIds.push_back(-1 - static_cast<int>(i));
    for (size_t o = 0; o < cfg.numOutputs; ++o)
        def.outputIds.push_back(static_cast<int>(o));

    for (const auto &[id, gene] : nodes)
        def.nodes.push_back({id, gene.bias, gene.act, gene.agg});
    for (const auto &[key, gene] : conns) {
        if (gene.enabled)
            def.conns.push_back({key.first, key.second, gene.weight});
    }
    return def;
}

namespace {

/**
 * Compatibility distance between two key-sorted gene maps, in one merge
 * walk: matching genes add their weighted gene distance in key order,
 * every unmatched gene counts as disjoint, and the sum is normalized by
 * the larger map's size.
 */
template <typename GeneMap>
double
geneMapDistance(const GeneMap &a, const GeneMap &b, const NeatConfig &cfg)
{
    if (a.empty() && b.empty())
        return 0.0;
    const auto less = a.key_comp();
    size_t disjoint = 0;
    double d = 0.0;
    auto ia = a.begin();
    auto ib = b.begin();
    while (ia != a.end() && ib != b.end()) {
        if (less(ia->first, ib->first)) {
            ++disjoint;
            ++ia;
        } else if (less(ib->first, ia->first)) {
            ++disjoint;
            ++ib;
        } else {
            d += ia->second.distance(ib->second) *
                 cfg.compatibilityWeightCoefficient;
            ++ia;
            ++ib;
        }
    }
    disjoint += static_cast<size_t>(std::distance(ia, a.end()) +
                                    std::distance(ib, b.end()));
    const double maxGenes = static_cast<double>(std::max(a.size(), b.size()));
    return (d + cfg.compatibilityDisjointCoefficient *
                    static_cast<double>(disjoint)) /
           maxGenes;
}

} // namespace

double
Genome::distance(const Genome &other, const NeatConfig &cfg) const
{
    return geneMapDistance(nodes, other.nodes, cfg) +
           geneMapDistance(conns, other.conns, cfg);
}

std::pair<size_t, size_t>
Genome::size() const
{
    size_t enabled = 0;
    for (const auto &[key, gene] : conns)
        enabled += gene.enabled ? 1 : 0;
    return {nodes.size(), enabled};
}

bool
Genome::evaluated() const
{
    return !std::isnan(fitness);
}

} // namespace e3
