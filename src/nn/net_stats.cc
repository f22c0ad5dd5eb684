#include "nn/net_stats.hh"

#include "common/logging.hh"
#include "nn/layering.hh"

namespace e3 {

NetStats
netStatsOf(const NetworkDef &def, const DefAnalysis &a)
{
    NetStats stats;
    if (a.acyclic) {
        stats.layerSizes.reserve(a.layerCount());
        for (size_t l = 0; l < a.layerCount(); ++l)
            stats.layerSizes.push_back(a.layerEnd[l] - a.layerBegin(l));
        stats.inDegrees.reserve(a.order.size());
        for (uint32_t v : a.order)
            stats.inDegrees.push_back(a.activeIn[v]);
    } else {
        // Cyclic (recurrent) definitions have no dependency layering;
        // all required nodes form one synchronous wave set per tick.
        for (uint32_t i = 0; i < a.ids.size(); ++i) {
            if (a.has(i, DefAnalysis::kRequired))
                stats.inDegrees.push_back(a.activeIn[i]);
        }
        stats.layerSizes.push_back(stats.inDegrees.size());
    }
    stats.activeNodes = stats.inDegrees.size();
    for (size_t deg : stats.inDegrees)
        stats.activeConnections += deg;

    uint64_t dense = 0;
    if (a.acyclic) {
        // Inputs, then the dependency layers, adjacent layers fully
        // connected.
        uint64_t prev = def.inputIds.size();
        for (size_t s : stats.layerSizes) {
            dense += prev * static_cast<uint64_t>(s);
            prev = s;
        }
    } else {
        // Recurrent counterpart: every node may read every input and
        // every node's previous-tick value.
        dense = static_cast<uint64_t>(stats.activeNodes) *
                (def.inputIds.size() + stats.activeNodes);
    }
    stats.density = dense > 0
                        ? static_cast<double>(stats.activeConnections) /
                              static_cast<double>(dense)
                        : 0.0;
    return stats;
}

NetStats
computeNetStats(const NetworkDef &def)
{
    const DefAnalysis &a = analyzeDef(def);
    return netStatsOf(def, a);
}

double
measureActivationDensity(FeedForwardNetwork &net, size_t samples,
                         Rng &rng)
{
    e3_assert(samples > 0, "need at least one sample");

    uint64_t totalMacs = 0;
    uint64_t liveMacs = 0;
    std::vector<double> values(net.valueSlots(), 0.0);
    std::vector<double> inputs(net.numInputs());

    for (size_t s = 0; s < samples; ++s) {
        for (auto &x : inputs)
            x = rng.uniform(-1.0, 1.0);
        for (size_t i = 0; i < inputs.size(); ++i)
            values[i] = inputs[i];
        // Re-run the layer evaluation here so per-link operand values
        // are observable (FeedForwardNetwork only exposes outputs).
        for (const auto &layer : net.layers()) {
            for (const auto &node : layer) {
                Aggregator agg(node.agg);
                for (const auto &link : node.links) {
                    const double v = values[link.srcSlot];
                    ++totalMacs;
                    // e3-lint: float-eq-ok -- exact zero-skip check, not a tolerance bug
                    liveMacs += v != 0.0 ? 1 : 0;
                    agg.add(v * link.weight);
                }
                values[node.slot] = applyActivation(
                    node.act, agg.result() + node.bias);
            }
        }
    }
    if (totalMacs == 0)
        return 1.0;
    return static_cast<double>(liveMacs) /
           static_cast<double>(totalMacs);
}

uint64_t
denseConnectionCount(const std::vector<size_t> &layerSizes)
{
    uint64_t total = 0;
    for (size_t i = 0; i + 1 < layerSizes.size(); ++i) {
        total += static_cast<uint64_t>(layerSizes[i]) *
                 static_cast<uint64_t>(layerSizes[i + 1]);
    }
    return total;
}

} // namespace e3
