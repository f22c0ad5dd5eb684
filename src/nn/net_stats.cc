#include "nn/net_stats.hh"

#include "common/float_eq.hh"
#include "common/logging.hh"
#include "nn/batch_eval.hh"
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
measureActivationDensity(Network &net, size_t samples,
                         Rng &rng)
{
    e3_assert(samples > 0, "need at least one sample");

    uint64_t liveMacs = 0;
    const std::vector<BatchPlan::Op> &ops = net.plan().ops;
    std::vector<double> inputs(net.numInputs());
    std::vector<double> outputs(net.numOutputs());

    for (size_t s = 0; s < samples; ++s) {
        for (auto &x : inputs)
            x = rng.uniform(-1.0, 1.0);
        net.activateInto(inputs.data(), outputs.data());
        // Every slot is written once per inference, so the value array
        // afterwards holds exactly the operand each op multiplied.
        const std::span<const double> values = net.values();
        for (const BatchPlan::Op &op : ops) {
            liveMacs += isExactZero(values[op.srcSlot]) ? 0 : 1;
        }
    }
    const uint64_t totalMacs = samples * ops.size();
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
