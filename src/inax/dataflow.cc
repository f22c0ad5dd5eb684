#include "inax/dataflow.hh"

#include <algorithm>
#include <utility>

#include "inax/schedule.hh"
#include "nn/layering.hh"

namespace e3 {

namespace {

/** Egress fan-out per producer index (inputs and required nodes). */
std::vector<size_t>
egressCounts(const NetworkDef &def, const DefAnalysis &a)
{
    std::vector<size_t> egress(a.ids.size(), 0);
    for (size_t c = 0; c < def.conns.size(); ++c) {
        if (a.activeConn(c))
            ++egress[a.connFrom[c]];
    }
    return egress;
}

/**
 * Peak count of simultaneously-live partial sums when values are
 * consumed producer-by-producer: a destination's partial sum is live
 * from its first contribution until its last. Upper-bounded here by
 * the widest "destinations fed by producers processed so far but not
 * yet complete" cut, computed with a simple forward sweep in layer
 * order.
 */
uint64_t
peakLivePartialSums(const NetworkDef &def, const DefAnalysis &a)
{
    // Producers are processed inputs first, then layer by layer — the
    // value-slot order, so a producer's position is its slot. A
    // destination's partial sum is live over [first producer position,
    // last producer position].
    constexpr uint32_t kUnfed = DefAnalysis::kNone;
    std::vector<std::pair<uint32_t, uint32_t>> window(
        a.ids.size(), {kUnfed, 0});
    for (size_t c = 0; c < def.conns.size(); ++c) {
        if (!a.activeConn(c))
            continue;
        const uint32_t pos = a.slot[a.connFrom[c]];
        auto &w = window[a.connTo[c]];
        w.first = std::min(w.first, pos);
        w.second = std::max(w.second, pos);
    }

    uint64_t peak = 0;
    const size_t producers = def.inputIds.size() + a.order.size();
    for (size_t t = 0; t < producers; ++t) {
        uint64_t live = 0;
        for (const auto &w : window)
            live += (w.first <= t && t <= w.second) ? 1 : 0;
        peak = std::max(peak, live);
    }
    return peak;
}

} // namespace

DataflowRequirements
analyzeOutputStationary(const NetworkDef &def, const InaxConfig &cfg)
{
    assertOk(cfg.validate());
    const auto net = FeedForwardNetwork::create(def);
    DataflowRequirements req;
    req.name = "output-stationary";
    // One accumulator per PE, full stop.
    req.accumulators = cfg.numPEs;
    req.peakLiveAccumulators = std::min<uint64_t>(
        cfg.numPEs, std::max<size_t>(net.nodeCount(), 1));
    // Value buffer holds every activation (irregular nets may read any
    // earlier value).
    req.bufferWords = net.valueSlots();
    req.inferenceCycles = scheduleInference(net, cfg).cycles;
    return req;
}

DataflowRequirements
analyzeInputStationary(const NetworkDef &def, const InaxConfig &cfg)
{
    assertOk(cfg.validate());
    const DefAnalysis &analysis = analyzeDef(def);
    const auto net = FeedForwardNetwork::create(def, analysis);
    const std::vector<size_t> egress = egressCounts(def, analysis);

    DataflowRequirements req;
    req.name = "input-stationary";
    // Provisioning is decided at design time for the worst case: any
    // supported node could be an egress destination of the value being
    // held, so a partial-sum slot must exist for every node the PU can
    // host — not just the ones this network uses.
    req.accumulators = cfg.maxSupportedNodes;
    req.peakLiveAccumulators = peakLivePartialSums(def, analysis);
    // Buffer: partial sums for the full capacity plus the held values.
    req.bufferWords = cfg.maxSupportedNodes + net.valueSlots();

    // Cycles: each producer broadcasts to its egress destinations,
    // numPEs partial-sum updates per cycle; activation pipeline per
    // node at the end of its window.
    uint64_t cycles = 0;
    for (size_t count : egress)
        cycles += (count + cfg.numPEs - 1) / cfg.numPEs;
    cycles += net.nodeCount() * cfg.pePipelineLatency / cfg.numPEs;
    cycles += net.layers().size() * cfg.layerSyncCycles;
    req.inferenceCycles = std::max<uint64_t>(cycles, 1);
    return req;
}

DataflowRequirements
analyzeWeightStationary(const NetworkDef &def, const InaxConfig &cfg)
{
    assertOk(cfg.validate());
    const DefAnalysis &analysis = analyzeDef(def);
    const auto net = FeedForwardNetwork::create(def, analysis);

    DataflowRequirements req;
    req.name = "weight-stationary";
    // Same design-time worst-case destination partial sums as IS, plus
    // the weights pinned in PEs buy nothing: every weight is used
    // exactly once per inference, so the array reloads weights
    // ceil(conns / numPEs) times.
    req.accumulators = cfg.maxSupportedNodes;
    req.peakLiveAccumulators = peakLivePartialSums(def, analysis);
    req.bufferWords = cfg.maxSupportedNodes + net.valueSlots();

    const uint64_t conns = net.connectionCount();
    const uint64_t reloadRounds =
        (conns + cfg.numPEs - 1) / cfg.numPEs;
    // Each round: load numPEs weights over the weight channel, then
    // one MAC cycle.
    req.inferenceCycles =
        reloadRounds *
            (1 + cfg.numPEs / cfg.weightChannelWidth) +
        net.nodeCount() * cfg.pePipelineLatency / cfg.numPEs +
        net.layers().size() * cfg.layerSyncCycles;
    return req;
}

} // namespace e3
