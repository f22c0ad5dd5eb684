#include "inax/schedule.hh"

#include <algorithm>

#include "common/logging.hh"
#include "inax/pe.hh"

namespace e3 {

namespace {

/** Wave-schedule one layer's node costs onto n PEs. */
void
scheduleLayer(const std::vector<uint64_t> &nodeCycles, size_t numPEs,
              InferenceCost &cost)
{
    for (size_t start = 0; start < nodeCycles.size(); start += numPEs) {
        const size_t end =
            std::min(start + numPEs, nodeCycles.size());
        uint64_t waveCycles = 0;
        for (size_t i = start; i < end; ++i) {
            waveCycles = std::max(waveCycles, nodeCycles[i]);
            cost.peActiveCycles += nodeCycles[i];
        }
        cost.cycles += waveCycles;
        ++cost.waves;
    }
}

} // namespace

InferenceCost
scheduleInference(const FeedForwardNetwork &net, const InaxConfig &cfg)
{
    assertOk(cfg.validate());
    InferenceCost cost;
    std::vector<uint64_t> nodeCycles;
    for (const auto &layer : net.layers()) {
        nodeCycles.clear();
        for (const auto &node : layer)
            nodeCycles.push_back(peNodeCycles(node, cfg));
        scheduleLayer(nodeCycles, cfg.numPEs, cost);
        cost.cycles += cfg.layerSyncCycles;
    }
    return cost;
}

InferenceCost
scheduleInference(
    const std::vector<std::vector<size_t>> &layerInDegrees,
    const InaxConfig &cfg)
{
    assertOk(cfg.validate());
    InferenceCost cost;
    std::vector<uint64_t> nodeCycles;
    for (const auto &layer : layerInDegrees) {
        nodeCycles.clear();
        for (size_t deg : layer)
            nodeCycles.push_back(peNodeCycles(deg, cfg));
        scheduleLayer(nodeCycles, cfg.numPEs, cost);
        cost.cycles += cfg.layerSyncCycles;
    }
    return cost;
}

} // namespace e3
