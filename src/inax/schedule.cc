#include "inax/schedule.hh"

#include <algorithm>

#include "common/logging.hh"
#include "inax/pe.hh"

namespace e3 {

namespace {

/** Wave-schedule one layer's node in-degrees onto the PEs, then sync. */
void
scheduleLayer(const size_t *degrees, size_t count, const InaxConfig &cfg,
              InferenceCost &cost)
{
    for (size_t start = 0; start < count; start += cfg.numPEs) {
        const size_t end = std::min(start + cfg.numPEs, count);
        uint64_t waveCycles = 0;
        for (size_t i = start; i < end; ++i) {
            const uint64_t nodeCycles = peNodeCycles(degrees[i], cfg);
            waveCycles = std::max(waveCycles, nodeCycles);
            cost.peActiveCycles += nodeCycles;
        }
        cost.cycles += waveCycles;
        ++cost.waves;
    }
    cost.cycles += cfg.layerSyncCycles;
}

} // namespace

InferenceCost
scheduleNetwork(const NetStats &stats, const InaxConfig &cfg)
{
    assertOk(cfg.validate());
    InferenceCost cost;
    const size_t *degrees = stats.inDegrees.data();
    for (size_t size : stats.layerSizes) {
        scheduleLayer(degrees, size, cfg, cost);
        degrees += size;
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
    for (const auto &layer : layerInDegrees)
        scheduleLayer(layer.data(), layer.size(), cfg, cost);
    return cost;
}

} // namespace e3
