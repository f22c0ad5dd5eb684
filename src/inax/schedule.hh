/**
 * @file
 * PU-internal scheduling of one irregular network onto a PE cluster
 * (paper Sec. V-A).
 *
 * Per dependency layer with m nodes and n PEs, nodes execute in
 * ceil(m/n) waves; all PEs of a wave synchronize on the slowest node
 * (variable in-degree), and layers synchronize before the next begins.
 * The three utilization-loss mechanisms the paper names — dynamic
 * topology, PE (non-)alignment, and synchronization — all fall out of
 * this schedule.
 */

#ifndef E3_INAX_SCHEDULE_HH
#define E3_INAX_SCHEDULE_HH

#include <cstdint>

#include "inax/hw_config.hh"
#include "nn/net_stats.hh"

namespace e3 {

/** Per-inference cost of one individual on one PU. */
struct InferenceCost
{
    uint64_t cycles = 0;         ///< wall cycles for one inference
    uint64_t peActiveCycles = 0; ///< sum of per-PE busy cycles
    uint64_t waves = 0;          ///< total PE waves across layers

    /** Provisioned PE-cycles for one inference at numPEs. */
    uint64_t
    peProvisionedCycles(size_t numPEs) const
    {
        return cycles * static_cast<uint64_t>(numPEs);
    }

    /** U(PE) of one isolated inference. */
    double
    peUtilization(size_t numPEs) const
    {
        const uint64_t prov = peProvisionedCycles(numPEs);
        return prov ? static_cast<double>(peActiveCycles) /
                          static_cast<double>(prov)
                    : 1.0;
    }
};

/**
 * Schedule one network onto cfg.numPEs PEs with the output-stationary
 * wave schedule, reading its dependency layers and per-node in-degrees
 * off its NetStats.
 */
InferenceCost scheduleNetwork(const NetStats &stats,
                              const InaxConfig &cfg);

/**
 * Schedule a synthetic network given only its layer profile: per layer,
 * the list of node in-degrees. Used by the design-space benches.
 */
InferenceCost scheduleInference(
    const std::vector<std::vector<size_t>> &layerInDegrees,
    const InaxConfig &cfg);

} // namespace e3

#endif // E3_INAX_SCHEDULE_HH
