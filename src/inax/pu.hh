/**
 * @file
 * Processing-Unit cost model (paper Sec. IV-D).
 *
 * A PU owns one individual for the whole "evaluate": its weight buffer
 * holds the network configuration (weights are reused across env steps,
 * so set-up is paid once per generation), its value buffer holds all
 * intermediate activations (irregular nets may read any earlier value),
 * and its PE cluster executes the wave schedule. IndividualCost is the
 * distilled per-individual cost the accelerator-level model consumes.
 */

#ifndef E3_INAX_PU_HH
#define E3_INAX_PU_HH

#include "inax/schedule.hh"
#include "nn/net_stats.hh"

namespace e3 {

/** Accelerator-relevant cost profile of one individual. */
struct IndividualCost
{
    uint64_t inferenceCycles = 0; ///< one evaluate iteration on the PU
    uint64_t peActiveCycles = 0;  ///< useful PE cycles per iteration
    uint64_t setupCycles = 0;     ///< config streaming, paid per batch
    size_t numInputs = 0;
    size_t numOutputs = 0;

    /** Words held in the PU's weight buffer. */
    uint64_t weightBufferWords = 0;

    /** Words held in the PU's value buffer (all node activations). */
    uint64_t valueBufferWords = 0;
};

/** Cost of one individual on an INAX PU; panics on a cyclic def. */
IndividualCost puIndividualCost(const NetworkDef &def,
                                const InaxConfig &cfg);

/**
 * The same cost from an acyclic definition's NetStats and arity: the
 * wave schedule needs only each layer's in-degrees, set-up and buffers
 * only node and connection counts.
 */
IndividualCost puIndividualCost(const NetStats &stats, size_t numInputs,
                                size_t numOutputs, const InaxConfig &cfg);

} // namespace e3

#endif // E3_INAX_PU_HH
