/**
 * @file
 * INAX schedule legality (E3V2xx rules).
 *
 * Certifies the mappings handed to AcceleratorSession against an
 * InaxConfig as diagnostics instead of fatals: hardware knobs in range
 * (E3V201), buffer capacity for the compiled network (E3V202), batch
 * size within the PU count (E3V203), PE-active cycles physically
 * achievable inside the inference window (E3V204), and individual I/O
 * shapes consistent with the environment the schedule was sized for
 * (E3V205). A batch that verifies clean can never query the
 * cycle/energy cost model with an impossible schedule.
 */

#ifndef E3_VERIFY_SCHEDULE_CHECK_HH
#define E3_VERIFY_SCHEDULE_CHECK_HH

#include <cstddef>
#include <string>
#include <vector>

#include "inax/hw_config.hh"
#include "inax/pu.hh"
#include "nn/network.hh"
#include "verify/diagnostics.hh"

namespace e3::verify {

/** E3V201 for every knob that breaks its inaxKnobRules() rule. */
Report verifyHwConfig(const InaxConfig &cfg);

/**
 * Check one distilled individual cost against the hardware: PE
 * schedule achievability (E3V204) and, when @p numInputs /
 * @p numOutputs are nonzero, I/O shape (E3V205).
 */
Report verifyIndividualCost(const IndividualCost &cost,
                            const InaxConfig &cfg, size_t numInputs,
                            size_t numOutputs, const std::string &locus);

/**
 * Certify one evaluate batch as AcceleratorSession::loadBatch receives
 * it: hardware config, batch size vs PU count (E3V203), and every
 * individual's cost profile.
 */
Report verifyBatch(const std::vector<IndividualCost> &costs,
                   const InaxConfig &cfg, size_t numInputs,
                   size_t numOutputs);

/**
 * Certify a compiled definition for deployment: hardware config,
 * buffer capacity (E3V202 when the compiled node count exceeds
 * maxSupportedNodes), and the cost profile the PU model derives from
 * it. @pre def verifies clean of structural errors.
 */
Report verifyDefOnHardware(const NetworkDef &def, const InaxConfig &cfg,
                           size_t numInputs, size_t numOutputs);

} // namespace e3::verify

#endif // E3_VERIFY_SCHEDULE_CHECK_HH
