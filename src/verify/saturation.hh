/**
 * @file
 * Quantization safety analysis (E3V1xx rules).
 *
 * Combines the interval engine with FixedPointFormat to decide, before
 * a genome ever touches the modeled accelerator, whether deployment at
 * a given Qm.n format is guaranteed-safe or may saturate: parameters
 * outside the representable range (clipped at quantizeDef time) are
 * errors, may-clip inputs and activation intervals that can cross the
 * range are warnings, and the analysis suggests the minimal format
 * whose integer bits cover every statically bounded value at the same
 * fractional precision.
 */

#ifndef E3_VERIFY_SATURATION_HH
#define E3_VERIFY_SATURATION_HH

#include <cstdint>
#include <vector>

#include "nn/quantize.hh"
#include "verify/diagnostics.hh"
#include "verify/interval.hh"

namespace e3::verify {

/** Static bound of one compiled node under the analyzed format. */
struct NodeBound : NodeInterval
{
    int id = 0;               ///< original node id
    uint32_t slot = 0;        ///< value-array slot
    bool maySaturate = false; ///< post-activation bound can clip
};

/** Result of one network's quantization analysis. */
struct QuantizationAnalysis
{
    Report report;
    FixedPointFormat format;          ///< format analyzed against
    std::vector<Interval> inputBounds;
    std::vector<NodeBound> nodes;     ///< compiled nodes, execution order
    bool guaranteedSafe = false;      ///< no finding of any severity

    /** Minimal safe format at the same fracBits, when one exists. */
    bool suggestionValid = false;
    FixedPointFormat suggested;
};

/**
 * True if quantize(v) saturates (the rounded value falls outside the
 * representable step range and is clipped) rather than merely rounds.
 */
bool formatClips(const FixedPointFormat &format, double v);

/**
 * Analyze a (float) definition under @p format: check every weight and
 * bias (E3V101 saturates / E3V102 underflows-to-zero), then propagate
 * @p inputBounds through the quantized network exactly as the batch
 * engine's quantized mode executes it — quantized input and value
 * storage, full-precision MAC — flagging may-clip inputs (E3V103) and
 * nodes whose post-activation interval can cross the representable
 * range (E3V104).
 *
 * @pre def verifies clean of structural errors
 * @pre inputBounds.size() == def.inputIds.size()
 */
QuantizationAnalysis
analyzeQuantization(const NetworkDef &def,
                    const std::vector<Interval> &inputBounds,
                    const FixedPointFormat &format);

} // namespace e3::verify

#endif // E3_VERIFY_SATURATION_HH
