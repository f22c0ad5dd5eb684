/**
 * @file
 * Fixed-point quantization of irregular networks.
 *
 * INAX's PEs are DSP-slice MACs operating on fixed-point words; the
 * software evolution loop works in double precision. This module
 * models the deployment step: weights, biases and activations quantize
 * to a Qm.n format (wide DSP accumulators keep the per-node partial
 * sum at full precision, matching DSP48 behaviour), so the co-design
 * question "how many bits does an evolved controller need?" can be
 * answered empirically (bench_ablation_quantization). The batch
 * engine's quantized value mode (NetworkCompileOptions::quantization)
 * executes it.
 */

#ifndef E3_NN_QUANTIZE_HH
#define E3_NN_QUANTIZE_HH

#include <string>

#include "common/result.hh"

namespace e3 {

struct NetworkDef;

/** Signed fixed-point format with saturation. */
struct FixedPointFormat
{
    int totalBits = 16; ///< including sign
    int fracBits = 8;   ///< fractional bits (Q7.8 at the defaults)

    /** Representable maximum. */
    double maxValue() const;

    /** Representable minimum. */
    double minValue() const;

    /** Quantization step. */
    double resolution() const;

    /** Round-to-nearest with saturation. */
    double quantize(double v) const;

    /** Error on nonsensical bit allocations. */
    Status validate() const;

    /** e.g. "Q7.8". */
    std::string describe() const;
};

/** Copy of a definition with quantized weights and biases. */
NetworkDef quantizeDef(const NetworkDef &def,
                       const FixedPointFormat &format);

} // namespace e3

#endif // E3_NN_QUANTIZE_HH
