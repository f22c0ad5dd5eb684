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
 * answered empirically (bench_ablation_quantization).
 */

#ifndef E3_NN_QUANTIZE_HH
#define E3_NN_QUANTIZE_HH

#include "common/result.hh"
#include "nn/network.hh"

namespace e3 {

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

/**
 * Irregular network evaluated with fixed-point value storage: inputs
 * and every node's activated output are quantized; MAC accumulation is
 * full-precision (wide DSP accumulator).
 */
class QuantizedNetwork : public Network
{
  public:
    /** Compile a (float) definition under a format. */
    static QuantizedNetwork create(const NetworkDef &def,
                                   const FixedPointFormat &format);

    /** Run one inference; outputs are quantized values. */
    void activateInto(const double *inputs, double *outputs) override;

    size_t numInputs() const override { return net_.numInputs(); }
    size_t numOutputs() const override { return net_.numOutputs(); }
    const FixedPointFormat &format() const { return format_; }

  private:
    QuantizedNetwork(FeedForwardNetwork net, FixedPointFormat format);

    FeedForwardNetwork net_; ///< compiled quantized def (its plan)
    FixedPointFormat format_;
    std::vector<double> values_; ///< quantized value storage
};

} // namespace e3

#endif // E3_NN_QUANTIZE_HH
