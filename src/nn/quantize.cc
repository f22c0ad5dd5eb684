#include "nn/quantize.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/logging.hh"
#include "nn/batch_eval.hh"

namespace e3 {

double
FixedPointFormat::maxValue() const
{
    const double steps =
        std::ldexp(1.0, totalBits - 1) - 1.0; // 2^(t-1) - 1
    return steps * resolution();
}

double
FixedPointFormat::minValue() const
{
    return -std::ldexp(1.0, totalBits - 1) * resolution();
}

double
FixedPointFormat::resolution() const
{
    return std::ldexp(1.0, -fracBits);
}

double
FixedPointFormat::quantize(double v) const
{
    const double scaled = std::round(v / resolution());
    const double lo = -std::ldexp(1.0, totalBits - 1);
    const double hi = std::ldexp(1.0, totalBits - 1) - 1.0;
    return std::clamp(scaled, lo, hi) * resolution();
}

Status
FixedPointFormat::validate() const
{
    if (totalBits < 2 || totalBits > 64)
        return Status::error("fixed-point total bits ", totalBits,
                             " out of range [2, 64]");
    if (fracBits < 0 || fracBits >= totalBits)
        return Status::error("fractional bits ", fracBits,
                             " must be in [0, totalBits)");
    return Status();
}

std::string
FixedPointFormat::describe() const
{
    std::ostringstream oss;
    oss << 'Q' << (totalBits - 1 - fracBits) << '.' << fracBits;
    return oss.str();
}

NetworkDef
quantizeDef(const NetworkDef &def, const FixedPointFormat &format)
{
    assertOk(format.validate());
    NetworkDef out = def;
    for (auto &node : out.nodes)
        node.bias = format.quantize(node.bias);
    for (auto &conn : out.conns)
        conn.weight = format.quantize(conn.weight);
    return out;
}

QuantizedNetwork::QuantizedNetwork(FeedForwardNetwork net,
                                   FixedPointFormat format)
    : net_(std::move(net)), format_(format),
      values_(net_.valueSlots(), 0.0)
{
}

QuantizedNetwork
QuantizedNetwork::create(const NetworkDef &def,
                         const FixedPointFormat &format)
{
    assertOk(format.validate());
    return QuantizedNetwork(
        FeedForwardNetwork::create(quantizeDef(def, format)), format);
}

void
QuantizedNetwork::activateInto(const double *inputs, double *outputs)
{
    const BatchPlan &plan = net_.plan();
    for (size_t i = 0; i < plan.numInputs; ++i)
        values_[i] = format_.quantize(inputs[i]);

    plan.forEachNode(0, [&](const BatchPlan::Segment &seg,
                            const BatchPlan::NodeRun &node) {
        // Full-precision accumulation (wide DSP accumulator), then
        // quantize the activated output as it enters the value buffer.
        Aggregator agg(seg.agg);
        for (const BatchPlan::Op &op : plan.opsOf(node))
            agg.add(values_[op.srcSlot] * op.weight);
        values_[node.dstSlot] = format_.quantize(
            applyActivation(seg.act, agg.result() + node.bias));
    });

    for (size_t o = 0; o < plan.numOutputs; ++o)
        outputs[o] = values_[plan.outputSlots[o]];
}

} // namespace e3
