#include "nn/quantize.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/logging.hh"
#include "nn/network.hh"

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

} // namespace e3
