/**
 * @file
 * Exact float comparisons, for every target outside tests/ rejects a
 * float `==`/`!=` (-Werror=float-equal): an exact zero (zero-skip and
 * fixed-point underflow in INAX's quantized datapath) or identical bits.
 */

#ifndef E3_COMMON_FLOAT_EQ_HH
#define E3_COMMON_FLOAT_EQ_HH

#include <bit>
#include <cstdint>

namespace e3 {

/** `x == 0.0`: true for +0 and -0; false for NaN and subnormals. */
constexpr bool
isExactZero(double x)
{
    return x >= 0.0 && x <= 0.0;
}

/** Identical bit patterns: NaN payloads and signed zeros count. */
constexpr bool
bitEqual(double a, double b)
{
    return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

} // namespace e3

#endif // E3_COMMON_FLOAT_EQ_HH
