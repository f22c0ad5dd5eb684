#include "common/float_eq.hh"

#include <gtest/gtest.h>

#include <limits>

TEST(FloatEq, ExactZeroMatchesEqualityWithZero)
{
    // +-0 are zero; NaN, the smallest subnormal and 1e-300 are not.
    for (double x : {0.0, -0.0, std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::denorm_min(), 1e-300,
                     1.0})
        EXPECT_EQ(e3::isExactZero(x), x == 0.0) << x;
}

TEST(FloatEq, BitEqualComparesBitPatterns)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_TRUE(e3::bitEqual(nan, nan));
    EXPECT_FALSE(e3::bitEqual(0.0, -0.0));
    EXPECT_TRUE(e3::bitEqual(0.1 + 0.2, 0.30000000000000004));
}
