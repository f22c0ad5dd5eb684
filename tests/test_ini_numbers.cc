/**
 * @file
 * The numeric INI accessors' accept/refuse table. getDouble/getInt
 * accept exactly what std::stod/std::stol parse whole and in range:
 * leading blanks, hex floats, nan and inf for doubles; base-10 only
 * for integers; overflow, underflow, trailing junk and empty values
 * are refused. Values are set raw (IniFile::set), so the parser's
 * trimming does not hide the leading-blank case.
 */

#include "common/ini.hh"

#include <gtest/gtest.h>

#include <climits>
#include <cmath>
#include <limits>
#include <optional>

namespace e3 {
namespace {

struct NumberCase
{
    const char *text;
    std::optional<double> asDouble; ///< nullopt: refused
    std::optional<long> asInt;      ///< nullopt: refused
};

TEST(IniNumbers, AcceptAndRefuseTable)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const NumberCase cases[] = {
        {"1.5", 1.5, std::nullopt},
        {" 2", 2.0, 2},
        {"0x10", 16.0, std::nullopt},
        {"nan", nan, std::nullopt},
        {"inf", inf, std::nullopt},
        {"1e999", std::nullopt, std::nullopt},
        {"1e-400", std::nullopt, std::nullopt},
        {"", std::nullopt, std::nullopt},
        {"1.5x", std::nullopt, std::nullopt},
        {"9223372036854775808", 9223372036854775808.0, std::nullopt},
        {"-0", -0.0, 0},
        {"9223372036854775807", 9223372036854775807.0, LONG_MAX},
        {"-9223372036854775808", -9223372036854775808.0, LONG_MIN},
        {"-9223372036854775809", -9223372036854775809.0, std::nullopt},
    };
    for (const NumberCase &c : cases) {
        SCOPED_TRACE(std::string("value '") + c.text + "'");
        IniFile ini;
        ini.set("S", "k", c.text);

        const Result<double> d = ini.getDouble("S", "k", 7.0);
        ASSERT_EQ(d.ok(), c.asDouble.has_value()) << d.message();
        if (d.ok()) {
            if (std::isnan(*c.asDouble))
                EXPECT_TRUE(std::isnan(*d));
            else
                EXPECT_EQ(*d, *c.asDouble);
            EXPECT_EQ(std::signbit(*d), std::signbit(*c.asDouble));
        } else {
            EXPECT_NE(d.message().find("is not a number"),
                      std::string::npos)
                << d.message();
        }

        const Result<long> i = ini.getInt("S", "k", 7);
        ASSERT_EQ(i.ok(), c.asInt.has_value()) << i.message();
        if (i.ok()) {
            EXPECT_EQ(*i, *c.asInt);
        } else {
            EXPECT_NE(i.message().find("is not an integer"),
                      std::string::npos)
                << i.message();
        }
    }
}

} // namespace
} // namespace e3
