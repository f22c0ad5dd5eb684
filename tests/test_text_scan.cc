#include "common/text_scan.hh"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace e3 {
namespace {

std::vector<std::string>
allLines(std::string_view text)
{
    TextCursor cursor(text);
    std::vector<std::string> out;
    std::string_view line;
    while (cursor.nextLine(line))
        out.emplace_back(line);
    return out;
}

TEST(TextCursor, SplitsLikeGetline)
{
    EXPECT_TRUE(allLines("").empty());
    EXPECT_EQ(allLines("a"), (std::vector<std::string>{"a"}));
    EXPECT_EQ(allLines("a\n"), (std::vector<std::string>{"a"}));
    EXPECT_EQ(allLines("a\n\nb"), (std::vector<std::string>{"a", "", "b"}));
    EXPECT_EQ(allLines("a\r\nb\n"), (std::vector<std::string>{"a\r", "b"}));
}

TEST(TextCursor, RecordsSkipBlankAndCommentLines)
{
    TextCursor cursor("\n  \t\n# note\n  #x y\nnode 3 x\r\n");
    std::string_view tag;
    LineScanner rest;
    ASSERT_TRUE(cursor.nextRecord(tag, rest));
    EXPECT_EQ(tag, "node");
    int id = 0;
    std::string_view word;
    EXPECT_TRUE(rest >> id >> word);
    EXPECT_EQ(id, 3);
    EXPECT_EQ(word, "x");
    EXPECT_FALSE(rest >> word); // '\r' is whitespace, not a word
    EXPECT_FALSE(cursor.nextRecord(tag, rest));
}

TEST(LineScanner, IntegersReadLikeIstream)
{
    int a = 0, b = 0, c = 0;
    std::string_view rest;
    LineScanner ok(" +7 -12 0042abc");
    EXPECT_TRUE(ok >> a >> b >> c >> rest);
    EXPECT_EQ(a, 7);
    EXPECT_EQ(b, -12);
    EXPECT_EQ(c, 42);
    EXPECT_EQ(rest, "abc"); // an integer stops at the first non-digit

    int limit = 0;
    EXPECT_TRUE(LineScanner("-2147483648") >> limit);
    EXPECT_EQ(limit, std::numeric_limits<int>::min());
    EXPECT_FALSE(LineScanner("2147483648") >> limit);
    EXPECT_FALSE(LineScanner("-") >> limit);
    EXPECT_FALSE(LineScanner("+-1") >> limit);
    EXPECT_FALSE(LineScanner("") >> limit);

    uint64_t u = 0;
    EXPECT_TRUE(LineScanner("-1") >> u); // wraps, as strtoull does
    EXPECT_EQ(u, std::numeric_limits<uint64_t>::max());
    EXPECT_TRUE(LineScanner("18446744073709551615") >> u);
    EXPECT_FALSE(LineScanner("18446744073709551616") >> u);
}

TEST(LineScanner, AFailedReadFailsEveryLaterRead)
{
    LineScanner scan("x 5");
    int n = 0;
    std::string_view word;
    EXPECT_FALSE(scan >> n);
    EXPECT_FALSE(scan >> word);
    EXPECT_TRUE(word.empty());
}

TEST(ParseDouble, WholeTokenWithStrtodSemantics)
{
    double v = 0.0;
    EXPECT_TRUE(parseDouble("0.1", v));
    EXPECT_EQ(v, 0.1);
    EXPECT_TRUE(parseDouble("-1.5e-3", v));
    EXPECT_EQ(v, -1.5e-3);
    EXPECT_TRUE(parseDouble("+2", v));
    EXPECT_EQ(v, 2.0);
    EXPECT_TRUE(parseDouble("0x1.8p+1", v));
    EXPECT_EQ(v, 3.0);
    EXPECT_TRUE(parseDouble("-inf", v));
    EXPECT_TRUE(std::isinf(v) && v < 0);
    EXPECT_TRUE(parseDouble("nan", v));
    EXPECT_TRUE(std::isnan(v));
    EXPECT_TRUE(parseDouble("1e400", v)); // out of range saturates
    EXPECT_TRUE(std::isinf(v));
    EXPECT_TRUE(parseDouble("4.9406564584124654e-324", v));
    EXPECT_EQ(v, std::numeric_limits<double>::denorm_min());

    EXPECT_FALSE(parseDouble("", v));
    EXPECT_FALSE(parseDouble("1.5x", v));
    EXPECT_FALSE(parseDouble("1e", v));
    EXPECT_FALSE(parseDouble(".", v));
    EXPECT_FALSE(parseDouble(std::string_view("1\0", 2), v));
}

} // namespace
} // namespace e3
