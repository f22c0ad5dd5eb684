#include "common/ini.hh"

#include <gtest/gtest.h>

namespace e3 {
namespace {

IniFile
parseOk(const std::string &text)
{
    Result<IniFile> ini = IniFile::parseString(text);
    EXPECT_TRUE(ini.ok()) << ini.message();
    return *std::move(ini);
}

TEST(Ini, ParsesSectionsAndTypes)
{
    const IniFile ini = parseOk(
        "# header comment\n"
        "[NEAT]\n"
        "pop_size = 200\n"
        "fitness_threshold = 475.5\n"
        "; alt comment\n"
        "[Genome]\n"
        "feed_forward = true\n"
        "name = hello world\n");
    EXPECT_TRUE(ini.has("NEAT", "pop_size"));
    EXPECT_EQ(*ini.getInt("NEAT", "pop_size", 0), 200);
    EXPECT_DOUBLE_EQ(*ini.getDouble("NEAT", "fitness_threshold", 0),
                     475.5);
    EXPECT_TRUE(*ini.getBool("Genome", "feed_forward", false));
    EXPECT_EQ(ini.get("Genome", "name", ""), "hello world");
}

TEST(Ini, FallbacksWhenAbsent)
{
    const IniFile ini = parseOk("[A]\nx = 1\n");
    EXPECT_EQ(*ini.getInt("A", "missing", 7), 7);
    EXPECT_EQ(*ini.getInt("B", "x", 9), 9);
    EXPECT_FALSE(ini.has("B", "x"));
    EXPECT_TRUE(ini.keys("B").empty());
}

TEST(Ini, WhitespaceTolerant)
{
    const IniFile ini = parseOk(
        "  [ Sec ]  \n   key   =   value with spaces   \n");
    EXPECT_EQ(ini.get("Sec", "key", ""), "value with spaces");
}

TEST(Ini, BooleanSpellings)
{
    const IniFile ini = parseOk(
        "[B]\na = yes\nb = 0\nc = False\nd = TRUE\n");
    EXPECT_TRUE(*ini.getBool("B", "a", false));
    EXPECT_FALSE(*ini.getBool("B", "b", true));
    EXPECT_FALSE(*ini.getBool("B", "c", true));
    EXPECT_TRUE(*ini.getBool("B", "d", false));
}

TEST(Ini, RoundTripThroughStr)
{
    IniFile ini;
    ini.set("S", "k", "v");
    ini.set("S", "n", "42");
    const IniFile copy = parseOk(ini.str());
    EXPECT_EQ(copy.get("S", "k", ""), "v");
    EXPECT_EQ(*copy.getInt("S", "n", 0), 42);
}

TEST(Ini, MalformedLinesError)
{
    const Result<IniFile> noEquals =
        IniFile::parseString("[Sec]\nno equals sign\n");
    ASSERT_FALSE(noEquals.ok());
    EXPECT_NE(noEquals.message().find("key = value"),
              std::string::npos);

    const Result<IniFile> unclosed =
        IniFile::parseString("[unclosed\nx = 1\n");
    ASSERT_FALSE(unclosed.ok());
    EXPECT_NE(unclosed.message().find("section"), std::string::npos);

    const Result<IniFile> emptyKey =
        IniFile::parseString("[S]\n= novalue\n");
    ASSERT_FALSE(emptyKey.ok());
    EXPECT_NE(emptyKey.message().find("empty key"), std::string::npos);
}

TEST(Ini, DuplicateKeysError)
{
    // A repeated key must not silently overwrite the first; the same
    // key in another section, or a reopened section, is fine.
    const Result<IniFile> dup = IniFile::parseString(
        "[DefaultGenome]\nconn_add_prob = 0.1\nconn_add_prob = 5\n");
    ASSERT_FALSE(dup.ok());
    EXPECT_EQ(dup.message(),
              "ini line 3: duplicate key 'conn_add_prob' in "
              "[DefaultGenome]");

    const Result<IniFile> reopened =
        IniFile::parseString("[A]\nk = 1\n[B]\nk = 2\n[A]\nk = 3\n");
    ASSERT_FALSE(reopened.ok());
    EXPECT_NE(reopened.message().find("ini line 6"), std::string::npos);

    const IniFile ok = parseOk("[A]\nk = 1\n[B]\nk = 2\n[A]\nj = 3\n");
    EXPECT_EQ(ok.get("A", "j", ""), "3");
}

TEST(Ini, ListsSectionNames)
{
    const IniFile ini =
        parseOk("top = 1\n[B]\nx = 1\n[Empty]\n[A]\ny = 2\n");
    EXPECT_EQ(ini.sections(), (std::set<std::string>{"", "A", "B"}));
}

TEST(Ini, TypeErrorsReportAsErrors)
{
    const IniFile ini = parseOk("[S]\nx = abc\ny = 1.5z\nz = maybe\n");

    const Result<long> i = ini.getInt("S", "x", 0);
    ASSERT_FALSE(i.ok());
    EXPECT_NE(i.message().find("not an integer"), std::string::npos);

    const Result<double> d = ini.getDouble("S", "y", 0);
    ASSERT_FALSE(d.ok());
    EXPECT_NE(d.message().find("not a number"), std::string::npos);

    const Result<bool> b = ini.getBool("S", "z", false);
    ASSERT_FALSE(b.ok());
    EXPECT_NE(b.message().find("not a boolean"), std::string::npos);
}

TEST(Ini, MissingFileErrors)
{
    const Result<IniFile> ini =
        IniFile::load("/nonexistent/config.ini");
    ASSERT_FALSE(ini.ok());
    EXPECT_NE(ini.message().find("cannot open"), std::string::npos);
}

} // namespace
} // namespace e3
