/**
 * @file
 * Tests of the shared command-line grammar (report/flags.h): strict
 * numbers through parseUnsigned and the destination width, and every
 * error case report::FlagSet owns — a missing value, an unknown flag,
 * a bad list element, stray or missing positionals — plus the
 * generated usage text.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "report/flags.h"

using msc::report::FlagSet;
using msc::report::parseUnsigned;

namespace {

/** Parses @p args with @p f; returns the error text ("" if none). */
std::string
parseError(const FlagSet &f, std::vector<std::string> args)
{
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    try {
        f.parse(int(argv.size()), argv.data());
    } catch (const std::invalid_argument &e) {
        return e.what();
    }
    return "";
}

bool
contains(const std::string &s, const std::string &part)
{
    return s.find(part) != std::string::npos;
}

} // anonymous namespace

TEST(ParseUnsigned, AcceptsDigitsUpToTheTypeMax)
{
    EXPECT_EQ(parseUnsigned("--n", "0"), 0u);
    EXPECT_EQ(parseUnsigned("--n", "007"), 7u);
    EXPECT_EQ(parseUnsigned("--n", "18446744073709551615"),
              UINT64_MAX);
    EXPECT_EQ(parseUnsigned<uint32_t>("--n", "4294967295"), UINT32_MAX);
    EXPECT_EQ(parseUnsigned<uint16_t>("--n", "65535"), 65535u);
}

TEST(ParseUnsigned, RejectsGarbageNamingTheFlag)
{
    for (const char *bad : {"", "-1", "+1", " 1", "1 ", "1x", "x", "1.5",
                            "0x10", "18446744073709551616"}) {
        try {
            parseUnsigned("--count", bad);
            ADD_FAILURE() << "accepted \"" << bad << "\"";
        } catch (const std::invalid_argument &e) {
            EXPECT_TRUE(contains(e.what(), "--count")) << e.what();
            EXPECT_TRUE(contains(e.what(), std::string("\"") + bad + "\""))
                << e.what();
        }
    }
    EXPECT_THROW(parseUnsigned<uint32_t>("--n", "4294967296"),
                 std::invalid_argument);
    EXPECT_THROW(parseUnsigned<uint16_t>("--n", "65536"),
                 std::invalid_argument);
}

TEST(ParseUnsigned, HonoursAnExplicitMax)
{
    EXPECT_EQ(parseUnsigned("--n", "9223372036854775807", INT64_MAX),
              uint64_t(INT64_MAX));
    try {
        parseUnsigned("--max-fuel", "9223372036854775808", INT64_MAX);
        ADD_FAILURE() << "accepted INT64_MAX + 1";
    } catch (const std::invalid_argument &e) {
        EXPECT_TRUE(contains(e.what(), "--max-fuel needs an unsigned "
                                       "integer up to 9223372036854775807"))
            << e.what();
    }
}

TEST(FlagSet, ParsesEveryValueKind)
{
    bool sw = false;
    std::string s;
    uint32_t u32 = 0;
    uint64_t u64 = 0;
    std::vector<std::string> names;
    std::vector<unsigned> nums;
    std::string custom;
    FlagSet f("prog");
    f.flag("--sw", &sw, "a switch")
        .flag("--s", &s, "S", "a string")
        .flag("--u32", &u32, "N", "32-bit")
        .flag("--u64", &u64, "N", "64-bit")
        .flag("--names", &names, "A,B", "string list")
        .flag("--nums", &nums, "N,M", "number list")
        .func("--custom", "X", "custom",
              [&](const std::string &v) { custom = "<" + v + ">"; });
    EXPECT_EQ(parseError(f, {"--sw", "--s", "--x", "--u32", "4294967295",
                             "--u64", "18446744073709551615", "--names",
                             "a,,b,", "--nums", "4,8", "--custom", "v"}),
              "");
    EXPECT_TRUE(sw);
    EXPECT_EQ(s, "--x");  // a value may look like a flag
    EXPECT_EQ(u32, UINT32_MAX);
    EXPECT_EQ(u64, UINT64_MAX);
    EXPECT_EQ(names, (std::vector<std::string>{"a", "b"}));
    EXPECT_EQ(nums, (std::vector<unsigned>{4, 8}));
    EXPECT_EQ(custom, "<v>");

    // A repeated list flag replaces, it does not append.
    EXPECT_EQ(parseError(f, {"--nums", "1,2", "--nums", "3"}), "");
    EXPECT_EQ(nums, (std::vector<unsigned>{3}));
}

TEST(FlagSet, MissingValueNamesTheFlag)
{
    std::string ep;
    bool sw = false;
    FlagSet f("prog");
    f.flag("--connect", &ep, "EP", "endpoint").flag("--sw", &sw, "s");
    EXPECT_EQ(parseError(f, {"--connect"}), "--connect needs a value");
    EXPECT_EQ(parseError(f, {"--sw", "--connect"}),
              "--connect needs a value");
}

TEST(FlagSet, UnknownFlagIsAnError)
{
    bool sw = false;
    FlagSet f("prog");
    f.flag("--sw", &sw, "s");
    EXPECT_EQ(parseError(f, {"--size", "1"}), "unknown flag --size");
    EXPECT_EQ(parseError(f, {"--sw=1"}), "unknown flag --sw=1");
}

TEST(FlagSet, StrictNumbersThroughTheDestinationWidth)
{
    uint32_t ms = 0;
    uint16_t port = 0;
    FlagSet f("prog");
    f.flag("--timeout-ms", &ms, "N", "ms").flag("--tcp", &port, "P", "p");
    // atoll would truncate this to 0 ("unlimited").
    EXPECT_TRUE(contains(parseError(f, {"--timeout-ms", "4294967296"}),
                         "--timeout-ms needs an unsigned integer up to "
                         "4294967295"));
    EXPECT_NE(parseError(f, {"--tcp", "65536"}), "");
    for (const char *bad : {"-1", " 5", "5 ", "5ms", ""})
        EXPECT_NE(parseError(f, {"--timeout-ms", bad}), "") << bad;
    EXPECT_EQ(parseError(f, {"--timeout-ms", "4294967295"}), "");
    EXPECT_EQ(ms, UINT32_MAX);

    // A destination bounded below its width, as JSON-bound values are.
    uint64_t fuel = 0;
    FlagSet g("prog");
    g.flag("--max-fuel", &fuel, "N", "fuel", uint64_t(INT64_MAX));
    EXPECT_TRUE(contains(parseError(g, {"--max-fuel",
                                        "18446744073709551615"}),
                         "--max-fuel needs an unsigned integer up to "
                         "9223372036854775807"));
    EXPECT_EQ(parseError(g, {"--max-fuel", "9223372036854775807"}), "");
    EXPECT_EQ(fuel, uint64_t(INT64_MAX));
}

TEST(FlagSet, CommaListRejectsABadElement)
{
    std::vector<unsigned> pus;
    std::vector<std::string> strategies;
    FlagSet f("prog");
    f.flag("--pus", &pus, "N,M", "pus")
        .flag("--strategy", &strategies, "A,B", "strategies");
    EXPECT_TRUE(contains(parseError(f, {"--pus", "4,x"}),
                         "--pus needs an unsigned integer"));
    EXPECT_NE(parseError(f, {"--pus", "4,-8"}), "");
    EXPECT_EQ(parseError(f, {"--pus", ","}), "--pus needs a non-empty list");
    EXPECT_EQ(parseError(f, {"--strategy", ""}),
              "--strategy needs a non-empty list");
}

TEST(FlagSet, PositionalsBesideUnknownFlags)
{
    std::vector<std::string> names;
    bool small = false;
    FlagSet many("sweep");
    many.positionals(&names, "[workloads...]").flag("--small", &small, "s");
    EXPECT_EQ(parseError(many, {"compress", "--small", "li"}), "");
    EXPECT_EQ(names, (std::vector<std::string>{"compress", "li"}));
    EXPECT_TRUE(small);
    EXPECT_EQ(parseError(many, {"compress", "--smal"}),
              "unknown flag --smal");

    std::string workload;
    FlagSet one("run");
    one.positional(&workload, "<workload>");
    EXPECT_EQ(parseError(one, {"go"}), "");
    EXPECT_EQ(workload, "go");
    EXPECT_EQ(parseError(one, {"go", "li"}), "unexpected argument li");
    EXPECT_EQ(parseError(one, {"go", "--pus"}), "unknown flag --pus");
    EXPECT_EQ(parseError(one, {}), "missing <workload>");

    FlagSet none("list");
    EXPECT_EQ(parseError(none, {"extra"}), "unexpected argument extra");
}

TEST(FlagSet, UsageNamesEveryDeclaredFlag)
{
    bool b = false;
    std::string s;
    unsigned u = 0;
    std::vector<unsigned> l;
    std::string target;
    FlagSet f("msctool cancel", "Cancel a request.");
    f.positional(&target, "<request-id>")
        .flag("--quiet", &b, "say less")
        .flag("--connect", &s, "EP", "daemon endpoint")
        .flag("--jobs", &u, "N", "threads")
        .flag("--pus", &l, "4,8", "PU counts")
        .func("--core", "cycle|event", "simulator core",
              [](const std::string &) {});
    std::string text = f.usage();
    EXPECT_EQ(text.rfind("msctool cancel <request-id> [flags]\n", 0), 0u)
        << text;
    for (const char *part :
         {"Cancel a request.", "--quiet", "say less", "--connect EP",
          "daemon endpoint", "--jobs N", "--pus 4,8", "--core cycle|event",
          "simulator core"})
        EXPECT_TRUE(contains(text, part)) << part << " in\n" << text;
}
