/**
 * @file
 * Tests for the flag table every binary parses its command line with
 * (src/driver/cli): both value forms, optional values, positionals,
 * bounds, lists and name tables, and the exit status 2 with a message
 * naming the flag on every usage error.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "driver/cli.hh"

namespace dmt::driver
{
namespace
{

using ::testing::ExitedWithCode;

/** Parse `args`, behind a program name, against `flags`. */
void
parse(std::vector<std::string> args, const Flags &flags)
{
    args.insert(args.begin(), "prog");
    std::vector<char *> argv;
    for (std::string &arg : args)
        argv.push_back(arg.data());
    parseFlags(static_cast<int>(argv.size()), argv.data(), flags);
}

TEST(ParseFlags, SpaceAndEqualsFormsAgree)
{
    for (const std::vector<std::string> &args :
         {std::vector<std::string>{"--n", "12", "--path", "a=b"},
          std::vector<std::string>{"--n=12", "--path=a=b"}}) {
        std::uint64_t n = 0;
        std::string path;
        parse(args, {count("--n", n), text("--path", "FILE", path)});
        EXPECT_EQ(n, 12u);
        EXPECT_EQ(path, "a=b");
    }
}

TEST(ParseFlags, OptionalValueFollowsOnlyAnEqualsSign)
{
    bool on = false;
    std::uint64_t every = 0;
    const Flags flags = {optional(on, count("--audit", every))};
    parse({}, flags);
    EXPECT_FALSE(on);
    parse({"--audit"}, flags);
    EXPECT_TRUE(on);
    EXPECT_EQ(every, 0u);
    parse({"--audit=5000"}, flags);
    EXPECT_EQ(every, 5000u);
    EXPECT_EXIT(parse({"--audit", "5000"}, flags), ExitedWithCode(2),
                "unexpected argument '5000'");
    EXPECT_EXIT(parse({"--audit="}, flags), ExitedWithCode(2),
                "bad value '' for --audit");
}

TEST(ParseFlags, LastValueWins)
{
    std::uint64_t n = 0;
    std::vector<std::string> names;
    const Flags flags = {count("--n", n),
                         list<std::string>("--names", "A,...", names,
                                           [](const std::string &s) {
                                               return s;
                                           })};
    parse({"--n", "1", "--names", "a,b", "--n=2", "--names=c"}, flags);
    EXPECT_EQ(n, 2u);
    EXPECT_EQ(names, std::vector<std::string>{"c"});
}

TEST(ParseFlags, CountsAndScalesKeepTheirBounds)
{
    int reps = 0;
    unsigned cores = 0;
    double scaled = 0.0;
    const Flags flags = {count("--reps", reps, 1),
                         count("--cores", cores, 1, 256), scale(scaled)};
    parse({"--reps", "2147483647", "--cores", "256", "--scale", "64"},
          flags);
    EXPECT_EQ(reps, 2147483647);
    EXPECT_EQ(cores, 256u);
    EXPECT_DOUBLE_EQ(scaled, 1.0 / 64.0);
    for (const char *bad :
         {"--reps=2147483648", "--reps=0", "--reps=-1", "--reps= 1",
          "--reps=1k", "--cores=257", "--scale=0", "--scale=x",
          "--scale=inf", "--scale="})
        EXPECT_EXIT(parse({bad}, flags), ExitedWithCode(2),
                    "bad value '.*' for --");
}

TEST(ParseFlags, ListsAndNamesComeFromTheirTables)
{
    const Names<int> table = {{"one", 1}, {"two", 2}};
    int pick = 0;
    std::vector<int> picks;
    const Flags flags = {choice("--pick", table, pick),
                         choices("--picks", table, picks)};
    parse({"--pick", "two", "--picks", "two,,one"}, flags);
    EXPECT_EQ(pick, 2);
    EXPECT_EQ(picks, (std::vector<int>{2, 1}));
    EXPECT_EXIT(parse({"--pick", "three"}, flags), ExitedWithCode(2),
                "bad value 'three' for --pick");
    EXPECT_EXIT(parse({"--picks=one,three"}, flags), ExitedWithCode(2),
                "bad value 'one,three' for --picks");
    // An empty list is not the default list.
    EXPECT_EXIT(parse({"--picks", ","}, flags), ExitedWithCode(2),
                "bad value ',' for --picks");
    EXPECT_EXIT(parse({"--nope"}, flags), ExitedWithCode(2),
                "usage: prog\n    \\[--pick one\\|two\\]\n"
                "    \\[--picks one,two\\]");
}

TEST(ParseFlags, PositionalsAreRequiredAndCounted)
{
    std::string file;
    bool quiet = false;
    const Flags flags = {text("", "FILE", file), flag("--quiet", quiet)};
    parse({"--quiet", "log.bin"}, flags);
    EXPECT_EQ(file, "log.bin");
    EXPECT_TRUE(quiet);
    EXPECT_EXIT(parse({"--quiet"}, flags), ExitedWithCode(2),
                "missing FILE");
    EXPECT_EXIT(parse({"a", "b"}, flags), ExitedWithCode(2),
                "unexpected argument 'b'");
    EXPECT_EXIT(parse({"a"}, {}), ExitedWithCode(2),
                "unexpected argument 'a'");
}

TEST(ParseFlags, EveryUsageErrorExits2NamingTheFlag)
{
    std::uint64_t n = 0;
    bool on = false;
    const Flags flags = {count("--n", n), flag("--on", on)};
    EXPECT_EXIT(parse({"--n"}, flags), ExitedWithCode(2),
                "--n needs a value");
    EXPECT_EXIT(parse({"--n", "x"}, flags), ExitedWithCode(2),
                "bad value 'x' for --n");
    EXPECT_EXIT(parse({"--on=1"}, flags), ExitedWithCode(2),
                "--on takes no value");
    EXPECT_EXIT(parse({"-n", "1"}, flags), ExitedWithCode(2),
                "unknown flag '-n'");
    EXPECT_EXIT(usageError("prog", flags, "why"), ExitedWithCode(2),
                "prog: why\nusage: prog\n    \\[--n N\\]\n    \\[--on\\]");
}

} // namespace
} // namespace dmt::driver
