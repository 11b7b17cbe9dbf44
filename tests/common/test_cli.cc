#include <gtest/gtest.h>

#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/error.h"

namespace crophe::cli {
namespace {

/** Build a mutable argv from literals (FlagParser takes char**). */
class Argv
{
  public:
    explicit Argv(std::initializer_list<const char *> args)
    {
        for (const char *a : args)
            store_.emplace_back(a);
        for (std::string &s : store_)
            ptrs_.push_back(s.data());
    }
    int argc() { return static_cast<int>(ptrs_.size()); }
    char **argv() { return ptrs_.data(); }

  private:
    std::vector<std::string> store_;
    std::vector<char *> ptrs_;
};

TEST(FlagParser, ParsesEveryRegisteredShape)
{
    std::string out_file;
    u32 count = 0;
    bool flag = false;
    FlagParser p("test harness");
    p.addString("--out", &out_file, "output file", "FILE");
    p.addUint("--count", &count, "how many");
    p.addBool("--flag", &flag, "presence toggle");

    Argv a({"prog", "--count", "42", "--flag", "--out", "x.json"});
    EXPECT_TRUE(p.parse(a.argc(), a.argv()));
    EXPECT_EQ(out_file, "x.json");
    EXPECT_EQ(count, 42u);
    EXPECT_TRUE(flag);
}

TEST(FlagParser, EmptyArgvParsesAndKeepsDefaults)
{
    std::string s = "default";
    FlagParser p;
    p.addString("--s", &s, "a string", "TEXT");
    Argv a({"prog"});
    EXPECT_TRUE(p.parse(a.argc(), a.argv()));
    EXPECT_EQ(s, "default");
}

TEST(FlagParser, ParsesEqualsSyntaxForEveryValueKind)
{
    std::string out_file;
    u32 count = 0;
    double x = 0.0;
    FlagParser p;
    p.addString("--out", &out_file, "output file", "FILE");
    p.addUint("--count", &count, "how many");
    p.addDouble("--x", &x, "a real");

    Argv a({"prog", "--count=42", "--out=x.json", "--x=2.5"});
    EXPECT_TRUE(p.parse(a.argc(), a.argv()));
    EXPECT_EQ(out_file, "x.json");
    EXPECT_EQ(count, 42u);
    EXPECT_EQ(x, 2.5);
}

TEST(FlagParser, EqualsSyntaxMixesWithSpaceSyntax)
{
    u32 a_val = 0, b_val = 0;
    FlagParser p;
    p.addUint("--a", &a_val, "first");
    p.addUint("--b", &b_val, "second");
    Argv a({"prog", "--a=1", "--b", "2"});
    EXPECT_TRUE(p.parse(a.argc(), a.argv()));
    EXPECT_EQ(a_val, 1u);
    EXPECT_EQ(b_val, 2u);
}

TEST(FlagParser, EqualsValueMayBeEmptyOrContainEquals)
{
    std::string out = "default", spec;
    FlagParser p;
    p.addString("--out", &out, "output file", "FILE");
    p.addString("--spec", &spec, "key=value spec", "SPEC");
    Argv a({"prog", "--out=", "--spec=seed=7,rate=1e-3"});
    EXPECT_TRUE(p.parse(a.argc(), a.argv()));
    EXPECT_EQ(out, "");
    EXPECT_EQ(spec, "seed=7,rate=1e-3");
}

TEST(FlagParser, BoolRejectsEqualsValue)
{
    FlagParser p;
    bool b = false;
    p.addBool("--quick", &b, "presence toggle");
    Argv a({"prog", "--quick=1"});
    EXPECT_FALSE(p.parse(a.argc(), a.argv()));
    EXPECT_FALSE(b);
}

TEST(FlagParser, EqualsSyntaxRejectsMalformedNumber)
{
    FlagParser p;
    u32 n = 0;
    double x = 0.0;
    p.addUint("--n", &n, "a number");
    p.addDouble("--x", &x, "a real");
    Argv a({"prog", "--n=12abc"});
    EXPECT_FALSE(p.parse(a.argc(), a.argv()));
    Argv b({"prog", "--x="});
    EXPECT_FALSE(p.parse(b.argc(), b.argv()));
}

TEST(FlagParser, RejectsUnknownFlag)
{
    FlagParser p;
    bool flag = false;
    p.addBool("--known", &flag, "known flag");
    Argv a({"prog", "--unknown"});
    EXPECT_FALSE(p.parse(a.argc(), a.argv()));
}

TEST(FlagParser, RejectsMissingValue)
{
    FlagParser p;
    std::string s;
    p.addString("--out", &s, "output file", "FILE");
    Argv a({"prog", "--out"});
    EXPECT_FALSE(p.parse(a.argc(), a.argv()));
}

TEST(FlagParser, RejectsMalformedNumber)
{
    FlagParser p;
    u32 n = 0;
    p.addUint("--n", &n, "a number");
    Argv a({"prog", "--n", "12abc"});
    EXPECT_FALSE(p.parse(a.argc(), a.argv()));
}

TEST(FlagParser, RejectsPositionalArgument)
{
    FlagParser p;
    Argv a({"prog", "stray"});
    EXPECT_FALSE(p.parse(a.argc(), a.argv()));
}

TEST(FlagParser, UsageListsFlagsAndSummary)
{
    FlagParser p("the summary line");
    std::string s;
    u32 n = 0;
    bool b = false;
    p.addString("--out", &s, "output file", "FILE");
    p.addUint("--n", &n, "a number");
    p.addBool("--quick", &b, "skip the slow part");
    p.addThreadsFlag();

    std::ostringstream os;
    p.printUsage("prog", os);
    std::string usage = os.str();
    EXPECT_NE(usage.find("the summary line"), std::string::npos);
    EXPECT_NE(usage.find("--out FILE"), std::string::npos);
    EXPECT_NE(usage.find("--n N"), std::string::npos);
    EXPECT_NE(usage.find("[--quick]"), std::string::npos);
    EXPECT_NE(usage.find("--threads N"), std::string::npos);
    EXPECT_NE(usage.find("skip the slow part"), std::string::npos);
}

TEST(FlagParser, UsageNamesEachValueByItsMetavar)
{
    FlagParser p;
    std::string dir, spec, list;
    double x = 0.0;
    p.addString("--plan-cache", &dir, "schedule-cache directory", "DIR");
    p.addString("--fault-plan", &spec, "fault spec", "SPEC");
    p.addString("--rot-schemes", &list, "schemes to search", "LIST");
    p.addDouble("--deadline", &x, "budget in seconds");

    std::ostringstream os;
    p.printUsage("prog", os);
    const std::string usage = os.str();
    EXPECT_NE(usage.find("[--plan-cache DIR]"), std::string::npos);
    EXPECT_NE(usage.find("[--fault-plan SPEC]"), std::string::npos);
    EXPECT_NE(usage.find("[--rot-schemes LIST]"), std::string::npos);
    EXPECT_NE(usage.find("[--deadline X]"), std::string::npos);
    EXPECT_NE(usage.find("[--help]"), std::string::npos);
    EXPECT_EQ(usage.find("FILE"), std::string::npos);
}

TEST(FlagParserDeath, HelpPrintsUsageToStdoutAndExitsZero)
{
    FlagParser p("the summary line");
    std::string dir;
    p.addString("--plan-cache", &dir, "schedule-cache directory", "DIR");
    Argv a({"prog", "--plan-cache", "x", "--help", "--unknown"});
    // The matcher reads the child's stderr, so the child routes stdout
    // there and silences std::cerr: the usage is only matched if --help
    // printed it to stdout, and it exits 0 before reaching --unknown.
    EXPECT_EXIT(
        {
            std::cout.rdbuf(std::cerr.rdbuf());
            std::cerr.rdbuf(nullptr);
            p.parse(a.argc(), a.argv());
        },
        ::testing::ExitedWithCode(0),
        "usage: prog \\[--help\\] \\[--plan-cache DIR\\]");
}

TEST(FlagParser, HelpWithAValueIsAnUnknownFlag)
{
    FlagParser p;
    Argv a({"prog", "--help=1"});
    EXPECT_FALSE(p.parse(a.argc(), a.argv()));
}

TEST(DomainChecks, RequirePositiveDouble)
{
    EXPECT_NO_THROW(requirePositive("--rate", 0.5));
    EXPECT_THROW(requirePositive("--rate", 0.0), RecoverableError);
    EXPECT_THROW(requirePositive("--rate", -1.0), RecoverableError);
}

TEST(DomainChecks, RequirePositiveUint)
{
    EXPECT_NO_THROW(requirePositive("--tenants", 1u));
    EXPECT_NO_THROW(requirePositive("--tenants", 1000u));
    EXPECT_THROW(requirePositive("--tenants", 0u), RecoverableError);
}

TEST(DomainChecks, RequireNonNegativeDouble)
{
    EXPECT_NO_THROW(requireNonNegative("--plan-ms", 0.0));
    EXPECT_NO_THROW(requireNonNegative("--plan-ms", 3.5));
    EXPECT_THROW(requireNonNegative("--plan-ms", -0.1), RecoverableError);
}

TEST(DomainChecks, ErrorNamesTheOffendingFlag)
{
    try {
        requirePositive("--max-batch", 0u);
        FAIL() << "expected RecoverableError";
    } catch (const RecoverableError &e) {
        EXPECT_NE(std::string(e.what()).find("--max-batch"),
                  std::string::npos);
    }
    try {
        requirePositive("--arrival-rate", -2.0);
        FAIL() << "expected RecoverableError";
    } catch (const RecoverableError &e) {
        EXPECT_NE(std::string(e.what()).find("--arrival-rate"),
                  std::string::npos);
    }
}

}  // namespace
}  // namespace crophe::cli
