#include "src/common/flags.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace pdsp {
namespace {

/// Parses `args` (argv[0] excluded) and returns whether parsing succeeded;
/// whatever the parser printed lands in *err.
bool ParseArgs(const FlagTable& table, std::vector<const char*> args,
               std::vector<std::string>* positionals, std::string* err) {
  args.insert(args.begin(), "prog");
  testing::internal::CaptureStderr();
  const bool ok = table.Parse(static_cast<int>(args.size()), args.data(),
                              positionals);
  *err = testing::internal::GetCapturedStderr();
  return ok;
}

TEST(ParseNumberTest, ReadsWholeStringsOnly) {
  int i = 7;
  EXPECT_TRUE(ParseNumber("-42", &i));
  EXPECT_EQ(i, -42);
  EXPECT_FALSE(ParseNumber("12abc", &i));
  EXPECT_FALSE(ParseNumber("", &i));
  EXPECT_FALSE(ParseNumber(" 1", &i));
  EXPECT_EQ(i, -42);  // untouched on failure
}

TEST(ParseNumberTest, RejectsOutOfRangeAndNonFinite) {
  int i = 0;
  EXPECT_FALSE(ParseNumber("2147483648", &i));
  EXPECT_TRUE(ParseNumber("2147483647", &i));
  uint64_t u = 0;
  EXPECT_FALSE(ParseNumber("-1", &u));
  EXPECT_TRUE(ParseNumber("18446744073709551615", &u));
  EXPECT_EQ(u, std::numeric_limits<uint64_t>::max());
  EXPECT_FALSE(ParseNumber("18446744073709551616", &u));
  double d = 0.0;
  EXPECT_FALSE(ParseNumber("inf", &d));
  EXPECT_FALSE(ParseNumber("nan", &d));
  EXPECT_FALSE(ParseNumber("1e999", &d));
  EXPECT_TRUE(ParseNumber("1e300", &d));
  EXPECT_DOUBLE_EQ(d, 1e300);
}

TEST(FlagTableTest, ReadsSwitchesValuesAndCommaLists) {
  bool json = false;
  int nodes = 10;
  double rate = 1.0;
  uint64_t seed = 42;
  std::string name = "m510";
  std::vector<int> degrees = {8};
  const FlagTable table{"prog", 0,
                        {{"json", &json, "print JSON"},
                         {"nodes", &nodes, "N", "cluster size"},
                         {"rate", &rate, "N", "event rate"},
                         {"seed", &seed, "N", "seed"},
                         {"cluster", &name, "NAME", "cluster"},
                         {"parallelism", &degrees, "N[,N...]", "degrees"}}};
  std::string err;
  ASSERT_TRUE(ParseArgs(table,
                        {"--json", "--nodes=4", "--rate=2.5", "--seed=7",
                         "--cluster=c6525", "--parallelism=2,8,32"},
                        nullptr, &err))
      << err;
  EXPECT_TRUE(json);
  EXPECT_EQ(nodes, 4);
  EXPECT_DOUBLE_EQ(rate, 2.5);
  EXPECT_EQ(seed, 7u);
  EXPECT_EQ(name, "c6525");
  EXPECT_EQ(degrees, (std::vector<int>{2, 8, 32}));
  EXPECT_TRUE(err.empty()) << err;
}

TEST(FlagTableTest, OptionalValueFlags) {
  double hz = 97.0;
  bool given = false;
  const FlagTable table{"prog", 0,
                        {{"profile", &hz, "HZ", "cadence", &given}}};
  std::string err;
  ASSERT_TRUE(ParseArgs(table, {"--profile"}, nullptr, &err)) << err;
  EXPECT_TRUE(given);
  EXPECT_DOUBLE_EQ(hz, 97.0);  // bare: keeps the default

  given = false;
  ASSERT_TRUE(ParseArgs(table, {"--profile=250"}, nullptr, &err)) << err;
  EXPECT_TRUE(given);
  EXPECT_DOUBLE_EQ(hz, 250.0);

  // An empty number is malformed; an empty string value is just empty.
  EXPECT_FALSE(ParseArgs(table, {"--profile="}, nullptr, &err));
  EXPECT_NE(err.find("--profile"), std::string::npos) << err;

  std::string mode = "rich";
  bool progress = false;
  const FlagTable text_table{
      "prog", 0, {{"progress", &mode, "MODE", "mode", &progress}}};
  ASSERT_TRUE(ParseArgs(text_table, {"--progress="}, nullptr, &err)) << err;
  EXPECT_TRUE(progress);
  EXPECT_EQ(mode, "");
}

TEST(FlagTableTest, MalformedValueNamesTheFlagWithoutUsage) {
  int nodes = 10;
  uint64_t seed = 42;
  double rate = 1.0;
  std::vector<int> degrees = {8};
  const FlagTable table{"prog", 0,
                        {{"nodes", &nodes, "N", "cluster size"},
                         {"seed", &seed, "N", "seed"},
                         {"rate", &rate, "N", "event rate"},
                         {"parallelism", &degrees, "N[,N...]", "degrees"}}};
  const std::vector<std::vector<const char*>> bad = {
      {"--nodes=4abc"},          {"--nodes=99999999999"},
      {"--seed=-1"},             {"--rate=inf"},
      {"--rate=nan"},            {"--parallelism=2,4x"},
      {"--parallelism=2,,4"},
  };
  for (const auto& args : bad) {
    std::string err;
    EXPECT_FALSE(ParseArgs(table, args, nullptr, &err)) << args[0];
    const std::string flag =
        std::string(args[0]).substr(0, std::string(args[0]).find('='));
    EXPECT_NE(err.find("for " + flag), std::string::npos) << err;
    EXPECT_EQ(err.find("usage:"), std::string::npos) << err;
  }
  EXPECT_EQ(nodes, 10);
  EXPECT_EQ(seed, 42u);
}

TEST(FlagTableTest, UsageErrorsPrintTheUsage) {
  bool json = false;
  int nodes = 10;
  const FlagTable table{"prog <target>", 1,
                        {{"json", &json, "print JSON"},
                         {"nodes", &nodes, "N", "cluster size"}}};
  const std::vector<std::vector<const char*>> bad = {
      {"--frob"},      // unknown flag
      {"--json=1"},    // a switch given a value
      {"--nodes"},     // a valued flag without its value
      {"-n"},          // not a --flag
      {"a", "b"},      // a positional beyond the maximum
  };
  for (const auto& args : bad) {
    std::string err;
    std::vector<std::string> positionals;
    EXPECT_FALSE(ParseArgs(table, args, &positionals, &err)) << args[0];
    EXPECT_NE(err.find("usage: prog <target>"), std::string::npos) << err;
  }
}

TEST(FlagTableTest, CollectsPositionalsAndLastValueWins) {
  int nodes = 10;
  std::string name;
  const FlagTable table{"prog <a> <b>", 2,
                        {{"nodes", &nodes, "N", "cluster size"},
                         {"name", &name, "S", "name"}}};
  std::vector<std::string> positionals;
  std::string err;
  ASSERT_TRUE(ParseArgs(table,
                        {"first", "--nodes=3", "--name=x", "second",
                         "--nodes=5", "--name=y"},
                        &positionals, &err))
      << err;
  EXPECT_EQ(positionals, (std::vector<std::string>{"first", "second"}));
  EXPECT_EQ(nodes, 5);
  EXPECT_EQ(name, "y");
}

TEST(FlagTableTest, UsageListsEachFlagOnce) {
  bool json = false;
  int nodes = 10;
  double hz = 97.0;
  bool profile = false;
  std::string ledger;
  std::vector<int> degrees = {8};
  const FlagTable table{"prog <target>", 1,
                        {{"json", &json, "print JSON"},
                         {"nodes", &nodes, "N", "cluster size"},
                         {"profile", &hz, "HZ", "sample CPU", &profile},
                         {"ledger", &ledger, "PATH", "run ledger"},
                         {"parallelism", &degrees, "N[,N...]", "degrees"}}};
  testing::internal::CaptureStderr();
  EXPECT_EQ(table.Usage(), 2);
  const std::string usage = testing::internal::GetCapturedStderr();
  EXPECT_EQ(usage.rfind("usage: prog <target>\n", 0), 0u) << usage;
  for (const char* line :
       {"  --json                  print JSON\n",
        "  --nodes=N               cluster size\n",
        "  --profile[=HZ]          sample CPU\n",
        "  --ledger=PATH           run ledger\n",
        "  --parallelism=N[,N...]  degrees\n"}) {
    const size_t at = usage.find(line);
    ASSERT_NE(at, std::string::npos) << line << usage;
    EXPECT_EQ(usage.find(line, at + 1), std::string::npos) << line;
  }
  EXPECT_EQ(std::count(usage.begin(), usage.end(), '\n'), 6) << usage;
}

}  // namespace
}  // namespace pdsp
