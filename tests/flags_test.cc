// Tests of common/flags — the --key=value parser behind cqad,
// cqa_client and cqa_cli: argument shapes, unknown keys, and the strict
// numeric getters (complete parses only, no negative counts, ports in
// 0-65535).

#include "common/flags.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace cqa {
namespace {

/// Parses `args` as if they followed a program name.
Flags ParseOrDie(std::vector<std::string> args) {
  std::vector<char*> argv = {const_cast<char*>("prog")};
  for (std::string& a : args) argv.push_back(a.data());
  Flags flags;
  EXPECT_TRUE(flags.Parse(static_cast<int>(argv.size()), argv.data(), 1));
  return flags;
}

TEST(FlagsTest, ParsesKeyValuePairsAndRejectsOtherShapes) {
  Flags flags = ParseOrDie({"--host=127.0.0.1", "--query=Q(X) :- r(X, Y).",
                            "--empty=", "--host=::1"});
  EXPECT_EQ(flags.Get("host", ""), "::1");  // Last one wins.
  EXPECT_EQ(flags.Get("query", ""), "Q(X) :- r(X, Y).");
  EXPECT_TRUE(flags.Has("empty"));
  EXPECT_EQ(flags.Get("empty", "x"), "");
  EXPECT_EQ(flags.Get("absent", "fallback"), "fallback");
  EXPECT_FALSE(flags.Has("absent"));

  for (const char* bad : {"port=1", "-port=1", "--port"}) {
    char prog[] = "prog";
    std::string arg = bad;
    char* argv[] = {prog, arg.data()};
    Flags rejected;
    EXPECT_FALSE(rejected.Parse(2, argv, 1)) << bad;
  }
}

TEST(FlagsTest, ValidateKeysNamesUnknownFlags) {
  Flags flags = ParseOrDie({"--port=1", "--prot=2"});
  EXPECT_TRUE(flags.ValidateKeys({"port", "prot"}));
  ::testing::internal::CaptureStderr();
  EXPECT_FALSE(flags.ValidateKeys({"port"}));
  EXPECT_EQ(::testing::internal::GetCapturedStderr(),
            "error: unknown flag --prot\n");
  flags.command = "query";
  ::testing::internal::CaptureStderr();
  EXPECT_FALSE(flags.ValidateKeys({"port"}));
  EXPECT_EQ(::testing::internal::GetCapturedStderr(),
            "error: unknown flag --prot for command query\n");
}

TEST(FlagsTest, GoodNumbersParseAndAbsentOnesFallBack) {
  Flags flags = ParseOrDie({"--eps=0.05", "--sci=1e-3", "--neg=-2.5",
                            "--workers=8", "--seed=18446744073709551615",
                            "--port=0", "--top=65535"});
  EXPECT_DOUBLE_EQ(flags.GetDouble("eps", 1), 0.05);
  EXPECT_DOUBLE_EQ(flags.GetDouble("sci", 1), 1e-3);
  EXPECT_DOUBLE_EQ(flags.GetDouble("neg", 1), -2.5);
  EXPECT_EQ(flags.GetCount("workers", 1), 8u);
  EXPECT_EQ(flags.GetCount("seed", 1), 18446744073709551615ull);
  EXPECT_EQ(flags.GetPort("port", 9), 0);
  EXPECT_EQ(flags.GetPort("top", 9), 65535);
  EXPECT_DOUBLE_EQ(flags.GetDouble("absent", 4.5), 4.5);
  EXPECT_EQ(flags.GetCount("absent", 3), 3u);
  EXPECT_EQ(flags.GetPort("absent", -1), -1);
  EXPECT_TRUE(flags.ok());
}

// Each bad value prints its own error, clears ok(), and yields the
// fallback — never a wrapped or partially parsed number.
TEST(FlagsTest, BadNumbersAreRejectedByName) {
  struct Case {
    std::string arg;
    char kind;  // d = GetDouble, c = GetCount, p = GetPort.
  };
  const std::vector<Case> cases = {
      {"--x=abc", 'd'},  {"--x=", 'd'},       {"--x=1.5s", 'd'},
      {"--x=nan", 'd'},  {"--x=inf", 'd'},    {"--x=1e999", 'd'},
      {"--x=-1", 'c'},   {"--x=2.5", 'c'},    {"--x= 3", 'c'},
      {"--x=+3", 'c'},   {"--x=", 'c'},       {"--x=99999999999999999999", 'c'},
      {"--x=-5", 'p'},   {"--x=abc", 'p'},    {"--x=65536", 'p'},
      {"--x=80x", 'p'},
  };
  for (const Case& c : cases) {
    Flags flags = ParseOrDie({c.arg});
    ::testing::internal::CaptureStderr();
    if (c.kind == 'd') {
      EXPECT_DOUBLE_EQ(flags.GetDouble("x", 7.0), 7.0) << c.arg;
    } else if (c.kind == 'c') {
      EXPECT_EQ(flags.GetCount("x", 7), 7u) << c.arg;
    } else {
      EXPECT_EQ(flags.GetPort("x", 7), 7) << c.arg;
    }
    EXPECT_EQ(::testing::internal::GetCapturedStderr(),
              "error: bad value for --x\n")
        << c.arg;
    EXPECT_FALSE(flags.ok()) << c.arg;
  }
}

}  // namespace
}  // namespace cqa
