// Unit tests for the shared bench argument parsing (bench/bench_util.h).
//
// The regression pinned here: `--json=path 32` used to push "--json=path"
// into positional[0], where a bench's count argument would std::atoi it to
// 0 and silently acquire nothing. Both flag spellings must now parse in
// any position, and a malformed count must be a loud usage error (exit 2),
// never a silent zero.

#include "bench/bench_util.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace lpa {
namespace {

/// argv adapter: keeps the strings alive and hands out mutable char*.
class Argv {
 public:
  explicit Argv(std::vector<std::string> words) : words_(std::move(words)) {
    for (std::string& w : words_) ptrs_.push_back(w.data());
  }
  int argc() const { return static_cast<int>(ptrs_.size()); }
  char** argv() { return ptrs_.data(); }

 private:
  std::vector<std::string> words_;
  std::vector<char*> ptrs_;
};

bench::BenchArgs parse(std::vector<std::string> words) {
  words.insert(words.begin(), "bench_under_test");
  Argv a(std::move(words));
  return bench::parseBenchArgs(a.argc(), a.argv());
}

TEST(ParseBenchArgs, SeparateValueFlagsInAnyPosition) {
  const auto args =
      parse({"--json", "r.json", "32", "--trace", "t.json", "--progress"});
  EXPECT_EQ(args.jsonPath, "r.json");
  EXPECT_EQ(args.tracePath, "t.json");
  EXPECT_TRUE(args.progress);
  ASSERT_EQ(args.positional.size(), 1u);
  EXPECT_EQ(args.positional[0], "32");
}

TEST(ParseBenchArgs, EqualsFormDoesNotLeakIntoPositionals) {
  // The historical misparse: "--json=r.json" fell through to positional[0]
  // and the count argument shifted/was swallowed.
  const auto args = parse({"--json=r.json", "32"});
  EXPECT_EQ(args.jsonPath, "r.json");
  ASSERT_EQ(args.positional.size(), 1u);
  EXPECT_EQ(args.positional[0], "32");

  const auto flipped = parse({"16", "--trace=t.json", "--json=r.json"});
  EXPECT_EQ(flipped.jsonPath, "r.json");
  EXPECT_EQ(flipped.tracePath, "t.json");
  ASSERT_EQ(flipped.positional.size(), 1u);
  EXPECT_EQ(flipped.positional[0], "16");
}

TEST(ParseBenchArgs, EqualsFormAllowsEmptyAndPathsWithEquals) {
  EXPECT_EQ(parse({"--json="}).jsonPath, "");
  EXPECT_EQ(parse({"--json=a=b.json"}).jsonPath, "a=b.json");
}

TEST(PositionalCount, ParsesAndFallsBack) {
  const auto args = parse({"--json=r.json", "48"});
  EXPECT_EQ(bench::positionalCount(args, 0, 64, "tracesPerClass"), 48u);
  EXPECT_EQ(bench::positionalCount(args, 1, 64, "other"), 64u)
      << "absent positional uses the fallback";
  EXPECT_EQ(bench::positionalCount(parse({}), 0, 7, "count"), 7u);
}

using ParseBenchArgsDeath = ::testing::Test;

TEST(ParseBenchArgsDeath, MissingFlagValueExitsLoudly) {
  EXPECT_EXIT(parse({"--json"}), ::testing::ExitedWithCode(2),
              "--json requires a path argument");
  EXPECT_EXIT(parse({"32", "--trace"}), ::testing::ExitedWithCode(2),
              "--trace requires a path argument");
}

TEST(ParseBenchArgsDeath, MalformedCountExitsInsteadOfSilentZero) {
  const auto stray = parse({"--jsn=typo.json", "32"});
  ASSERT_EQ(stray.positional.size(), 2u) << "unknown flags pass through";
  EXPECT_EXIT(bench::positionalCount(stray, 0, 64, "tracesPerClass"),
              ::testing::ExitedWithCode(2),
              "bad tracesPerClass argument: \"--jsn=typo.json\"");

  EXPECT_EXIT(bench::positionalCount(parse({"12x"}), 0, 1, "count"),
              ::testing::ExitedWithCode(2), "bad count argument: \"12x\"");
  EXPECT_EXIT(bench::positionalCount(parse({"99999999999"}), 0, 1, "count"),
              ::testing::ExitedWithCode(2), "expected a count");
}

TEST(ParseBenchArgs, LingerTakesFiniteSecondsInBothSpellings) {
  EXPECT_EQ(parse({"--linger", "2.5"}).lingerSec, 2.5);
  EXPECT_EQ(parse({"--linger=0"}).lingerSec, 0.0);
  EXPECT_EQ(parse({"--linger=86400"}).lingerSec, 86400.0);
}

TEST(ParseBenchArgsDeath, BadLingerExitsInsteadOfSleepingWrong) {
  // inf and 1e300 would overflow sleep_for's conversion to integer ticks.
  for (const char* bad : {"abc", "-1", "inf", "1e300", "", "5s"}) {
    EXPECT_EXIT(parse({"--linger", bad}), ::testing::ExitedWithCode(2),
                "bad --linger seconds")
        << bad;
  }
  EXPECT_EXIT(parse({"--linger=inf"}), ::testing::ExitedWithCode(2),
              "bad --linger seconds");
  EXPECT_EXIT(parse({"--linger=86401"}), ::testing::ExitedWithCode(2),
              "bad --linger seconds");
}

TEST(ParseBenchArgsDeath, BadListenPortExits) {
  EXPECT_EQ(parse({"--listen=9187"}).listenPort, 9187);
  for (const char* bad : {"--listen=65536", "--listen=abc", "--listen=",
                          "--listen=-1"}) {
    EXPECT_EXIT(parse({bad}), ::testing::ExitedWithCode(2),
                "bad --listen port")
        << bad;
  }
}

}  // namespace
}  // namespace lpa

