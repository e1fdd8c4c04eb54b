// Thread-count environment variable semantics (harness/parallel.h).
//
// OCB_SWEEP_THREADS: unset and "0" mean the hardware default, malformed
// values warn once and fall back to that same default, positive integers
// are taken literally. Regression: "0" used to be malformed and silently
// clamped to 1 worker instead of matching unset.
#include <gtest/gtest.h>

#include <cstdlib>
#include <thread>

#include "harness/parallel.h"

namespace {

using namespace ocb::harness;
using detail::EnvParse;
using detail::parse_thread_env;

unsigned hardware_default() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? hw : 1;
}

class EnvVars : public ::testing::Test {
 protected:
  void SetUp() override { unsetenv("OCB_SWEEP_THREADS"); }
  void TearDown() override { unsetenv("OCB_SWEEP_THREADS"); }
};

TEST(EnvParseGrammar, Classification) {
  unsigned v = 0;
  EXPECT_EQ(parse_thread_env(nullptr, v), EnvParse::kUnset);
  EXPECT_EQ(parse_thread_env("0", v), EnvParse::kZero);
  EXPECT_EQ(parse_thread_env("1", v), EnvParse::kValue);
  EXPECT_EQ(v, 1u);
  EXPECT_EQ(parse_thread_env("48", v), EnvParse::kValue);
  EXPECT_EQ(v, 48u);

  // Everything that is not a plain nonnegative decimal integer is
  // malformed: empty, words, trailing garbage (the old stol parse accepted
  // "7abc" as 7), signs, and values beyond unsigned range.
  EXPECT_EQ(parse_thread_env("", v), EnvParse::kMalformed);
  EXPECT_EQ(parse_thread_env("abc", v), EnvParse::kMalformed);
  EXPECT_EQ(parse_thread_env("7abc", v), EnvParse::kMalformed);
  EXPECT_EQ(parse_thread_env("-3", v), EnvParse::kMalformed);
  EXPECT_EQ(parse_thread_env(" 4", v), EnvParse::kMalformed);
  EXPECT_EQ(parse_thread_env("99999999999999999999", v), EnvParse::kMalformed);
}

TEST_F(EnvVars, SweepZeroMatchesUnset) {
  const unsigned unset_value = sweep_threads();
  EXPECT_EQ(unset_value, hardware_default());
  ASSERT_EQ(setenv("OCB_SWEEP_THREADS", "0", /*overwrite=*/1), 0);
  EXPECT_EQ(sweep_threads(), unset_value);
}

TEST_F(EnvVars, SweepMalformedFallsBackToDefault) {
  ASSERT_EQ(setenv("OCB_SWEEP_THREADS", "not-a-number", /*overwrite=*/1), 0);
  EXPECT_EQ(sweep_threads(), hardware_default());
}

TEST_F(EnvVars, SweepExplicitValueWins) {
  ASSERT_EQ(setenv("OCB_SWEEP_THREADS", "3", /*overwrite=*/1), 0);
  EXPECT_EQ(sweep_threads(), 3u);
}

}  // namespace
