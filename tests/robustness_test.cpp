// Protocol robustness under randomized timing.
//
// The simulator is deterministic, so a single run only exercises one
// interleaving of every flag/buffer protocol. These tests enable core-
// overhead jitter and sweep seeds, re-verifying delivered bytes each time
// — a lightweight schedule fuzzer for the OC-Bcast, two-sided,
// scatter-allgather and one-sided s-ag protocols (deadlocks surface as
// stalled processes, races as corrupted payloads).
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <tuple>
#include <vector>

#include "core/ocreduce.h"
#include "harness/measurement.h"
#include "harness/parallel.h"
#include "rma/barrier.h"

namespace ocb {
namespace {

harness::BcastRunResult jittered_run(const char* name, int k,
                                     std::size_t lines, std::uint64_t seed,
                                     CoreId root = 0) {
  harness::BcastRunSpec spec;
  spec.algorithm_name = name;
  spec.params.k = k;
  spec.message_bytes = lines * kCacheLineBytes;
  spec.iterations = 2;
  spec.warmup = 1;
  spec.root = root;
  spec.config.jitter = 60 * sim::kNanosecond;
  spec.config.seed = seed;
  return run_broadcast(spec);
}

using Case = std::tuple<int, std::uint64_t>;  // algorithm index, seed
class JitterSweep : public ::testing::TestWithParam<Case> {};

struct SweepConfig {
  const char* name;
  int k;
};
constexpr SweepConfig kSweepConfigs[] = {
    {"ocbcast", 2},           {"ocbcast", 7},      {"ocbcast", 47},
    {"binomial", 0},          {"scatter-allgather", 0},
    {"onesided-sag", 0},      {"ft-ocbcast", 7},
};
constexpr std::uint64_t kSweepSeeds[] = {1, 2, 3, 4, 5};

// All (algorithm, seed) combos are independent chips; precompute the whole
// grid on the sweep pool the first time any combo is requested, then let
// each TEST_P assert on its slice.
const harness::BcastRunResult& sweep_result(int algo, std::uint64_t seed) {
  static const std::vector<harness::BcastRunResult> grid =
      harness::parallel_map(
          std::size(kSweepConfigs) * std::size(kSweepSeeds),
          [](std::size_t i) {
            const SweepConfig& cfg = kSweepConfigs[i / std::size(kSweepSeeds)];
            const std::uint64_t s = kSweepSeeds[i % std::size(kSweepSeeds)];
            return jittered_run(cfg.name, cfg.k == 0 ? 7 : cfg.k,
                                /*lines=*/210, s);
          });
  const std::size_t seed_idx = static_cast<std::size_t>(seed - kSweepSeeds[0]);
  return grid[static_cast<std::size_t>(algo) * std::size(kSweepSeeds) +
              seed_idx];
}

TEST_P(JitterSweep, ContentSurvivesScheduleNoise) {
  const auto [algo, seed] = GetParam();
  const harness::BcastRunResult& r = sweep_result(algo, seed);
  EXPECT_TRUE(r.content_ok);
  EXPECT_GT(r.latency_us.mean(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(AlgorithmsBySeed, JitterSweep,
                         ::testing::Combine(::testing::Range(0, 7),
                                            ::testing::Values(1u, 2u, 3u, 4u,
                                                              5u)));

TEST(JitterSweep, RotatedRootsUnderNoise) {
  for (std::uint64_t seed : {11u, 12u}) {
    for (CoreId root : {17, 47}) {
      EXPECT_TRUE(jittered_run("ocbcast", 7, 130, seed, root)
                      .content_ok)
          << "seed " << seed << " root " << root;
      EXPECT_TRUE(jittered_run("onesided-sag", 7, 130, seed, root)
                      .content_ok)
          << "seed " << seed << " root " << root;
    }
  }
}

TEST(JitterSweep, JitterOnlyAddsTime) {
  // Jitter is strictly non-negative, so a jittered run can never beat the
  // noise-free one.
  harness::BcastRunSpec spec;
  spec.message_bytes = 96 * kCacheLineBytes;
  spec.iterations = 2;
  const double clean = run_broadcast(spec).latency_us.mean();
  spec.config.jitter = 100 * sim::kNanosecond;
  for (std::uint64_t seed : {1u, 7u, 23u}) {
    spec.config.seed = seed;
    EXPECT_GT(run_broadcast(spec).latency_us.mean(), clean) << seed;
  }
}

// OC-Reduce under the same schedule fuzzing: every seed must produce the
// exact host-computed reduction at the root (sums of integers stored in
// doubles, so floating-point associativity cannot blur the comparison).
TEST(JitterSweep, ReduceSurvivesScheduleNoise) {
  constexpr std::size_t kCount = 512;  // 128 lines of doubles
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    scc::SccConfig cfg;
    cfg.jitter = 60 * sim::kNanosecond;
    cfg.seed = seed;
    scc::SccChip chip(cfg);
    core::OcReduce reduce(chip);
    std::vector<double> expected(kCount, 0.0);
    for (CoreId c = 0; c < kNumCores; ++c) {
      auto region = chip.memory(c).host_bytes(0, kCount * sizeof(double));
      for (std::size_t i = 0; i < kCount; ++i) {
        const double v = static_cast<double>((c * 131 + i * 17) % 1000);
        std::memcpy(region.data() + i * sizeof(double), &v, sizeof(double));
        expected[i] += v;
      }
    }
    const std::size_t out_off = kCount * sizeof(double);
    for (CoreId c = 0; c < kNumCores; ++c) {
      chip.spawn(c, [&reduce, out_off](scc::Core& me) -> sim::Task<void> {
        co_await reduce.run(me, 0, 0, out_off, kCount, core::ReduceOp::kSum);
      });
    }
    ASSERT_TRUE(chip.run().completed()) << "seed " << seed;
    auto result = chip.memory(0).host_bytes(out_off, kCount * sizeof(double));
    for (std::size_t i = 0; i < kCount; ++i) {
      double got;
      std::memcpy(&got, result.data() + i * sizeof(double), sizeof(double));
      ASSERT_EQ(got, expected[i]) << "seed " << seed << " element " << i;
    }
  }
}

// The RMA dissemination barrier under jitter: after any wait() returns,
// every other core must have arrived at that round — no core may slip
// through early no matter how the schedule lands.
TEST(JitterSweep, BarrierHoldsUnderScheduleNoise) {
  constexpr int kRounds = 6;
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    scc::SccConfig cfg;
    cfg.jitter = 80 * sim::kNanosecond;
    cfg.seed = seed;
    scc::SccChip chip(cfg);
    rma::FlagBarrier barrier(chip, 0, kNumCores);
    std::array<int, kRounds> arrived{};
    bool violated = false;
    for (CoreId c = 0; c < kNumCores; ++c) {
      chip.spawn(c, [&, c](scc::Core& me) -> sim::Task<void> {
        for (int r = 0; r < kRounds; ++r) {
          // Desynchronize arrivals (deterministically per core/round).
          co_await me.busy((static_cast<sim::Duration>(c) * 37 +
                            static_cast<sim::Duration>(r) * 101) %
                           (2 * sim::kMicrosecond));
          ++arrived[static_cast<std::size_t>(r)];
          co_await barrier.wait(me);
          if (arrived[static_cast<std::size_t>(r)] != kNumCores) {
            violated = true;
          }
        }
      });
    }
    ASSERT_TRUE(chip.run().completed()) << "seed " << seed;
    EXPECT_FALSE(violated) << "seed " << seed;
    for (int r = 0; r < kRounds; ++r) {
      EXPECT_EQ(arrived[static_cast<std::size_t>(r)], kNumCores);
    }
  }
}

TEST(JitterSweep, DistinctSeedsGiveDistinctSchedules) {
  harness::BcastRunSpec spec;
  spec.message_bytes = 50 * kCacheLineBytes;
  spec.iterations = 2;
  spec.config.jitter = 60 * sim::kNanosecond;
  spec.config.seed = 100;
  const double a = run_broadcast(spec).latency_us.mean();
  spec.config.seed = 101;
  const double b = run_broadcast(spec).latency_us.mean();
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace ocb
