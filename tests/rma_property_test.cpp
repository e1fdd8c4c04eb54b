// Exhaustive RMA property sweeps: for EVERY router distance and a grid of
// sizes, the simulated completion time of each op kind must equal its
// Figure 2 formula exactly, and moved bytes must survive bit-for-bit with
// random payloads.
#include <gtest/gtest.h>

#include <tuple>

#include "common/rng.h"
#include "harness/measurement.h"
#include "model/primitives.h"
#include "rma/flags.h"
#include "rma/rma.h"

namespace ocb {
namespace {

using Case = std::tuple<int, std::size_t>;  // distance, lines
class RmaTimingSweep : public ::testing::TestWithParam<Case> {};

TEST_P(RmaTimingSweep, AllFourOpsMatchTheModelExactly) {
  const auto [d, lines] = GetParam();
  const model::ModelParams p = model::ModelParams::paper();
  scc::SccConfig cfg;
  cfg.cache_enabled = false;
  const auto [actor, target] = harness::core_pair_at_mpb_distance(d);

  EXPECT_DOUBLE_EQ(
      harness::measure_op_completion_us(cfg, harness::OpKind::kGetMpbToMpb, actor,
                                        target, lines, 2),
      sim::to_us(model::get_to_mpb_completion(p, lines, d)));
  EXPECT_DOUBLE_EQ(
      harness::measure_op_completion_us(cfg, harness::OpKind::kPutMpbToMpb, actor,
                                        target, lines, 2),
      sim::to_us(model::put_from_mpb_completion(p, lines, d)));

  if (d <= 4) {
    const CoreId c = harness::core_at_mem_distance(d);
    EXPECT_DOUBLE_EQ(
        harness::measure_op_completion_us(cfg, harness::OpKind::kPutMemToMpb, c, c,
                                          lines, 2),
        sim::to_us(model::put_from_mem_completion(p, lines, d, 1)));
    EXPECT_DOUBLE_EQ(
        harness::measure_op_completion_us(cfg, harness::OpKind::kGetMpbToMem, c, c,
                                          lines, 2),
        sim::to_us(model::get_to_mem_completion(p, lines, 1, d)));
  }
}

INSTANTIATE_TEST_SUITE_P(DistancesTimesSizes, RmaTimingSweep,
                         ::testing::Combine(::testing::Range(1, 10),
                                            ::testing::Values(1, 2, 3, 5, 8, 16,
                                                              32, 96)));

// Random-payload integrity through a put+get round trip across the chip.
class RmaIntegritySweep : public ::testing::TestWithParam<int> {};

TEST_P(RmaIntegritySweep, RandomBytesSurviveRoundTrip) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  Xoshiro256 rng(seed);
  scc::SccChip chip;
  const auto src = static_cast<CoreId>(rng.next_below(kNumCores));
  auto dst = static_cast<CoreId>(rng.next_below(kNumCores));
  if (dst == src) dst = (dst + 1) % kNumCores;
  const auto via = static_cast<CoreId>(rng.next_below(kNumCores));
  const std::size_t lines = 1 + rng.next_below(96);
  const std::size_t bytes = lines * kCacheLineBytes;

  auto w = chip.memory(src).host_bytes(0, bytes);
  for (auto& b : w) b = static_cast<std::byte>(rng.next() & 0xff);

  // src: memory -> via's MPB; dst: via's MPB -> memory.
  bool src_done = false;
  chip.spawn(src, [&, via, lines](scc::Core& me) -> sim::Task<void> {
    co_await rma::put_mem_to_mpb(me, rma::MpbAddr{via, 10}, 0, lines);
    co_await rma::set_flag(me, rma::MpbAddr{dst, 0}, 1);
    src_done = true;
  });
  chip.spawn(dst, [&, via, lines](scc::Core& me) -> sim::Task<void> {
    co_await rma::wait_flag_at_least(me, rma::MpbAddr{me.id(), 0}, 1);
    co_await rma::get_mpb_to_mem(me, 4096, rma::MpbAddr{via, 10}, lines);
  });
  ASSERT_TRUE(chip.run().completed());
  EXPECT_TRUE(src_done);
  const auto got = chip.memory(dst).host_bytes(4096, bytes);
  const auto want = chip.memory(src).host_bytes(0, bytes);
  EXPECT_TRUE(std::equal(want.begin(), want.end(), got.begin()))
      << "seed " << seed << " src " << src << " dst " << dst << " via " << via;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RmaIntegritySweep, ::testing::Range(0, 24));

// Broadcast delivery for every legal fan-out.
class OcBcastFanoutSweep : public ::testing::TestWithParam<int> {};

TEST_P(OcBcastFanoutSweep, EveryFanoutDelivers) {
  const int k = GetParam();
  harness::BcastRunSpec spec;
  spec.params.k = k;
  spec.message_bytes = 200 * kCacheLineBytes;
  spec.iterations = 1;
  spec.warmup = 0;
  const harness::BcastRunResult r = run_broadcast(spec);
  EXPECT_TRUE(r.content_ok) << "k=" << k;
  EXPECT_GT(r.latency_us.mean(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllFanouts, OcBcastFanoutSweep, ::testing::Range(1, 48));

}  // namespace
}  // namespace ocb
