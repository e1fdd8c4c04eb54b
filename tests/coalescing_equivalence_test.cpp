// The equivalence gate for the coalesced RMA fast path (scc/bulk.h).
//
// BulkOp's contract is *zero timestamp drift*: with coalescing on, every
// run must produce exactly the timeline the per-line reference path
// produces — same completion times, same per-iteration latencies, same
// delivered bytes — from never-more (busy chip: parity) and sometimes far
// fewer (quiescent chip: closed-form) engine events. These tests run the
// paper's collectives both ways and compare. If any fold in bulk.cpp ever
// becomes inexact, this is the suite that goes red.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/ocreduce.h"
#include "harness/measurement.h"
#include "rma/rma.h"
#include "scc/chip.h"

namespace ocb {
namespace {

harness::BcastRunResult run_with(const char* name, int k, bool coalescing,
                                 std::size_t lines) {
  harness::BcastRunSpec spec;
  spec.algorithm_name = name;
  spec.params.k = k;
  spec.message_bytes = lines * kCacheLineBytes;
  spec.iterations = 3;
  spec.warmup = 1;
  spec.config.coalescing = coalescing;
  return harness::run_broadcast(spec);
}

void expect_equivalent(const char* name, int k, std::size_t lines) {
  const harness::BcastRunResult on = run_with(name, k, true, lines);
  const harness::BcastRunResult off = run_with(name, k, false, lines);

  // Identical timeline: the final simulated instant and every measured
  // iteration latency agree to the picosecond.
  EXPECT_EQ(on.end_time, off.end_time);
  ASSERT_EQ(on.latency_us.count(), off.latency_us.count());
  for (std::size_t i = 0; i < on.latency_us.count(); ++i) {
    EXPECT_DOUBLE_EQ(on.latency_us.samples()[i], off.latency_us.samples()[i])
        << "iteration " << i;
  }

  // Identical payloads (run_broadcast byte-compares every delivery).
  EXPECT_TRUE(on.content_ok);
  EXPECT_TRUE(off.content_ok);

  // On a busy chip the fast path keeps event parity with the reference
  // (required for exactness — see scc/bulk.h); only quiescent ops collapse
  // events, so never more, sometimes fewer.
  EXPECT_LE(on.events, off.events);

  // The on arm really coalesced, with nothing spilling per-line.
  EXPECT_GT(on.counters.bulk_ops, 0u);
  EXPECT_EQ(on.counters.bulk_fallback_ops, 0u);
  EXPECT_EQ(off.counters.bulk_ops, 0u);
}

TEST(CoalescingEquivalence, OcBcast) {
  expect_equivalent("ocbcast", 7, 210);
}

TEST(CoalescingEquivalence, FtOcBcastWithoutFaults) {
  // FT-OC-Bcast's checksummed transfers are plain rma/rma.h operations, so
  // its payload coalesces and its checksums are folded on the fast path.
  expect_equivalent("ft-ocbcast", 7, 130);
}

TEST(CoalescingEquivalence, ScatterAllgather) {
  expect_equivalent("scatter-allgather", 7, 192);
}

// The quiescent closed-form regime: a single actor on an otherwise idle
// chip must produce the per-line timeline from roughly one event per op
// instead of ~8 per line.
TEST(CoalescingEquivalence, QuiescentOpsCollapseEvents) {
  sim::Time end_time[2] = {0, 0};
  std::uint64_t events[2] = {0, 0};
  for (int arm = 0; arm < 2; ++arm) {
    scc::SccConfig cfg;
    cfg.coalescing = arm == 0;
    scc::SccChip chip(cfg);
    chip.spawn(5, [](scc::Core& me) -> sim::Task<void> {
      for (int rep = 0; rep < 4; ++rep) {
        co_await rma::put_mpb_to_mpb(me, rma::MpbAddr{30, 0}, 0, 64);
        co_await rma::get_mpb_to_mem(me, 64 * kCacheLineBytes * rep,
                                     rma::MpbAddr{30, 0}, 64);
      }
    });
    const sim::RunResult run = chip.run();
    ASSERT_TRUE(run.completed());
    end_time[arm] = run.end_time;
    events[arm] = run.events_processed;
  }
  EXPECT_EQ(end_time[0], end_time[1]);
  EXPECT_LT(events[0] * 10, events[1]);  // at least 10x fewer events
}

// OC-Reduce is not covered by run_broadcast: drive a chip pair by hand and
// compare the end-of-run clock plus the root's reduced output bytes.
TEST(CoalescingEquivalence, OcReduce) {
  constexpr std::size_t kCount = 256;  // 64 lines of doubles
  const std::size_t out_off = kCount * sizeof(double);

  sim::Time end_time[2] = {0, 0};
  std::uint64_t events[2] = {0, 0};
  std::vector<std::byte> output[2];
  for (int arm = 0; arm < 2; ++arm) {
    scc::SccConfig cfg;
    cfg.coalescing = arm == 0;
    scc::SccChip chip(cfg);
    core::OcReduce reduce(chip);
    for (CoreId c = 0; c < kNumCores; ++c) {
      auto region = chip.memory(c).host_bytes(0, kCount * sizeof(double));
      for (std::size_t i = 0; i < kCount; ++i) {
        const double v = static_cast<double>((c * 977 + i * 31) % 4096);
        std::memcpy(region.data() + i * sizeof(double), &v, sizeof(double));
      }
    }
    for (CoreId c = 0; c < kNumCores; ++c) {
      chip.spawn(c, [&reduce, out_off](scc::Core& me) -> sim::Task<void> {
        co_await reduce.run(me, 0, 0, out_off, kCount, core::ReduceOp::kSum);
      });
    }
    const sim::RunResult run = chip.run();
    ASSERT_TRUE(run.completed());
    end_time[arm] = run.end_time;
    events[arm] = run.events_processed;
    const auto got = chip.memory(0).host_bytes(out_off, kCount * sizeof(double));
    output[arm].assign(got.begin(), got.end());
  }
  EXPECT_EQ(end_time[0], end_time[1]);
  EXPECT_EQ(output[0], output[1]);
  EXPECT_LE(events[0], events[1]);
}

}  // namespace
}  // namespace ocb
