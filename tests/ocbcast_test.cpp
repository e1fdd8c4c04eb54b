// Tests for the OC-Bcast algorithm: delivery correctness across fan-outs,
// roots, sizes and option combinations; layout validation; pipelining
// sanity; back-to-back broadcasts.
#include <gtest/gtest.h>

#include <tuple>
#include <utility>

#include "core/ocbcast.h"
#include "sim/condition.h"

namespace ocb::core {
namespace {

void seed(scc::SccChip& chip, CoreId core, std::size_t offset, std::size_t bytes,
          std::uint64_t salt) {
  auto w = chip.memory(core).host_bytes(offset, bytes);
  for (std::size_t i = 0; i < bytes; ++i) {
    w[i] = static_cast<std::byte>((i * 131 + salt * 17 + (i >> 7)) & 0xff);
  }
}

bool delivered(scc::SccChip& chip, CoreId root, int parties, std::size_t offset,
               std::size_t bytes) {
  const auto want = chip.memory(root).host_bytes(offset, bytes);
  for (CoreId c = 0; c < parties; ++c) {
    if (c == root) continue;
    const auto got = chip.memory(c).host_bytes(offset, bytes);
    if (!std::equal(want.begin(), want.end(), got.begin())) return false;
  }
  return true;
}

/// Runs one broadcast for every core, returns true if it completed and
/// delivered correct bytes everywhere.
bool run_bcast(const coll::Params& opt, CoreId root, std::size_t bytes) {
  scc::SccChip chip;
  OcBcast bcast(chip, opt);
  seed(chip, root, 0, bytes, 42);
  for (CoreId c = 0; c < bcast.parties(); ++c) {
    chip.spawn(c, [&bcast, root, bytes](scc::Core& me) -> sim::Task<void> {
      co_await bcast.run(me, root, 0, bytes);
    });
  }
  if (!chip.run().completed()) return false;
  return delivered(chip, root, bcast.parties(), 0, bytes);
}

using Case = std::tuple<int, int, std::size_t>;  // parties, k, bytes
class OcBcastDelivery : public ::testing::TestWithParam<Case> {};

TEST_P(OcBcastDelivery, DeliversExactBytes) {
  const auto [parties, k, bytes] = GetParam();
  coll::Params opt;
  opt.parties = parties;
  opt.k = k;
  EXPECT_TRUE(run_bcast(opt, /*root=*/0, bytes));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, OcBcastDelivery,
    ::testing::Values(
        // sub-line and line-boundary sizes
        Case{48, 7, 1}, Case{48, 7, 31}, Case{48, 7, 32}, Case{48, 7, 33},
        // around the 96-line chunk boundary (the Fig. 8b dip)
        Case{48, 7, 95 * 32}, Case{48, 7, 96 * 32}, Case{48, 7, 97 * 32},
        Case{48, 7, 192 * 32}, Case{48, 7, 193 * 32},
        // multi-chunk pipeline
        Case{48, 7, 1000 * 32},
        // the paper's other fan-outs
        Case{48, 2, 96 * 32}, Case{48, 2, 500 * 32}, Case{48, 47, 96 * 32},
        Case{48, 47, 300 * 32},
        // small machines and extreme fan-outs
        Case{2, 1, 64}, Case{5, 4, 320}, Case{12, 7, 4000}, Case{48, 1, 128},
        Case{48, 24, 96 * 32}));

class OcBcastRoots : public ::testing::TestWithParam<int> {};

TEST_P(OcBcastRoots, AnyRootWorks) {
  coll::Params opt;
  opt.k = 7;
  EXPECT_TRUE(run_bcast(opt, /*root=*/GetParam(), 5000));
}

INSTANTIATE_TEST_SUITE_P(Roots, OcBcastRoots, ::testing::Values(0, 1, 7, 23, 47));

TEST(OcBcast, SingleBufferModeDelivers) {
  coll::Params opt;
  opt.double_buffering = false;
  EXPECT_TRUE(run_bcast(opt, 0, 400 * 32));
}

TEST(OcBcast, SequentialNotificationDelivers) {
  coll::Params opt;
  opt.sequential_notification = true;
  opt.k = 47;
  EXPECT_TRUE(run_bcast(opt, 0, 300 * 32));
}

TEST(OcBcast, BinaryNotificationBeatsSequentialAtHighFanout) {
  // §4.1: "sequential notification could impair performance especially if
  // k is large"; the binary tree parallelizes the flag writes.
  auto latency = [](bool sequential) {
    coll::Params opt;
    opt.k = 47;
    opt.sequential_notification = sequential;
    scc::SccChip chip;
    OcBcast bcast(chip, opt);
    seed(chip, 0, 0, 32, 3);
    sim::Time last = 0;
    for (CoreId c = 0; c < bcast.parties(); ++c) {
      chip.spawn(c, [&bcast, &last](scc::Core& me) -> sim::Task<void> {
        co_await bcast.run(me, 0, 0, 32);
        last = std::max(last, me.now());
      });
    }
    EXPECT_TRUE(chip.run().completed());
    return last;
  };
  EXPECT_LT(latency(false), latency(true));
}

TEST(OcBcast, LeafDirectModeDelivers) {
  coll::Params opt;
  opt.leaf_direct_to_memory = true;
  EXPECT_TRUE(run_bcast(opt, 0, 300 * 32));
}

TEST(OcBcast, DoubleBufferingImprovesMediumMessageLatency) {
  // The paper's §4.2 comparison at a fixed MPB budget: without double
  // buffering chunks are a full MPB buffer (192 lines, one buffer); with
  // it, two 96-line buffers pipeline at half the granularity. For
  // messages of 1..2 chunks, the finer pipeline wins on latency.
  auto latency = [](bool db, std::size_t bytes) {
    coll::Params opt;
    opt.double_buffering = db;
    opt.chunk_lines = db ? 96 : 192;
    scc::SccChip chip;
    OcBcast bcast(chip, opt);
    seed(chip, 0, 0, bytes, 7);
    sim::Time last = 0;
    for (CoreId c = 0; c < bcast.parties(); ++c) {
      chip.spawn(c, [&bcast, &last, bytes](scc::Core& me) -> sim::Task<void> {
        co_await bcast.run(me, 0, 0, bytes);
        last = std::max(last, me.now());
      });
    }
    EXPECT_TRUE(chip.run().completed());
    return last;
  };
  for (std::size_t lines : {150u, 192u, 384u}) {
    EXPECT_LT(latency(true, lines * 32), latency(false, lines * 32))
        << lines << " lines";
  }
}

TEST(OcBcast, PeakThroughputInsensitiveToBuffering) {
  // Formula 15 has no buffering term: steady-state throughput is bound by
  // each core's serial per-chunk copy time. Reproduction finding: the
  // double-buffering benefit is latency (above), not peak throughput.
  auto elapsed = [](bool db) {
    coll::Params opt;
    opt.double_buffering = db;
    opt.chunk_lines = db ? 96 : 192;
    scc::SccChip chip;
    OcBcast bcast(chip, opt);
    const std::size_t bytes = 4096 * 32;
    seed(chip, 0, 0, bytes, 7);
    sim::Time last = 0;
    for (CoreId c = 0; c < bcast.parties(); ++c) {
      chip.spawn(c, [&bcast, &last, bytes](scc::Core& me) -> sim::Task<void> {
        co_await bcast.run(me, 0, 0, bytes);
        last = std::max(last, me.now());
      });
    }
    EXPECT_TRUE(chip.run().completed());
    return static_cast<double>(last);
  };
  const double with_db = elapsed(true);
  const double without_db = elapsed(false);
  EXPECT_NEAR(with_db / without_db, 1.0, 0.10);
}

TEST(OcBcast, LeafDirectIsFasterForLeaves) {
  auto latency = [](bool direct) {
    coll::Params opt;
    opt.leaf_direct_to_memory = direct;
    scc::SccChip chip;
    OcBcast bcast(chip, opt);
    const std::size_t bytes = 96 * 32;
    seed(chip, 0, 0, bytes, 9);
    sim::Time last = 0;
    for (CoreId c = 0; c < bcast.parties(); ++c) {
      chip.spawn(c, [&bcast, &last, bytes](scc::Core& me) -> sim::Task<void> {
        co_await bcast.run(me, 0, 0, bytes);
        last = std::max(last, me.now());
      });
    }
    EXPECT_TRUE(chip.run().completed());
    return last;
  };
  EXPECT_LT(latency(true), latency(false))
      << "§5.4: skipping the leaf staging copy must help";
}

TEST(OcBcast, BackToBackBroadcastsStaySound) {
  scc::SccChip chip;
  coll::Params opt;
  OcBcast bcast(chip, opt);
  constexpr int kRounds = 6;
  constexpr std::size_t kBytes = 130 * 32;  // two chunks (96 + 34)
  for (int r = 0; r < kRounds; ++r) seed(chip, 0, r * kBytes, kBytes, r);
  for (CoreId c = 0; c < bcast.parties(); ++c) {
    chip.spawn(c, [&bcast](scc::Core& me) -> sim::Task<void> {
      for (int r = 0; r < kRounds; ++r) {
        co_await bcast.run(me, 0, static_cast<std::size_t>(r) * kBytes, kBytes);
      }
    });
  }
  ASSERT_TRUE(chip.run().completed());
  for (int r = 0; r < kRounds; ++r) {
    EXPECT_TRUE(delivered(chip, 0, bcast.parties(), r * kBytes, kBytes)) << "round " << r;
  }
}

TEST(OcBcast, AlternatingRootsStaySound) {
  scc::SccChip chip;
  coll::Params opt;
  OcBcast bcast(chip, opt);
  const std::vector<CoreId> roots{0, 17, 47, 3};
  constexpr std::size_t kBytes = 200 * 32;
  for (std::size_t r = 0; r < roots.size(); ++r) {
    seed(chip, roots[r], r * kBytes, kBytes, 100 + r);
  }
  for (CoreId c = 0; c < bcast.parties(); ++c) {
    chip.spawn(c, [&bcast, &roots](scc::Core& me) -> sim::Task<void> {
      for (std::size_t r = 0; r < roots.size(); ++r) {
        co_await bcast.run(me, roots[r], r * kBytes, kBytes);
      }
    });
  }
  ASSERT_TRUE(chip.run().completed());
  for (std::size_t r = 0; r < roots.size(); ++r) {
    EXPECT_TRUE(delivered(chip, roots[r], bcast.parties(), r * kBytes, kBytes))
        << "root " << roots[r];
  }
}

TEST(OcBcast, LayoutValidation) {
  scc::SccChip chip;
  coll::Params too_big;
  too_big.k = 47;
  too_big.chunk_lines = 110;  // 48 flags + 220 lines > 256
  EXPECT_THROW(OcBcast(chip, too_big), PreconditionError);

  coll::Params k_too_large;
  k_too_large.k = 48;
  EXPECT_THROW(OcBcast(chip, k_too_large), PreconditionError);

  coll::Params fits;  // k=7: 8 flags + 192 buffer lines = 200
  EXPECT_NO_THROW(OcBcast(chip, fits));

  coll::Params max_k;  // k=47: 48 flags + 192 = 240
  max_k.k = 47;
  EXPECT_NO_THROW(OcBcast(chip, max_k));
}

TEST(OcBcast, LayoutLines) {
  scc::SccChip chip;
  coll::Params opt;  // k = 7, die_k = 4, chunks of 96, base 0
  // Over the die-aware tree the die leaders' done slots follow the k
  // intra-die ones: D = k + die_k.
  for (const auto& [tree, done_slots] :
       {std::pair{OcBcast::Tree::kKary, std::size_t{7}},
        std::pair{OcBcast::Tree::kDieAware, std::size_t{11}}}) {
    const OcBcast bcast(chip, opt, tree);
    const TreeLayout& layout = bcast.layout();
    EXPECT_EQ(layout.notify_line(), 0u);
    EXPECT_EQ(layout.done_line(0), 1u);
    EXPECT_EQ(layout.done_line(static_cast<int>(done_slots) - 1), done_slots);
    EXPECT_THROW(layout.done_line(static_cast<int>(done_slots)),
                 PreconditionError);
    EXPECT_EQ(layout.buffer_line(0), 1 + done_slots);
    EXPECT_EQ(layout.buffer_line(1), 1 + done_slots + 96);
    EXPECT_THROW(layout.buffer_line(2), PreconditionError);
    EXPECT_THROW(layout.staged_line(0), PreconditionError);
    EXPECT_EQ(layout.fence_line(), 1 + done_slots + 2 * 96);
    EXPECT_EQ(layout.lines(), 1 + done_slots + 2 * 96 + 6);  // 6 rounds for 48
  }
}

TEST(OcBcast, NonParticipantRejected) {
  scc::SccChip chip;
  coll::Params opt;
  opt.parties = 4;
  opt.k = 2;
  OcBcast bcast(chip, opt);
  bool threw = false;
  chip.spawn(10, [&](scc::Core& me) -> sim::Task<void> {
    try {
      co_await bcast.run(me, 0, 0, 32);
    } catch (const PreconditionError&) {
      threw = true;
    }
  });
  ASSERT_TRUE(chip.run().completed());
  EXPECT_TRUE(threw);
}

TEST(OcBcast, NamesDescribeOptions) {
  scc::SccChip chip;
  coll::Params opt;
  EXPECT_EQ(OcBcast(chip, opt).name(), "oc-bcast k=7");
  opt.double_buffering = false;
  EXPECT_NE(OcBcast(chip, opt).name().find("single-buffer"), std::string::npos);
  opt = coll::Params{};
  opt.leaf_direct_to_memory = true;
  EXPECT_NE(OcBcast(chip, opt).name().find("leaf-direct"), std::string::npos);
}

TEST(OcBcast, PipelineLatencyScalesSubLinearlyWithDepth) {
  // With pipelining, latency(2n chunks) << 2 * latency(n chunks) + const;
  // concretely the marginal per-chunk cost must be well below the
  // first-chunk cost for a deep message.
  auto latency = [](std::size_t lines) {
    coll::Params opt;
    scc::SccChip chip;
    OcBcast bcast(chip, opt);
    seed(chip, 0, 0, lines * 32, 1);
    sim::Time last = 0;
    for (CoreId c = 0; c < bcast.parties(); ++c) {
      chip.spawn(c, [&bcast, &last, lines](scc::Core& me) -> sim::Task<void> {
        co_await bcast.run(me, 0, 0, lines * 32);
        last = std::max(last, me.now());
      });
    }
    EXPECT_TRUE(chip.run().completed());
    return last;
  };
  const sim::Time one = latency(96);
  const sim::Time ten = latency(960);
  EXPECT_LT(ten, 10 * one) << "pipelining must amortize the tree depth";
}

}  // namespace
}  // namespace ocb::core
