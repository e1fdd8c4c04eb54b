// Tests for the OC-Reduce / OC-Allreduce extension.
#include <gtest/gtest.h>

#include <cstring>
#include <tuple>

#include "common/require.h"
#include "core/ocreduce.h"
#include "sim/condition.h"

namespace ocb::core {
namespace {

// Integer-valued doubles keep every operator exact regardless of
// combination order.
double input_value(CoreId core, std::size_t element) {
  return static_cast<double>((core * 37 + static_cast<int>(element) * 3) % 101) -
         50.0;
}

void seed_inputs(scc::SccChip& chip, int parties, std::size_t offset,
                 std::size_t count) {
  for (CoreId c = 0; c < parties; ++c) {
    auto w = chip.memory(c).host_bytes(offset, count * sizeof(double));
    for (std::size_t i = 0; i < count; ++i) {
      const double v = input_value(c, i);
      std::memcpy(w.data() + i * sizeof(double), &v, sizeof v);
    }
  }
}

double expected_value(ReduceOp op, int parties, std::size_t element) {
  double acc = input_value(0, element);
  for (CoreId c = 1; c < parties; ++c) {
    const double v = input_value(c, element);
    switch (op) {
      case ReduceOp::kSum:
        acc += v;
        break;
      case ReduceOp::kMin:
        acc = std::min(acc, v);
        break;
      case ReduceOp::kMax:
        acc = std::max(acc, v);
        break;
    }
  }
  return acc;
}

bool check_result(scc::SccChip& chip, CoreId where, std::size_t offset,
                  std::size_t count, ReduceOp op, int parties) {
  const auto r = chip.memory(where).host_bytes(offset, count * sizeof(double));
  for (std::size_t i = 0; i < count; ++i) {
    double v;
    std::memcpy(&v, r.data() + i * sizeof(double), sizeof v);
    if (v != expected_value(op, parties, i)) return false;
  }
  return true;
}

using Case = std::tuple<int, int, std::size_t, int>;  // parties, k, count, root
class OcReduceCases : public ::testing::TestWithParam<Case> {};

TEST_P(OcReduceCases, SumReachesRootExactly) {
  const auto [parties, k, count, root] = GetParam();
  scc::SccChip chip;
  OcReduceOptions opt;
  opt.parties = parties;
  opt.k = k;
  OcReduce reduce(chip, opt);
  seed_inputs(chip, parties, 0, count);
  for (CoreId c = 0; c < parties; ++c) {
    chip.spawn(c, [&, root, count](scc::Core& me) -> sim::Task<void> {
      co_await reduce.run(me, root, 0, 1 << 16, count, ReduceOp::kSum);
    });
  }
  ASSERT_TRUE(chip.run().completed());
  EXPECT_TRUE(check_result(chip, root, 1 << 16, count, ReduceOp::kSum, parties));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, OcReduceCases,
    ::testing::Values(
        // tiny and sub-line counts
        Case{48, 2, 1, 0}, Case{48, 2, 3, 0}, Case{48, 7, 4, 0},
        // one chunk, chunk boundary, multi-chunk pipeline
        Case{48, 2, 96 * 4, 0}, Case{48, 2, 96 * 4 + 1, 0}, Case{48, 2, 2000, 0},
        // fan-out sweep and rotated roots
        Case{48, 7, 800, 0}, Case{48, 47, 500, 0}, Case{48, 3, 500, 17},
        Case{48, 2, 777, 47},
        // small machines
        Case{2, 1, 100, 0}, Case{2, 1, 100, 1}, Case{5, 2, 333, 3},
        Case{12, 7, 1234, 5}));

TEST(OcReduce, MinAndMaxOperators) {
  for (ReduceOp op : {ReduceOp::kMin, ReduceOp::kMax}) {
    scc::SccChip chip;
    OcReduce reduce(chip, {});
    seed_inputs(chip, 48, 0, 500);
    for (CoreId c = 0; c < 48; ++c) {
      chip.spawn(c, [&](scc::Core& me) -> sim::Task<void> {
        co_await reduce.run(me, 0, 0, 1 << 16, 500, op);
      });
    }
    ASSERT_TRUE(chip.run().completed());
    EXPECT_TRUE(check_result(chip, 0, 1 << 16, 500, op, 48))
        << reduce_op_name(op);
  }
}

TEST(OcReduce, NonRootOutputUntouched) {
  scc::SccChip chip;
  OcReduce reduce(chip, {});
  seed_inputs(chip, 48, 0, 64);
  for (CoreId c = 0; c < 48; ++c) {
    chip.spawn(c, [&](scc::Core& me) -> sim::Task<void> {
      co_await reduce.run(me, 0, 0, 1 << 16, 64, ReduceOp::kSum);
    });
  }
  ASSERT_TRUE(chip.run().completed());
  const auto other = chip.memory(5).host_bytes(1 << 16, 64 * sizeof(double));
  for (std::byte b : other) EXPECT_EQ(b, std::byte{0});
}

TEST(OcReduce, BackToBackAndRotatedRoots) {
  scc::SccChip chip;
  OcReduce reduce(chip, {});
  const std::vector<CoreId> roots{0, 31, 7};
  constexpr std::size_t kCount = 900;  // multi-chunk
  seed_inputs(chip, 48, 0, kCount);
  for (CoreId c = 0; c < 48; ++c) {
    chip.spawn(c, [&](scc::Core& me) -> sim::Task<void> {
      for (std::size_t r = 0; r < roots.size(); ++r) {
        co_await reduce.run(me, roots[r], 0, (1 << 16) + r * 8192, kCount,
                            ReduceOp::kSum);
      }
    });
  }
  ASSERT_TRUE(chip.run().completed());
  for (std::size_t r = 0; r < roots.size(); ++r) {
    EXPECT_TRUE(check_result(chip, roots[r], (1 << 16) + r * 8192, kCount,
                             ReduceOp::kSum, 48))
        << "round " << r;
  }
}

TEST(OcReduce, LayoutValidation) {
  scc::SccChip chip;
  OcReduceOptions bad;
  bad.k = 47;
  bad.chunk_lines = 110;
  EXPECT_THROW(OcReduce(chip, bad), PreconditionError);
  OcReduceOptions ok;
  ok.k = 47;
  ok.chunk_lines = 96;
  EXPECT_NO_THROW(OcReduce(chip, ok));
  OcReduce r(chip, {});
  const TreeLayout& layout = r.layout();
  EXPECT_EQ(layout.notify_line(), 0u);  // consumedFlag
  EXPECT_EQ(layout.done_line(0), 1u);   // readyFlag[0]
  EXPECT_EQ(layout.buffer_line(0), 3u);  // k=2 default
  EXPECT_EQ(layout.buffer_line(1), 99u);
  EXPECT_THROW(layout.done_line(2), PreconditionError);
  EXPECT_EQ(layout.lines(), 3u + 2 * 96 + 6);
}

TEST(OcReduce, SmallFanoutBeatsLargeOnThroughput) {
  // A parent ingests k chunks per chunk it emits, so reduction throughput
  // favours small k — the opposite of broadcast's latency preference.
  auto elapsed = [](int k) {
    scc::SccChip chip;
    OcReduceOptions opt;
    opt.k = k;
    OcReduce reduce(chip, opt);
    constexpr std::size_t kCount = 4096;
    seed_inputs(chip, 48, 0, kCount);
    sim::Time last = 0;
    for (CoreId c = 0; c < 48; ++c) {
      chip.spawn(c, [&, &last = last](scc::Core& me) -> sim::Task<void> {
        co_await reduce.run(me, 0, 0, 1 << 20, kCount, ReduceOp::kSum);
        last = std::max(last, me.now());
      });
    }
    EXPECT_TRUE(chip.run().completed());
    return last;
  };
  EXPECT_LT(elapsed(2), elapsed(16));
}

TEST(OcAllreduce, EveryoneGetsTheResult) {
  scc::SccChip chip;
  OcAllreduce allreduce(chip, {});
  constexpr std::size_t kCount = 700;
  seed_inputs(chip, 48, 0, kCount);
  for (CoreId c = 0; c < 48; ++c) {
    chip.spawn(c, [&](scc::Core& me) -> sim::Task<void> {
      co_await allreduce.run(me, 0, 1 << 16, kCount, ReduceOp::kSum);
    });
  }
  ASSERT_TRUE(chip.run().completed());
  for (CoreId c = 0; c < 48; ++c) {
    EXPECT_TRUE(check_result(chip, c, 1 << 16, kCount, ReduceOp::kSum, 48)) << c;
  }
}

TEST(OcAllreduce, RepeatedCallsStaySound) {
  scc::SccChip chip;
  OcAllreduce allreduce(chip, {});
  constexpr std::size_t kCount = 300;
  seed_inputs(chip, 48, 0, kCount);
  for (CoreId c = 0; c < 48; ++c) {
    chip.spawn(c, [&](scc::Core& me) -> sim::Task<void> {
      for (int round = 0; round < 3; ++round) {
        co_await allreduce.run(me, 0, (1 << 16) + round * 4096, kCount,
                               ReduceOp::kMax);
      }
    });
  }
  ASSERT_TRUE(chip.run().completed());
  for (int round = 0; round < 3; ++round) {
    EXPECT_TRUE(check_result(chip, 23, (1 << 16) + round * 4096, kCount,
                             ReduceOp::kMax, 48))
        << round;
  }
}

TEST(OcReduce, ArgumentValidation) {
  scc::SccChip chip;
  OcReduce reduce(chip, {});
  bool empty = false, unaligned = false;
  chip.spawn(0, [&](scc::Core& me) -> sim::Task<void> {
    try {
      co_await reduce.run(me, 0, 0, 4096, 0, ReduceOp::kSum);
    } catch (const PreconditionError&) {
      empty = true;
    }
    try {
      co_await reduce.run(me, 0, 8, 4096, 4, ReduceOp::kSum);
    } catch (const PreconditionError&) {
      unaligned = true;
    }
  });
  ASSERT_TRUE(chip.run().completed());
  EXPECT_TRUE(empty);
  EXPECT_TRUE(unaligned);
}

}  // namespace
}  // namespace ocb::core
