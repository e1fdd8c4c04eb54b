// Tests for the RCCE_comm baseline broadcasts (binomial tree and
// scatter-allgather) and the algorithm factory.
#include <gtest/gtest.h>

#include <tuple>

#include "coll/registry.h"
#include "core/binomial.h"
#include "core/scatter_allgather.h"

namespace ocb::core {
namespace {

void seed(scc::SccChip& chip, CoreId core, std::size_t offset, std::size_t bytes,
          std::uint64_t salt) {
  auto w = chip.memory(core).host_bytes(offset, bytes);
  for (std::size_t i = 0; i < bytes; ++i) {
    w[i] = static_cast<std::byte>((i * 37 + salt) & 0xff);
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

bool run_spec(const std::string& name, int parties, CoreId root,
              std::size_t bytes) {
  scc::SccChip chip;
  auto algo = coll::make(name, chip, {.parties = parties});
  seed(chip, root, 0, bytes, 5);
  for (CoreId c = 0; c < parties; ++c) {
    chip.spawn(c, [&algo, root, bytes](scc::Core& me) -> sim::Task<void> {
      co_await algo->run(me, root, 0, bytes);
    });
  }
  if (!chip.run().completed()) return false;
  return delivered(chip, root, parties, 0, bytes);
}

using Case = std::tuple<int, std::size_t, int>;  // parties, bytes, root
class BinomialDelivery : public ::testing::TestWithParam<Case> {};

TEST_P(BinomialDelivery, DeliversExactBytes) {
  const auto [parties, bytes, root] = GetParam();
  EXPECT_TRUE(run_spec("binomial", parties, root, bytes));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BinomialDelivery,
    ::testing::Values(Case{2, 32, 0}, Case{2, 32, 1}, Case{3, 100, 2},
                      Case{48, 1, 0}, Case{48, 32, 0}, Case{48, 8192, 0},
                      Case{48, 8192, 31}, Case{48, 251 * 32, 0},
                      Case{48, 251 * 32 + 5, 7}, Case{48, 64 * 1024, 0},
                      Case{17, 1000, 16}, Case{32, 4096, 15}));

class ScatterAllgatherDelivery : public ::testing::TestWithParam<Case> {};

TEST_P(ScatterAllgatherDelivery, DeliversExactBytes) {
  const auto [parties, bytes, root] = GetParam();
  EXPECT_TRUE(run_spec("scatter-allgather", parties, root, bytes));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ScatterAllgatherDelivery,
    ::testing::Values(
        // fewer lines than cores: empty tail slices everywhere
        Case{48, 32, 0}, Case{48, 10 * 32, 0},
        // typical and boundary sizes
        Case{48, 48 * 32, 0}, Case{48, 96 * 32, 0}, Case{48, 3072 * 32, 0},
        Case{48, 3072 * 32 + 9, 0},
        // rotated roots
        Case{48, 5000, 5}, Case{48, 5000, 47},
        // odd and non-power-of-two rings (parity ordering edge cases)
        Case{3, 300, 0}, Case{5, 555, 3}, Case{17, 1700, 9}, Case{33, 3300, 32},
        // two cores: degenerate ring
        Case{2, 100, 0}, Case{2, 100, 1}));

TEST(Baselines, AllThreeAlgorithmsAgreeOnDeliveredBytes) {
  const std::size_t bytes = 777 * 32 + 3;
  std::vector<std::vector<std::byte>> results;
  for (const char* name : {"ocbcast", "binomial", "scatter-allgather"}) {
    scc::SccChip chip;
    auto algo = coll::make(name, chip);
    seed(chip, 0, 0, bytes, 123);
    for (CoreId c = 0; c < algo->parties(); ++c) {
      chip.spawn(c, [&algo, bytes](scc::Core& me) -> sim::Task<void> {
        co_await algo->run(me, 0, 0, bytes);
      });
    }
    ASSERT_TRUE(chip.run().completed());
    ASSERT_TRUE(delivered(chip, 0, algo->parties(), 0, bytes));
    const auto got = chip.memory(47).host_bytes(0, bytes);
    results.emplace_back(got.begin(), got.end());
  }
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(results[1], results[2]);
}

TEST(Baselines, BinomialLatencyBeatsScatterAllgatherForSmallMessages) {
  // §6.2 premise: binomial wins small, s-ag wins large.
  auto latency = [](const char* name, std::size_t bytes) {
    scc::SccChip chip;
    auto algo = coll::make(name, chip);
    seed(chip, 0, 0, bytes, 1);
    sim::Time last = 0;
    for (CoreId c = 0; c < algo->parties(); ++c) {
      chip.spawn(c, [&algo, &last, bytes](scc::Core& me) -> sim::Task<void> {
        co_await algo->run(me, 0, 0, bytes);
        last = std::max(last, me.now());
      });
    }
    EXPECT_TRUE(chip.run().completed());
    return last;
  };
  EXPECT_LT(latency("binomial", 32), latency("scatter-allgather", 32));
  EXPECT_GT(latency("binomial", 2048 * 32),
            latency("scatter-allgather", 2048 * 32));
}

TEST(Baselines, FactoryProducesNamedAlgorithms) {
  scc::SccChip chip;
  EXPECT_EQ(coll::make("ocbcast", chip, {.k = 47})->name(), "oc-bcast k=47");
  EXPECT_EQ(coll::make("binomial", chip)->name(), "binomial");
  EXPECT_EQ(coll::make("scatter-allgather", chip)->name(), "scatter-allgather");
}

TEST(Baselines, PartiesBoundsChecked) {
  scc::SccChip chip;
  EXPECT_THROW(BinomialBcast(chip, {.parties = 1}), PreconditionError);
  EXPECT_THROW(ScatterAllgatherBcast(chip, {.parties = 49}), PreconditionError);
}

TEST(Baselines, BinomialBackToBackBroadcasts) {
  scc::SccChip chip;
  auto algo = coll::make("binomial", chip);
  constexpr std::size_t kBytes = 300 * 32;
  for (int r = 0; r < 3; ++r) seed(chip, 0, r * kBytes, kBytes, r + 9);
  for (CoreId c = 0; c < algo->parties(); ++c) {
    chip.spawn(c, [&algo](scc::Core& me) -> sim::Task<void> {
      for (int r = 0; r < 3; ++r) {
        co_await algo->run(me, 0, static_cast<std::size_t>(r) * kBytes, kBytes);
      }
    });
  }
  ASSERT_TRUE(chip.run().completed());
  for (int r = 0; r < 3; ++r) {
    EXPECT_TRUE(delivered(chip, 0, algo->parties(), r * kBytes, kBytes));
  }
}

}  // namespace
}  // namespace ocb::core
