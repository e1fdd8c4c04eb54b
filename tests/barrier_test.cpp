// Unit tests for the dissemination flag barrier.
#include <gtest/gtest.h>

#include <algorithm>

#include "rma/barrier.h"

namespace ocb::rma {
namespace {

TEST(FlagBarrier, RoundCounts) {
  scc::SccChip chip;
  EXPECT_EQ(FlagBarrier(chip, 0, 2).rounds(), 1);
  EXPECT_EQ(FlagBarrier(chip, 0, 3).rounds(), 2);
  EXPECT_EQ(FlagBarrier(chip, 0, 4).rounds(), 2);
  EXPECT_EQ(FlagBarrier(chip, 0, 48).rounds(), 6);
  EXPECT_EQ(FlagBarrier(chip, 0, 1).rounds(), 0);
}

TEST(FlagBarrier, LayoutValidation) {
  scc::SccChip chip;
  EXPECT_THROW(FlagBarrier(chip, 253, 48), PreconditionError);  // needs 6 lines
  EXPECT_NO_THROW(FlagBarrier(chip, 250, 48));
  EXPECT_THROW(FlagBarrier(chip, 0, 49), PreconditionError);
  EXPECT_THROW(FlagBarrier(chip, 0, -1), PreconditionError);
  // 0 is every core of the chip.
  EXPECT_EQ(FlagBarrier(chip, 0, 0).parties(), kNumCores);
}

TEST(FlagBarrier, NobodyPassesBeforeLastArrives) {
  scc::SccChip chip;
  FlagBarrier barrier(chip, 0, 48);
  // Core 13 arrives 100 us after everyone else; nobody may leave earlier.
  constexpr sim::Duration kLate = 100 * sim::kMicrosecond;
  std::vector<sim::Time> exit_time(kNumCores, 0);
  for (CoreId c = 0; c < kNumCores; ++c) {
    chip.spawn(c, [&, c](scc::Core& me) -> sim::Task<void> {
      if (c == 13) co_await me.busy(kLate);
      co_await barrier.wait(me);
      exit_time[static_cast<std::size_t>(c)] = me.now();
    });
  }
  ASSERT_TRUE(chip.run().completed());
  for (sim::Time t : exit_time) EXPECT_GE(t, kLate);
}

TEST(FlagBarrier, ReusableAcrossEpochsWithStaggeredArrivals) {
  scc::SccChip chip;
  FlagBarrier barrier(chip, 0, 48);
  constexpr int kEpochs = 5;
  // latest_arrival[e] = the latest arrival time at barrier e;
  // exits must all be >= it.
  std::vector<sim::Time> latest_arrival(kEpochs, 0);
  std::vector<std::vector<sim::Time>> exits(
      kEpochs, std::vector<sim::Time>(kNumCores, 0));
  for (CoreId c = 0; c < kNumCores; ++c) {
    chip.spawn(c, [&, c](scc::Core& me) -> sim::Task<void> {
      for (int e = 0; e < kEpochs; ++e) {
        // Different straggler every epoch.
        const sim::Duration stagger =
            static_cast<sim::Duration>(((c * 7 + e * 13) % 48)) *
            sim::kMicrosecond;
        co_await me.busy(stagger);
        latest_arrival[static_cast<std::size_t>(e)] =
            std::max(latest_arrival[static_cast<std::size_t>(e)], me.now());
        co_await barrier.wait(me);
        exits[static_cast<std::size_t>(e)][static_cast<std::size_t>(c)] = me.now();
      }
    });
  }
  ASSERT_TRUE(chip.run().completed());
  for (int e = 0; e < kEpochs; ++e) {
    for (sim::Time t : exits[static_cast<std::size_t>(e)]) {
      EXPECT_GE(t, latest_arrival[static_cast<std::size_t>(e)]) << "epoch " << e;
    }
  }
}

TEST(FlagBarrier, SubsetOfCores) {
  scc::SccChip chip;
  constexpr int kParties = 5;
  FlagBarrier barrier(chip, 0, kParties);
  std::vector<sim::Time> exit_time(kParties, 0);
  for (CoreId c = 0; c < kParties; ++c) {
    chip.spawn(c, [&, c](scc::Core& me) -> sim::Task<void> {
      co_await me.busy(static_cast<sim::Duration>(c) * 10 * sim::kMicrosecond);
      co_await barrier.wait(me);
      exit_time[static_cast<std::size_t>(c)] = me.now();
    });
  }
  ASSERT_TRUE(chip.run().completed());
  for (sim::Time t : exit_time) EXPECT_GE(t, 40u * sim::kMicrosecond);
}

TEST(FlagBarrier, NonPartyRejected) {
  scc::SccChip chip;
  FlagBarrier barrier(chip, 0, 4);
  bool threw = false;
  chip.spawn(7, [&](scc::Core& me) -> sim::Task<void> {
    try {
      co_await barrier.wait(me);
    } catch (const PreconditionError&) {
      threw = true;
    }
  });
  ASSERT_TRUE(chip.run().completed());
  EXPECT_TRUE(threw);
}

TEST(FlagBarrier, SinglePartyIsNoOp) {
  scc::SccChip chip;
  FlagBarrier barrier(chip, 0, 1);
  bool done = false;
  chip.spawn(0, [&](scc::Core& me) -> sim::Task<void> {
    co_await barrier.wait(me);
    done = true;
  });
  ASSERT_TRUE(chip.run().completed());
  EXPECT_TRUE(done);
}

}  // namespace
}  // namespace ocb::rma
