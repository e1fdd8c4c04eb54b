// Tests for inter-core interrupts and the parallel IPI notification tree.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/require.h"
#include "core/ipi_notifier.h"
#include "scc/chip.h"

namespace ocb {
namespace {

TEST(Interrupts, DeliveryWakesWaiter) {
  scc::SccChip chip;
  sim::Time woken_at = 0, sent_at = 0;
  chip.spawn(0, [&](scc::Core& me) -> sim::Task<void> {
    co_await me.busy(10 * sim::kMicrosecond);
    sent_at = me.now();
    co_await me.send_interrupt(47);
  });
  chip.spawn(47, [&](scc::Core& me) -> sim::Task<void> {
    co_await me.wait_interrupt();
    woken_at = me.now();
  });
  ASSERT_TRUE(chip.run().completed());
  const scc::SccConfig cfg;
  // Wake = sender overhead + d hops + service + handler entry.
  EXPECT_GT(woken_at, sent_at);
  EXPECT_GE(woken_at - sent_at, cfg.o_irq_entry);
  EXPECT_LT(woken_at - sent_at, cfg.o_irq_entry + 1 * sim::kMicrosecond);
}

TEST(Interrupts, SendCompletionMatchesCostModel) {
  scc::SccChip chip;
  sim::Duration elapsed = 0;
  chip.spawn(0, [&](scc::Core& me) -> sim::Task<void> {
    const sim::Time t0 = me.now();
    co_await me.send_interrupt(47);  // d = 9
    elapsed = me.now() - t0;
  });
  chip.spawn(47, [](scc::Core& me) -> sim::Task<void> {
    co_await me.wait_interrupt();
  });
  ASSERT_TRUE(chip.run().completed());
  const scc::SccConfig cfg;
  EXPECT_EQ(elapsed, cfg.o_ipi_send + 18 * cfg.l_hop + cfg.t_ipi_service);
}

TEST(Interrupts, CountedNotCoalesced) {
  scc::SccChip chip;
  int taken = 0;
  chip.spawn(1, [&](scc::Core& me) -> sim::Task<void> {
    for (int i = 0; i < 3; ++i) co_await me.send_interrupt(2);
  });
  chip.spawn(2, [&](scc::Core& me) -> sim::Task<void> {
    // Give all three time to land, then drain.
    co_await me.busy(50 * sim::kMicrosecond);
    EXPECT_EQ(me.interrupts_pending(), 3);
    for (int i = 0; i < 3; ++i) {
      co_await me.wait_interrupt();
      ++taken;
    }
  });
  ASSERT_TRUE(chip.run().completed());
  EXPECT_EQ(taken, 3);
}

TEST(Interrupts, PollConsumesAtMostOne) {
  scc::SccChip chip;
  bool first = false, second = false, third = false;
  chip.spawn(1, [](scc::Core& me) -> sim::Task<void> {
    co_await me.send_interrupt(2);
  });
  chip.spawn(2, [&](scc::Core& me) -> sim::Task<void> {
    co_await me.busy(20 * sim::kMicrosecond);
    first = co_await me.poll_interrupt();
    second = co_await me.poll_interrupt();
    third = me.interrupts_pending() == 0;
  });
  ASSERT_TRUE(chip.run().completed());
  EXPECT_TRUE(first);
  EXPECT_FALSE(second);
  EXPECT_TRUE(third);
}

TEST(Interrupts, UnservedInterruptLeavesWaiterStalled) {
  scc::SccChip chip;
  chip.spawn(5, [](scc::Core& me) -> sim::Task<void> { co_await me.wait_interrupt(); });
  const sim::RunResult r = chip.run();
  EXPECT_EQ(r.stalled_processes, 1u);
}

TEST(IpiNotifier, WakesEveryCoreExactlyOnce) {
  scc::SccChip chip;
  core::IpiNotifier notifier(chip);
  EXPECT_EQ(notifier.parties(), kNumCores);
  std::array<int, kNumCores> woken{};
  std::array<sim::Time, kNumCores> when{};
  chip.spawn(0, [&](scc::Core& me) -> sim::Task<void> {
    co_await me.busy(5 * sim::kMicrosecond);
    co_await notifier.notify(me);
  });
  for (CoreId c = 1; c < kNumCores; ++c) {
    chip.spawn(c, [&](scc::Core& me) -> sim::Task<void> {
      co_await notifier.await(me, 0);
      ++woken[static_cast<std::size_t>(me.id())];
      when[static_cast<std::size_t>(me.id())] = me.now();
    });
  }
  ASSERT_TRUE(chip.run().completed());
  for (CoreId c = 1; c < kNumCores; ++c) {
    EXPECT_EQ(woken[static_cast<std::size_t>(c)], 1) << c;
    EXPECT_EQ(chip.core(c).interrupts_pending(), 0) << c;
  }
  // log2 depth: the last wake should land within ~depth * (send + handler).
  const sim::Time last = *std::max_element(when.begin() + 1, when.end());
  const scc::SccConfig cfg;
  EXPECT_LT(last, 5 * sim::kMicrosecond +
                      7 * (cfg.o_irq_entry + cfg.o_ipi_send + 200 * sim::kNanosecond));
}

TEST(IpiNotifier, TryAwaitInterleavesWithCompute) {
  scc::SccChip chip;
  core::IpiNotifier notifier(chip, 8);
  std::array<int, 8> quanta{};
  chip.spawn(0, [&](scc::Core& me) -> sim::Task<void> {
    co_await me.busy(200 * sim::kMicrosecond);
    co_await notifier.notify(me);
  });
  for (CoreId c = 1; c < 8; ++c) {
    chip.spawn(c, [&](scc::Core& me) -> sim::Task<void> {
      for (;;) {
        const bool woken = co_await notifier.try_await(me, 0);
        if (woken) break;
        co_await me.busy(10 * sim::kMicrosecond);
        ++quanta[static_cast<std::size_t>(me.id())];
      }
    });
  }
  ASSERT_TRUE(chip.run().completed());
  for (CoreId c = 1; c < 8; ++c) {
    EXPECT_GT(quanta[static_cast<std::size_t>(c)], 10)
        << "worker " << c << " must have computed while waiting";
  }
}

TEST(IpiNotifier, RejectsBadArguments) {
  scc::SccChip chip;
  EXPECT_THROW(core::IpiNotifier(chip, 1), PreconditionError);
  // The party count is bounded by the chip the notifier wakes.
  EXPECT_THROW(core::IpiNotifier(chip, 49), PreconditionError);
  core::IpiNotifier notifier(chip, 4);
  bool threw = false;
  chip.spawn(0, [&](scc::Core& me) -> sim::Task<void> {
    try {
      co_await notifier.await(me, 0);  // root may not await itself
    } catch (const PreconditionError&) {
      threw = true;
    }
  });
  ASSERT_TRUE(chip.run().completed());
  EXPECT_TRUE(threw);
}

}  // namespace
}  // namespace ocb
