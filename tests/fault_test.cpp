// Fault injection + FT-OC-Bcast acceptance tests.
//
// Covers the ocb::fault subsystem end to end: injector determinism
// (identical plan + seed => bit-identical timeline), each fault class in
// isolation (transient read corruption, stuck flag lines, core stalls,
// fail-stop crashes), the >=20-seed crash+corruption sweep where every
// surviving core must deliver byte-correct payloads, the control arm
// showing the plain protocol corrupting silently under the same faults,
// and the <5% zero-fault overhead budget of the FT hardening. Every case
// that runs FT-OC-Bcast or a fault-free plan also asserts zero races: the
// count is 0 unless a checker is installed (check_races or OCB_CHECK, as
// in `ctest --preset checked`), and then it is real. The plain control arm
// under corruption races by design (a corrupted flag read acquires a value
// nobody released), so it asserts none.
#include <gtest/gtest.h>

#include <vector>

#include "coll/registry.h"
#include "common/stats.h"
#include "core/ft_ocbcast.h"
#include "fault/injector.h"
#include "harness/fault_sweep.h"
#include "harness/measurement.h"
#include "noc/topology.h"

namespace ocb {
namespace {

harness::FaultRunSpec base_spec(std::size_t message_bytes = 64 * 1024) {
  harness::FaultRunSpec spec;
  spec.message_bytes = message_bytes;
  return spec;
}

TEST(FaultLayout, FitsTheMpbWithDefaults) {
  scc::SccChip chip;
  core::FtOcBcast bcast(chip);
  // notify + 7 done + 2 staged + 2x96 buffers + fence <= 256.
  const core::TreeLayout& layout = bcast.layout();
  EXPECT_LE(layout.lines(), kMpbCacheLines);
  EXPECT_EQ(layout.notify_line(), 0u);
  EXPECT_EQ(layout.done_line(0), 1u);
  EXPECT_EQ(layout.staged_line(0), 8u);
  EXPECT_EQ(layout.staged_line(1), 9u);
  EXPECT_EQ(layout.buffer_line(0), 10u);
  EXPECT_EQ(layout.buffer_line(1), 106u);
  EXPECT_EQ(layout.fence_line(), 202u);
}

TEST(FaultInjector, IdenticalPlanGivesBitIdenticalTimeline) {
  harness::FaultRunSpec spec = base_spec();
  spec.plan.seed = 7;
  spec.plan.rates.mpb_read = 1e-4;
  spec.plan.crashes.push_back({.core = 3, .at = 20 * sim::kMicrosecond});
  const harness::FaultRunOutcome a = run_fault_once(spec);
  const harness::FaultRunOutcome b = run_fault_once(spec);
  EXPECT_TRUE(a.all_survivors_correct());
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.latency_us, b.latency_us);
  EXPECT_EQ(a.injections.total(), b.injections.total());
  EXPECT_EQ(a.injections.reads_corrupted, b.injections.reads_corrupted);
  EXPECT_EQ(a.injections.crashes_applied, b.injections.crashes_applied);
  EXPECT_EQ(a.drained, b.drained);
  EXPECT_EQ(a.gave_up, b.gave_up);
  EXPECT_EQ(a.correct, b.correct);
  EXPECT_EQ(a.race_violations, 0u) << a.race_report;
  EXPECT_EQ(b.race_violations, 0u) << b.race_report;
  // And a different seed perturbs the timeline (the corruption sites move).
  spec.plan.seed = 8;
  const harness::FaultRunOutcome c = run_fault_once(spec);
  EXPECT_NE(a.events, c.events);
  EXPECT_EQ(c.race_violations, 0u) << c.race_report;
}

TEST(FaultInjector, CountsWhatItDoes) {
  harness::FaultRunSpec spec = base_spec();
  spec.plan.seed = 11;
  spec.plan.rates.mpb_read = 1e-3;
  const harness::FaultRunOutcome out = run_fault_once(spec);
  EXPECT_GT(out.injections.reads_corrupted, 0u);
  EXPECT_EQ(out.injections.crashes_applied, 0u);
  EXPECT_EQ(out.injections.stalls_applied, 0u);
  EXPECT_EQ(out.race_violations, 0u) << out.race_report;
}

TEST(FtOcBcast, TransientReadCorruptionIsRecovered) {
  harness::FaultRunSpec spec = base_spec();
  spec.plan.rates.mpb_read = 1e-3;  // dozens of flips over a 64 KiB bcast
  spec.plan.rates.mem_read = 1e-3;  // incl. the root's staging reads
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    spec.plan.seed = seed;
    const harness::FaultRunOutcome out = run_fault_once(spec);
    EXPECT_TRUE(out.all_survivors_correct()) << "seed " << seed;
    EXPECT_EQ(out.crashed, 0) << "seed " << seed;
    EXPECT_GT(out.injections.reads_corrupted, 0u) << "seed " << seed;
    EXPECT_EQ(out.race_violations, 0u) << "seed " << seed << "\n"
                                       << out.race_report;
  }
}

TEST(FtOcBcast, PlainProtocolCorruptsSilentlyUnderSameFaults) {
  // Control arm: the identical fault plans against the non-FT OC-Bcast must
  // deliver wrong bytes at least once across the seeds (otherwise the FT
  // machinery is being tested against nothing).
  harness::FaultRunSpec spec = base_spec();
  spec.algorithm_name = "ocbcast";
  spec.plan.rates.mpb_read = 1e-3;
  int wrong = 0;
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    spec.plan.seed = seed;
    const harness::FaultRunOutcome out = run_fault_once(spec);
    if (out.correct < out.survivors) ++wrong;
  }
  EXPECT_GT(wrong, 0);
}

TEST(FtOcBcast, StuckDoneFlagIsRiddenOut) {
  harness::FaultRunSpec spec = base_spec();
  spec.plan.seed = 21;
  // Root's first done line (child 1's acks, first write ~64 us in) drops
  // every write until 120 us; the child's reliable writes retry with
  // doubling backoff (~126 us of budget) until the window passes.
  spec.plan.stuck_lines.push_back(
      {.owner = 0, .line = 1, .from = 0, .until = 120 * sim::kMicrosecond});
  const harness::FaultRunOutcome out = run_fault_once(spec);
  EXPECT_TRUE(out.all_survivors_correct());
  EXPECT_GT(out.injections.writes_suppressed, 0u);
  EXPECT_EQ(out.race_violations, 0u) << out.race_report;
}

TEST(FtOcBcast, StuckNotifyFlagFallsBackToStagedPolling) {
  harness::FaultRunSpec spec = base_spec();
  spec.plan.seed = 22;
  // Core 1's notify line never receives a write for the whole run: its
  // notification hint dies, the staged-line ground truth carries it.
  spec.plan.stuck_lines.push_back(
      {.owner = 1, .line = 0, .from = 0, .until = ~std::uint64_t{0}});
  const harness::FaultRunOutcome out = run_fault_once(spec);
  EXPECT_TRUE(out.all_survivors_correct());
  EXPECT_EQ(out.race_violations, 0u) << out.race_report;
}

TEST(FtOcBcast, StallBelowWatchdogBudgetIsAbsorbed) {
  harness::FaultRunSpec spec = base_spec();
  spec.plan.seed = 23;
  spec.plan.stalls.push_back(
      {.core = 9, .at = 10 * sim::kMicrosecond, .duration = 100 * sim::kMicrosecond});
  const harness::FaultRunOutcome out = run_fault_once(spec);
  EXPECT_TRUE(out.all_survivors_correct());
  EXPECT_EQ(out.injections.stalls_applied, 1u);
  EXPECT_EQ(out.race_violations, 0u) << out.race_report;
}

TEST(FtOcBcast, InteriorCrashIsRoutedAround) {
  // Core 1 is an interior node (children 8..14 with k=7, root 0): its death
  // orphans a whole subtree, exercising re-routing AND ack substitution.
  harness::FaultRunSpec spec = base_spec();
  spec.plan.seed = 31;
  spec.plan.crashes.push_back({.core = 1, .at = 30 * sim::kMicrosecond});
  const harness::FaultRunOutcome out = run_fault_once(spec);
  EXPECT_EQ(out.crashed, 1);
  EXPECT_EQ(out.survivors, kNumCores - 1);
  EXPECT_TRUE(out.all_survivors_correct());
  EXPECT_EQ(static_cast<int>(out.stalled_processes), 1);  // the dead core
  ASSERT_EQ(out.stalled_details.size(), 1u);
  EXPECT_NE(out.stalled_details[0].find("core 1"), std::string::npos);
  EXPECT_NE(out.stalled_details[0].find("fail-stop"), std::string::npos);
  EXPECT_EQ(out.race_violations, 0u) << out.race_report;
}

TEST(FtOcBcast, LeafCrashIsSubstitutedImmediately) {
  harness::FaultRunSpec spec = base_spec();
  spec.plan.seed = 32;
  spec.plan.crashes.push_back({.core = 47, .at = 15 * sim::kMicrosecond});
  const harness::FaultRunOutcome out = run_fault_once(spec);
  EXPECT_EQ(out.crashed, 1);
  EXPECT_TRUE(out.all_survivors_correct());
  EXPECT_EQ(out.race_violations, 0u) << out.race_report;
}

// The ISSUE acceptance sweep: >= 20 seeds of transient corruption plus one
// non-root crash; every surviving core must deliver byte-correct payloads.
TEST(FtOcBcast, AcceptanceSweepCrashPlusCorruption) {
  harness::FaultRunSpec spec = base_spec();
  spec.plan.rates.mpb_read = 1e-5;
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t s = 1; s <= 20; ++s) seeds.push_back(s);
  // Vary the victim and the crash time deterministically with the seed so
  // the sweep covers interior and leaf deaths at different pipeline phases.
  int crashes_seen = 0;
  for (const std::uint64_t seed : seeds) {
    spec.plan.seed = seed;
    spec.plan.crashes.clear();
    const CoreId victim = 1 + static_cast<CoreId>(seed % 46);  // never root
    const sim::Time at = (5 + 3 * (seed % 15)) * sim::kMicrosecond;
    spec.plan.crashes.push_back({.core = victim, .at = at});
    const harness::FaultRunOutcome out = run_fault_once(spec);
    EXPECT_TRUE(out.all_survivors_correct())
        << "seed " << seed << " victim " << victim << " at "
        << sim::to_us(at) << "us: correct=" << out.correct
        << " survivors=" << out.survivors << " gave_up=" << out.gave_up;
    EXPECT_EQ(out.race_violations, 0u) << "seed " << seed << "\n"
                                       << out.race_report;
    crashes_seen += out.crashed;
  }
  // The victim must actually have died in (nearly) every run; a crash
  // scheduled after the broadcast finished would test nothing.
  EXPECT_GE(crashes_seen, 18);
}

TEST(FtOcBcast, SweepHelperAggregates) {
  harness::FaultRunSpec spec = base_spec(8 * 1024);
  spec.plan.rates.mpb_read = 1e-4;
  const harness::FaultSweepResult sweep =
      run_fault_sweep(spec, {101, 102, 103});
  ASSERT_EQ(sweep.outcomes.size(), 3u);
  EXPECT_EQ(sweep.runs_all_correct, 3);
  for (const harness::FaultRunOutcome& out : sweep.outcomes) {
    EXPECT_EQ(out.race_violations, 0u) << out.race_report;
  }
}

TEST(FtOcBcast, ZeroFaultOverheadUnderFivePercent) {
  // FT vs plain OC-Bcast with no injector installed, 8 KiB..1 MiB.
  // Medians over a few iterations; the budget is the ISSUE's 5%.
  for (const std::size_t lines : {256u, 2048u, 32768u}) {
    harness::BcastRunSpec plain;
    plain.message_bytes = lines * kCacheLineBytes;
    plain.iterations = lines >= 32768u ? 2 : 3;
    plain.algorithm_name = "ocbcast";
    harness::BcastRunSpec ft = plain;
    ft.algorithm_name = "ft-ocbcast";
    const harness::BcastRunResult rp = run_broadcast(plain);
    const harness::BcastRunResult rf = run_broadcast(ft);
    ASSERT_TRUE(rp.content_ok);
    ASSERT_TRUE(rf.content_ok);
    const double overhead =
        rf.latency_us.median() / rp.latency_us.median() - 1.0;
    EXPECT_LT(overhead, 0.05) << lines << " lines: plain "
                              << rp.latency_us.median() << "us ft "
                              << rf.latency_us.median() << "us";
  }
}

TEST(FtOcBcast, DeliveryReportsArePopulated) {
  harness::FaultRunSpec spec = base_spec(8 * 1024);
  spec.plan.seed = 41;
  spec.plan.crashes.push_back({.core = 2, .at = 5 * sim::kMicrosecond});

  scc::SccChip chip(spec.config);
  fault::FaultInjector injector(chip, spec.plan);
  chip.add_observer(&injector);
  core::FtOcBcast bcast(chip, spec.params);
  auto region = chip.memory(0).host_bytes(0, spec.message_bytes);
  for (std::size_t i = 0; i < region.size(); ++i) {
    region[i] = static_cast<std::byte>(i * 31 + 7);
  }
  for (CoreId c = 0; c < kNumCores; ++c) {
    chip.spawn(c, [&bcast, &spec](scc::Core& me) -> sim::Task<void> {
      co_await bcast.run(me, 0, 0, spec.message_bytes);
    });
  }
  chip.run();
  int delivered = 0;
  for (CoreId c = 0; c < kNumCores; ++c) {
    if (c == 2) continue;  // crashed
    EXPECT_TRUE(bcast.report(c).participated) << c;
    if (bcast.report(c).delivered) ++delivered;
  }
  EXPECT_EQ(delivered, kNumCores - 1);
  EXPECT_FALSE(bcast.report(2).delivered);
}

// The fault harness picks its algorithm by registry name: every builtin
// runs through it fault-free. ("adaptive" re-plans per call and is covered
// by tune_test.)
TEST(FaultHarness, EveryBuiltinRunsFaultFreeByName) {
  for (const std::string& name : coll::names()) {
    if (name == "adaptive") continue;
    harness::FaultRunSpec spec = base_spec(8 * 1024);
    spec.algorithm_name = name;
    const harness::FaultRunOutcome out = run_fault_once(spec);
    EXPECT_TRUE(out.all_survivors_correct()) << name;
    EXPECT_EQ(out.parties, kNumCores) << name;
    EXPECT_EQ(out.delivered, kNumCores) << name;
    EXPECT_EQ(out.race_violations, 0u) << name << "\n" << out.race_report;
  }
}

// On a chip larger than the SCC the injector still answers for every core
// the chip serves: one the plan never names has a clear bulk window.
TEST(FaultHarness, FaultFreeRunsOnAChipLargerThanTheScc) {
  for (const char* name : {"ocbcast", "ft-ocbcast"}) {
    harness::FaultRunSpec spec = base_spec(8 * 1024);
    spec.algorithm_name = name;
    spec.config.topology = noc::Topology::mesh(8, 8, 1);
    spec.params.parties = 0;  // the whole chip
    const harness::FaultRunOutcome out = run_fault_once(spec);
    EXPECT_EQ(out.parties, 64) << name;
    EXPECT_TRUE(out.all_survivors_correct()) << name;
    EXPECT_EQ(out.delivered, 64) << name;
    EXPECT_EQ(out.race_violations, 0u) << name << "\n" << out.race_report;
  }
}

// The injector and the checker size themselves from the chip the plan runs
// on: a crash on a 128-core mesh is routed around, checked, and a plan that
// names a core the chip lacks is refused.
TEST(FaultHarness, CrashOnAChipLargerThanTheSccIsRoutedAround) {
  harness::FaultRunSpec spec = base_spec(16 * 1024);
  spec.config.topology = noc::Topology::parse("mesh:8x8");
  spec.check_races = true;
  spec.plan.crashes.push_back({.core = 100, .at = 20 * sim::kMicrosecond});
  const harness::FaultRunOutcome out = run_fault_once(spec);
  EXPECT_EQ(out.parties, 128);
  EXPECT_EQ(out.crashed, 1);
  EXPECT_EQ(out.survivors, 127);
  EXPECT_TRUE(out.all_survivors_correct())
      << out.correct << "/" << out.survivors << " gave_up=" << out.gave_up;
  EXPECT_EQ(out.race_violations, 0u) << out.race_report;

  spec.plan.crashes = {{.core = 128, .at = 20 * sim::kMicrosecond}};
  EXPECT_THROW(run_fault_once(spec), PreconditionError);
  spec.plan.crashes.clear();
  spec.plan.stalls.push_back({.core = 128, .at = 0, .duration = 1});
  EXPECT_THROW(run_fault_once(spec), PreconditionError);
}

// The outcome carries the run's counters: FT-OC-Bcast's payload coalesces
// when no core has a stall or crash planned, corruption included, and the
// ops of a core with a pending crash fall back to the per-line path.
TEST(FaultHarness, OutcomeCarriesTheRunsCounters) {
  harness::FaultRunSpec spec = base_spec(16 * 1024);
  spec.check_races = true;
  spec.plan.seed = 3;
  const harness::FaultRunOutcome clean = run_fault_once(spec);
  EXPECT_GT(clean.counters.bulk_ops, 0u);
  EXPECT_EQ(clean.counters.bulk_fallback_ops, 0u);
  EXPECT_GT(clean.max_queue_depth, 0u);
  EXPECT_EQ(clean.race_violations, 0u) << clean.race_report;

  spec.plan.rates.mpb_read = 1e-4;
  const harness::FaultRunOutcome corrupted = run_fault_once(spec);
  EXPECT_GT(corrupted.counters.bulk_ops, 0u);
  EXPECT_EQ(corrupted.counters.bulk_fallback_ops, 0u);
  EXPECT_EQ(corrupted.race_violations, 0u) << corrupted.race_report;

  // Core 13 is still alive at its first multi-line op (an earlier crash
  // would leave it nothing to fall back).
  spec.plan.rates.mpb_read = 0.0;
  spec.plan.crashes.push_back({.core = 13, .at = 200 * sim::kMicrosecond});
  const harness::FaultRunOutcome crashed = run_fault_once(spec);
  EXPECT_TRUE(crashed.all_survivors_correct());
  EXPECT_GT(crashed.counters.bulk_fallback_ops, 0u);
  EXPECT_EQ(crashed.race_violations, 0u) << crashed.race_report;
}

// The "ocbcast" control arm is built from the spec's Params like any other
// algorithm, so options the old hand-copied arm dropped now take effect.
TEST(FaultHarness, ControlArmHonoursEveryParam) {
  harness::FaultRunSpec spec = base_spec(16 * 1024);
  spec.algorithm_name = "ocbcast";
  const harness::FaultRunOutcome staged = run_fault_once(spec);
  spec.params.leaf_direct_to_memory = true;
  const harness::FaultRunOutcome direct = run_fault_once(spec);
  EXPECT_TRUE(staged.all_survivors_correct());
  EXPECT_TRUE(direct.all_survivors_correct());
  EXPECT_EQ(staged.race_violations, 0u) << staged.race_report;
  EXPECT_EQ(direct.race_violations, 0u) << direct.race_report;
  EXPECT_NE(direct.latency_us, staged.latency_us);
  EXPECT_LT(direct.latency_us, staged.latency_us)
      << "§5.4: skipping the leaf staging copy must help";
}

// A budget of exactly the events a run needs still drains: `drained` is
// whether the queue emptied, not whether the budget was left unspent.
TEST(FaultHarness, DrainedWhenTheQueueEmptiesOnTheBudgetsLastEvent) {
  harness::FaultRunSpec spec = base_spec(4 * 1024);
  const harness::FaultRunOutcome free_run = run_fault_once(spec);
  ASSERT_TRUE(free_run.all_survivors_correct());
  EXPECT_EQ(free_run.race_violations, 0u) << free_run.race_report;

  spec.max_events = free_run.events;
  const harness::FaultRunOutcome exact = run_fault_once(spec);
  EXPECT_EQ(exact.events, free_run.events);
  EXPECT_EQ(exact.correct, exact.survivors);
  EXPECT_TRUE(exact.drained);
  EXPECT_TRUE(exact.all_survivors_correct());
  EXPECT_EQ(exact.race_violations, 0u) << exact.race_report;

  spec.max_events = free_run.events - 1;
  const harness::FaultRunOutcome cut = run_fault_once(spec);
  EXPECT_FALSE(cut.drained);
  EXPECT_FALSE(cut.all_survivors_correct());
  EXPECT_EQ(cut.race_violations, 0u) << cut.race_report;
}

}  // namespace
}  // namespace ocb
