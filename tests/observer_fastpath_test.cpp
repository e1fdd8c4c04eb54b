// The byte-identity gate for the observer-compatible fast path
// (scc/observer.h: one observer stream).
//
// The coalesced BulkOp path stays on while the built-in observers —
// check::RaceChecker, the JSON trace sink, and fault::FaultInjector — are
// installed, handing them the per-line stream at the reference instants
// instead of forcing the per-line slow path. The contract is that NOTHING
// observable may change: checker verdicts and their full provenance
// (seqs, times, stages), rendered trace JSON bytes, fault outcomes and
// injection counts, and service SLO metrics must be bit-identical with the
// fast path forced on vs off.
// These tests run every registry algorithm, and seeded random RMA
// programs, both ways and compare. The last test checks the sim::Counters
// that count the fast path's hits and fallbacks.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <utility>
#include <vector>

#include "check/checker.h"
#include "coll/registry.h"
#include "common/rng.h"
#include "core/ft_ocbcast.h"
#include "fault/injector.h"
#include "harness/fault_sweep.h"
#include "harness/measurement.h"
#include "rma/rma.h"
#include "scc/bulk.h"
#include "scc/chip.h"
#include "scc/trace_json.h"
#include "sim/counters.h"
#include "svc/service.h"

namespace ocb {
namespace {

const std::vector<std::string>& algorithms() {
  static const std::vector<std::string> names = coll::names();
  return names;
}

harness::BcastRunSpec spec_for(const std::string& name, bool coalescing) {
  harness::BcastRunSpec spec;
  spec.algorithm_name = name;
  spec.message_bytes = 96 * kCacheLineBytes;
  spec.iterations = 2;
  spec.warmup = 1;
  spec.config.coalescing = coalescing;
  return spec;
}

void expect_same_timeline(const harness::BcastRunResult& on,
                          const harness::BcastRunResult& off) {
  EXPECT_EQ(on.end_time, off.end_time);
  ASSERT_EQ(on.latency_us.count(), off.latency_us.count());
  for (std::size_t i = 0; i < on.latency_us.count(); ++i) {
    EXPECT_DOUBLE_EQ(on.latency_us.samples()[i], off.latency_us.samples()[i])
        << "iteration " << i;
  }
  EXPECT_TRUE(on.content_ok);
  EXPECT_TRUE(off.content_ok);
}

// --- checked runs -----------------------------------------------------------

TEST(ObserverFastpath, CheckedRunsAreBitIdentical) {
  for (const std::string& name : algorithms()) {
    harness::BcastRunSpec on_spec = spec_for(name, true);
    on_spec.check = true;
    harness::BcastRunSpec off_spec = spec_for(name, false);
    off_spec.check = true;

    harness::BcastSession on_session(on_spec);
    // The capability model's whole point: a passive, bulk-capable checker
    // keeps the coalesced fast path ON.
    EXPECT_TRUE(on_session.chip().coalescing_active()) << name;
    const harness::BcastRunResult on = on_session.run();
    const harness::BcastRunResult off = harness::run_broadcast(off_spec);

    expect_same_timeline(on, off);
    // Verdicts: the shipped collectives are race-free, both ways.
    EXPECT_EQ(on.race_violations, 0u) << name;
    EXPECT_EQ(off.race_violations, 0u) << name;
  }
}

// A deliberately racing workload, so the identity check covers verdicts
// WITH provenance (cores, ops, seqs, times, stages), not just zero counts.
// Two cores put to the same remote MPB lines with no ordering edge; a
// third gets them. Coalesced on both arms, the checker must reconstruct
// the identical violation list — report() renders every recorded field,
// so string equality is full-provenance equality.
std::string racy_report(bool coalescing) {
  scc::SccConfig cfg;
  cfg.coalescing = coalescing;
  scc::SccChip chip(cfg);
  check::RaceChecker checker(chip);
  chip.add_observer(&checker);
  EXPECT_EQ(chip.coalescing_active(), coalescing);

  for (CoreId writer : {1, 2}) {
    chip.spawn(writer, [](scc::Core& me) -> sim::Task<void> {
      me.set_stage("racy-put");
      co_await rma::put_mpb_to_mpb(me, {0, 16}, 0, 8);
    });
  }
  chip.spawn(3, [](scc::Core& me) -> sim::Task<void> {
    me.set_stage("racy-get");
    co_await rma::get_mpb_to_mpb(me, 0, {0, 16}, 8);
  });
  EXPECT_TRUE(chip.run().completed());
  EXPECT_GT(checker.total_detected(), 0u);
  return checker.report();
}

TEST(ObserverFastpath, RaceProvenanceIsBitIdentical) {
  EXPECT_EQ(racy_report(true), racy_report(false));
}

// --- traced runs ------------------------------------------------------------

TEST(ObserverFastpath, TraceJsonBytesAreBitIdentical) {
  for (const std::string& name : algorithms()) {
    std::string json[2];
    for (int arm = 0; arm < 2; ++arm) {
      harness::BcastSession session(spec_for(name, arm == 0));
      scc::JsonTraceCollector trace;
      // Coalesced ops must deliver the exact per-line event stream.
      session.chip().set_trace_sink(trace.sink());
      EXPECT_EQ(session.chip().coalescing_active(), arm == 0) << name;
      const harness::BcastRunResult r = session.run();
      EXPECT_TRUE(r.content_ok);
      json[arm] = trace.to_json();
    }
    EXPECT_EQ(json[0], json[1]) << name;
  }
}

// --- fault-injected runs ----------------------------------------------------
//
// FT-OC-Bcast's payload rides the coalesced path on every core whose bulk
// window is clear, so each fault kind must leave the whole outcome, race
// report included, unchanged with the fast path on vs off. Only on == off
// is asserted: some of these plans fail today (survivors give up, the
// checker reports races), and a fix may change what they report.

struct NamedPlan {
  const char* name;
  harness::FaultRunSpec spec;
};

harness::FaultRunSpec checked_fault_spec(std::uint64_t seed,
                                         std::size_t bytes = 64 * 1024) {
  harness::FaultRunSpec spec;
  spec.message_bytes = bytes;
  spec.plan.seed = seed;
  spec.check_races = true;
  return spec;
}

/// fault_test's envelope: read corruption plus one fail-stop that moves
/// with the plan seed.
harness::FaultRunSpec envelope_spec(std::uint64_t seed) {
  harness::FaultRunSpec spec = checked_fault_spec(seed);
  spec.plan.rates.mpb_read = 1e-5;
  spec.plan.crashes.push_back({static_cast<CoreId>(1 + seed % 46),
                               (5 + 3 * (seed % 15)) * sim::kMicrosecond});
  return spec;
}

harness::FaultRunSpec core13_spec(std::uint64_t seed) {
  harness::FaultRunSpec spec = checked_fault_spec(seed);
  spec.plan.rates.mpb_read = 1e-4;
  spec.plan.crashes.push_back({13, 40 * sim::kMicrosecond});
  return spec;
}

std::vector<NamedPlan> fault_plans() {
  std::vector<NamedPlan> plans;
  harness::FaultRunSpec spec = checked_fault_spec(3);
  spec.plan.rates.mpb_read = 1e-3;
  spec.plan.rates.mem_read = 1e-3;
  plans.push_back({"read corruption", spec});

  spec = checked_fault_spec(4);
  spec.plan.rates.mpb_write = 1e-4;
  plans.push_back({"write corruption", spec});

  spec = checked_fault_spec(21);
  spec.plan.stuck_lines.push_back({0, 1, 0, 120 * sim::kMicrosecond});
  plans.push_back({"stuck done line", spec});

  spec = checked_fault_spec(23);
  spec.plan.stalls.push_back(
      {9, 10 * sim::kMicrosecond, 100 * sim::kMicrosecond});
  plans.push_back({"stall", spec});

  spec = checked_fault_spec(31);
  spec.plan.crashes.push_back({1, 30 * sim::kMicrosecond});
  plans.push_back({"fail-stop", spec});

  spec = checked_fault_spec(7, 16 * 1024);
  spec.plan.rates.mpb_read = 2e-4;
  spec.plan.rates.mpb_write = 1e-4;
  spec.plan.stalls.push_back({9, 40 * sim::kMicrosecond, 60 * sim::kMicrosecond});
  spec.plan.crashes.push_back({17, 30 * sim::kMicrosecond});
  plans.push_back({"combination", spec});

  plans.push_back({"envelope seed 1022", envelope_spec(1022)});
  plans.push_back({"envelope seed 5011", envelope_spec(5011)});
  plans.push_back({"envelope seed 15003", envelope_spec(15003)});
  plans.push_back({"core 13 seed 2", core13_spec(2)});
  plans.push_back({"core 13 seed 5", core13_spec(5)});
  return plans;
}

TEST(ObserverFastpath, FaultOutcomesAreBitIdentical) {
  for (const NamedPlan& p : fault_plans()) {
    SCOPED_TRACE(p.name);
    harness::FaultRunSpec on_spec = p.spec;
    on_spec.config.coalescing = true;
    harness::FaultRunSpec off_spec = p.spec;
    off_spec.config.coalescing = false;
    const harness::FaultRunOutcome on = run_fault_once(on_spec);
    const harness::FaultRunOutcome off = run_fault_once(off_spec);

    EXPECT_EQ(on.drained, off.drained);
    EXPECT_EQ(on.parties, off.parties);
    EXPECT_EQ(on.crashed, off.crashed);
    EXPECT_EQ(on.survivors, off.survivors);
    EXPECT_EQ(on.correct, off.correct);
    EXPECT_EQ(on.gave_up, off.gave_up);
    EXPECT_EQ(on.delivered, off.delivered);
    EXPECT_EQ(on.stalled_processes, off.stalled_processes);
    EXPECT_EQ(on.stalled_details, off.stalled_details);
    EXPECT_DOUBLE_EQ(on.latency_us, off.latency_us);
    EXPECT_LE(on.events, off.events);
    EXPECT_EQ(on.injections.reads_corrupted, off.injections.reads_corrupted);
    EXPECT_EQ(on.injections.writes_corrupted, off.injections.writes_corrupted);
    EXPECT_EQ(on.injections.writes_suppressed,
              off.injections.writes_suppressed);
    EXPECT_EQ(on.injections.stalls_applied, off.injections.stalls_applied);
    EXPECT_EQ(on.injections.crashes_applied, off.injections.crashes_applied);
    EXPECT_EQ(on.race_violations, off.race_violations);
    EXPECT_EQ(on.race_report, off.race_report);
  }
}

// Per-core delivery reports of one read-corruption run, built by hand so
// the FT collective's reports are reachable: the checksum fold on the
// coalesced path must catch corrupted reads exactly as the per-line path
// does, retry for retry.
TEST(ObserverFastpath, FtDeliveryReportsAreBitIdentical) {
  constexpr std::size_t kBytes = 64 * 1024;
  std::vector<core::DeliveryReport> reports[2];
  sim::Counters counters[2];
  for (int arm = 0; arm < 2; ++arm) {
    scc::SccConfig cfg;
    cfg.coalescing = arm == 0;
    scc::SccChip chip(cfg);
    fault::FaultPlan plan;
    plan.seed = 5;
    plan.rates.mpb_read = 1e-3;
    plan.rates.mem_read = 1e-3;
    fault::FaultInjector injector(chip, plan);
    chip.add_observer(&injector);
    core::FtOcBcast bcast(chip);
    auto region = chip.memory(0).host_bytes(0, kBytes);
    for (std::size_t i = 0; i < region.size(); ++i) {
      region[i] = static_cast<std::byte>(i * 13 + 5);
    }
    for (CoreId c = 0; c < kNumCores; ++c) {
      chip.spawn(c, [&bcast](scc::Core& me) -> sim::Task<void> {
        co_await bcast.run(me, 0, 0, kBytes);
      });
    }
    const sim::RunResult run = chip.run();
    EXPECT_TRUE(run.completed());
    counters[arm] = run.counters;
    for (CoreId c = 0; c < kNumCores; ++c) reports[arm].push_back(bcast.report(c));
  }
  // Every op of the on arm coalesced: the corruption was caught there.
  EXPECT_GT(counters[0].bulk_ops, 0u);
  EXPECT_EQ(counters[0].bulk_fallback_ops, 0u);
  std::uint64_t retries = 0;
  for (CoreId c = 0; c < kNumCores; ++c) {
    const core::DeliveryReport& on = reports[0][static_cast<std::size_t>(c)];
    const core::DeliveryReport& off = reports[1][static_cast<std::size_t>(c)];
    EXPECT_EQ(on.participated, off.participated) << "core " << c;
    EXPECT_EQ(on.delivered, off.delivered) << "core " << c;
    EXPECT_EQ(on.gave_up, off.gave_up) << "core " << c;
    EXPECT_EQ(on.checksum_retries, off.checksum_retries) << "core " << c;
    EXPECT_EQ(on.watchdog_timeouts, off.watchdog_timeouts) << "core " << c;
    EXPECT_EQ(on.reroutes, off.reroutes) << "core " << c;
    EXPECT_EQ(on.substituted_acks, off.substituted_acks) << "core " << c;
    retries += on.checksum_retries;
  }
  EXPECT_GT(retries, 0u);
}

// --- seeded random programs -------------------------------------------------
//
// A randomized on/off differential over both coalesced regimes under all
// three observers at once. Each seed builds a short program of phases: a
// phase is either one core alone on the chip, in its own run(), so its
// ops book closed-form, or 2-4 cores at once, which runs the parity chain.
// No flag orders one phase after another, so the checker has races to
// report, among them races whose two accesses were both booked
// closed-form. The injector corrupts reads and writes at rates up to 0.25
// and holds one written MPB line stuck.

struct RandomOp {
  scc::BulkKind kind;
  CoreId owner;  ///< the MPB side of the op (may be the caller)
  std::size_t mpb_line;
  std::size_t local_line;  ///< caller's MPB line, or memory line for mem kinds
  std::size_t lines;
};

using CoreOps = std::pair<CoreId, std::vector<RandomOp>>;

struct RandomProgram {
  std::vector<std::vector<CoreOps>> phases;
  fault::FaultPlan plan;
};

// Few cores, far apart on the mesh, so ops collide on lines and cross links.
constexpr std::array<CoreId, 6> kProgramCores = {0, 1, 13, 22, 35, 47};
constexpr std::size_t kProgramMemBytes = kMpbCacheLines * kCacheLineBytes;

RandomProgram random_program(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  RandomProgram p;
  std::vector<rma::MpbAddr> written;
  const std::size_t phases = 3 + rng.next_below(4);
  for (std::size_t ph = 0; ph < phases; ++ph) {
    std::vector<CoreId> cores(kProgramCores.begin(), kProgramCores.end());
    std::shuffle(cores.begin(), cores.end(), rng);
    cores.resize(rng.next_below(2) == 0 ? 1 : 2 + rng.next_below(3));
    std::vector<CoreOps>& phase = p.phases.emplace_back();
    for (CoreId core : cores) {
      std::vector<RandomOp> ops(1 + rng.next_below(3));
      for (RandomOp& op : ops) {
        op.kind = static_cast<scc::BulkKind>(rng.next_below(4));
        op.owner = kProgramCores[rng.next_below(kProgramCores.size())];
        op.lines = 1 + rng.next_below(96);
        op.mpb_line = rng.next_below(kMpbCacheLines - op.lines + 1);
        op.local_line = rng.next_below(kMpbCacheLines - op.lines + 1);
        const std::size_t at = rng.next_below(op.lines);
        if (op.kind == scc::BulkKind::kPutMpbToMpb ||
            op.kind == scc::BulkKind::kPutMemToMpb) {
          written.push_back({op.owner, op.mpb_line + at});
        } else if (op.kind == scc::BulkKind::kGetMpbToMpb) {
          written.push_back({core, op.local_line + at});
        }
      }
      phase.emplace_back(core, std::move(ops));
    }
  }
  p.plan.seed = seed + 1;
  p.plan.rates.mpb_read = 0.25 * rng.next_double();
  p.plan.rates.mpb_write = 0.25 * rng.next_double();
  p.plan.rates.mem_read = 0.25 * rng.next_double();
  p.plan.rates.mem_write = 0.25 * rng.next_double();
  if (!written.empty()) {
    const rma::MpbAddr stuck = written[rng.next_below(written.size())];
    p.plan.stuck_lines.push_back(
        {stuck.owner, stuck.line, 0, 1000 * sim::kMillisecond});
  }
  return p;
}

sim::Task<void> run_ops(scc::Core& me, const std::vector<RandomOp>& ops) {
  for (const RandomOp& op : ops) {
    const rma::MpbAddr remote{op.owner, op.mpb_line};
    const std::size_t mem_offset = op.local_line * kCacheLineBytes;
    if (op.kind == scc::BulkKind::kPutMpbToMpb) {
      co_await rma::put_mpb_to_mpb(me, remote, op.local_line, op.lines);
    } else if (op.kind == scc::BulkKind::kPutMemToMpb) {
      co_await rma::put_mem_to_mpb(me, remote, mem_offset, op.lines);
    } else if (op.kind == scc::BulkKind::kGetMpbToMpb) {
      co_await rma::get_mpb_to_mpb(me, op.local_line, remote, op.lines);
    } else {
      co_await rma::get_mpb_to_mem(me, mem_offset, remote, op.lines);
    }
  }
}

struct ProgramOutcome {
  std::string trace_json;
  std::string race_report;
  std::uint64_t races = 0;
  fault::InjectionStats injections;
  sim::Time end_time = 0;
  std::vector<CacheLine> mpb_lines;  ///< every program core's whole MPB
  std::vector<std::byte> mem_bytes;  ///< ... and its first kProgramMemBytes
  sim::Counters counters;
};

ProgramOutcome run_program(const RandomProgram& p, std::uint64_t seed,
                           bool coalescing) {
  scc::SccConfig cfg;
  cfg.coalescing = coalescing;
  scc::SccChip chip(cfg);
  check::RaceChecker checker(chip);
  fault::FaultInjector injector(chip, p.plan);
  scc::JsonTraceCollector trace;
  chip.add_observer(&checker);
  chip.add_observer(&injector);
  chip.set_trace_sink(trace.sink());
  EXPECT_EQ(chip.coalescing_active(), coalescing);

  Xoshiro256 fill(seed ^ 0x5eedULL);
  for (CoreId c : kProgramCores) {
    for (std::size_t l = 0; l < kMpbCacheLines; ++l) {
      for (std::byte& b : chip.mpb(c).host_line(l).bytes) {
        b = static_cast<std::byte>(fill.next());
      }
    }
    fill_pattern(chip.memory(c).host_bytes(0, kProgramMemBytes), fill.next());
  }

  ProgramOutcome out;
  for (const std::vector<CoreOps>& phase : p.phases) {
    for (const CoreOps& core_ops : phase) {
      const std::vector<RandomOp>* ops = &core_ops.second;
      chip.spawn(core_ops.first, [ops](scc::Core& me) -> sim::Task<void> {
        co_await run_ops(me, *ops);
      });
    }
    const sim::RunResult run = chip.run();
    EXPECT_TRUE(run.completed());
    out.counters += run.counters;
  }
  out.trace_json = trace.to_json();
  out.race_report = checker.report();
  out.races = checker.total_detected();
  out.injections = injector.stats();
  out.end_time = chip.now();
  for (CoreId c : kProgramCores) {
    for (std::size_t l = 0; l < kMpbCacheLines; ++l) {
      out.mpb_lines.push_back(chip.mpb(c).host_line(l));
    }
    const auto mem = chip.memory(c).host_bytes(0, kProgramMemBytes);
    out.mem_bytes.insert(out.mem_bytes.end(), mem.begin(), mem.end());
  }
  return out;
}

TEST(ObserverFastpath, SeededProgramsMatchThePerLinePath) {
  sim::Counters on_arm;
  std::uint64_t races = 0;
  fault::InjectionStats injected;
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const RandomProgram program = random_program(seed);
    const ProgramOutcome on = run_program(program, seed, true);
    const ProgramOutcome off = run_program(program, seed, false);

    EXPECT_TRUE(on.trace_json == off.trace_json);
    EXPECT_EQ(on.race_report, off.race_report);
    EXPECT_EQ(on.injections.reads_corrupted, off.injections.reads_corrupted);
    EXPECT_EQ(on.injections.writes_corrupted, off.injections.writes_corrupted);
    EXPECT_EQ(on.injections.writes_suppressed,
              off.injections.writes_suppressed);
    EXPECT_EQ(on.end_time, off.end_time);
    EXPECT_TRUE(on.mpb_lines == off.mpb_lines);
    EXPECT_TRUE(on.mem_bytes == off.mem_bytes);
    EXPECT_EQ(off.counters.bulk_ops, 0u);

    on_arm += on.counters;
    races += on.races;
    injected.reads_corrupted += on.injections.reads_corrupted;
    injected.writes_corrupted += on.injections.writes_corrupted;
    injected.writes_suppressed += on.injections.writes_suppressed;
  }
  // Both regimes ran, every op of the on arm observed, and each observer
  // had something to report.
  EXPECT_GT(on_arm.bulk_quiescent_ops, 0u);
  EXPECT_GT(on_arm.bulk_ops, on_arm.bulk_quiescent_ops);
  EXPECT_EQ(on_arm.bulk_ops_observed, on_arm.bulk_ops);
  EXPECT_EQ(on_arm.bulk_fallback_ops, 0u);
  EXPECT_GT(races, 0u);
  EXPECT_GT(injected.reads_corrupted, 0u);
  EXPECT_GT(injected.writes_corrupted, 0u);
  EXPECT_GT(injected.writes_suppressed, 0u);
}

// A zero-rate injector (the common "FT run, no faults today" shape) keeps
// coalescing on, and its per-line callbacks draw no random number, so its
// closed-form ops must still match the off arm.
TEST(ObserverFastpath, ZeroRateInjectorKeepsFastPath) {
  harness::FaultRunSpec on_spec;
  on_spec.message_bytes = 16 * 1024;
  harness::FaultRunSpec off_spec = on_spec;
  off_spec.config.coalescing = false;

  const harness::FaultRunOutcome on = run_fault_once(on_spec);
  const harness::FaultRunOutcome off = run_fault_once(off_spec);
  EXPECT_TRUE(on.all_survivors_correct());
  EXPECT_TRUE(off.all_survivors_correct());
  EXPECT_DOUBLE_EQ(on.latency_us, off.latency_us);
  EXPECT_EQ(on.injections.total(), 0u);
  // Fewer events on the fast arm: quiescent ops really collapsed.
  EXPECT_LE(on.events, off.events);
}

// --- service runs -----------------------------------------------------------

TEST(ObserverFastpath, ServiceMetricsAreBitIdentical) {
  svc::TrafficSpec traffic;
  traffic.requests = 12;
  traffic.mean_gap_ns = 30'000;
  traffic.sizes = {{kCacheLineBytes, 2}, {4096, 2}, {16384, 1}};
  traffic.seed = 99;

  for (const std::string& algorithm : {std::string("ocbcast"),
                                       std::string("ft-ocbcast")}) {
    std::string json[2];
    for (int arm = 0; arm < 2; ++arm) {
      svc::ServiceConfig config;
      config.algorithm = algorithm;
      config.check = true;  // checker rides along, fast path stays on
      config.chip.coalescing = arm == 0;
      const svc::ServiceMetrics m = svc::run_service(config, traffic);
      EXPECT_TRUE(m.content_ok) << algorithm;
      EXPECT_EQ(m.race_violations, 0u) << algorithm;
      json[arm] = m.to_json();
    }
    // to_json renders counts, makespan, throughput, and all three
    // latency histograms — bit-identity covers the whole SLO surface.
    EXPECT_EQ(json[0], json[1]) << algorithm;
  }
}

// --- counters ---------------------------------------------------------------

// Every run reports its own sim::Counters deltas in the default build:
// which path each multi-line RMA op took, and how the frame pool served
// the per-line path.
TEST(Counters, CountEachRunsBulkPath) {
  harness::BcastRunSpec spec;
  spec.message_bytes = 1024 * kCacheLineBytes;
  spec.iterations = 1;
  spec.warmup = 0;

  harness::BcastSession session(spec);
  const sim::Counters first = session.run().counters;
  EXPECT_GT(first.bulk_ops, 0u);
  EXPECT_GT(first.bulk_quiescent_ops, 0u);
  // Observed only when OCB_CHECK installed the race checker on the session.
  EXPECT_EQ(first.bulk_ops_observed,
            session.checker() != nullptr ? first.bulk_ops : 0u);
  EXPECT_EQ(first.bulk_fallback_ops, 0u);
  EXPECT_EQ(first.bulk_fallback_lines, 0u);
  // A second call on the same chip reports its own delta, not a total.
  const sim::Counters second = session.run().counters;
  EXPECT_EQ(second.bulk_ops, first.bulk_ops);
  EXPECT_EQ(second.bulk_ops_observed, first.bulk_ops_observed);
  EXPECT_EQ(second.bulk_quiescent_ops, first.bulk_quiescent_ops);
  EXPECT_EQ(second.bulk_fallback_ops, first.bulk_fallback_ops);
  EXPECT_EQ(second.bulk_fallback_lines, first.bulk_fallback_lines);

  // The checker is bulk-capable: every coalesced op runs observed.
  harness::BcastRunSpec checked = spec;
  checked.check = true;
  const sim::Counters observed = harness::run_broadcast(checked).counters;
  EXPECT_GT(observed.bulk_ops, 0u);
  EXPECT_EQ(observed.bulk_ops_observed, observed.bulk_ops);

  // A planned stall closes core 5's bulk window, so its ops fall back.
  fault::FaultPlan plan;
  plan.stalls.push_back({5, 0, sim::kMicrosecond});
  harness::BcastSession stalled(spec);
  fault::FaultInjector injector(stalled.chip(), plan);
  stalled.chip().add_observer(&injector);
  const sim::Counters fallback = stalled.run().counters;
  EXPECT_GT(fallback.bulk_fallback_ops, 0u);
  EXPECT_GE(fallback.bulk_fallback_lines, fallback.bulk_fallback_ops);

  // FT-OC-Bcast's checksummed transfers coalesce like every other op.
  harness::BcastRunSpec ft = spec;
  ft.algorithm_name = "ft-ocbcast";
  const sim::Counters ft_counters = harness::run_broadcast(ft).counters;
  EXPECT_GT(ft_counters.bulk_ops, 0u);
  EXPECT_EQ(ft_counters.bulk_fallback_ops, 0u);

  harness::BcastRunSpec per_line = spec;
  per_line.config.coalescing = false;
  const sim::Counters frames = harness::run_broadcast(per_line).counters;
  EXPECT_EQ(frames.bulk_ops, 0u);
  EXPECT_GT(frames.frame_reuses, 0u);

  // The service carries them too, but keeps them out of its SLO JSON.
  svc::TrafficSpec traffic;
  traffic.requests = 12;
  traffic.mean_gap_ns = 30'000;
  traffic.sizes = {{kCacheLineBytes, 2}, {4096, 2}, {16384, 1}};
  traffic.seed = 99;
  const svc::ServiceMetrics m = svc::run_service(svc::ServiceConfig{}, traffic);
  EXPECT_GT(m.counters.bulk_ops, 0u);
  const std::string json = m.to_json();
  for (const char* name :
       {"frame_allocs", "frame_reuses", "bulk_ops", "bulk_ops_observed",
        "bulk_quiescent_ops", "bulk_fallback_ops", "bulk_fallback_lines"}) {
    EXPECT_EQ(json.find(name), std::string::npos) << name;
  }
}

}  // namespace
}  // namespace ocb
