// Fault-injection experiment harness.
//
// Runs one broadcast per chip under a fault::FaultPlan and reports what
// actually happened: which cores crashed, which survivors delivered a
// byte-correct message, who gave up or stalled (with wait reasons), the
// surviving-core latency, and the injector's action counts. A sweep
// re-runs the same scenario across many seeds — the acceptance harness for
// core::FtOcBcast and the apparatus behind bench/bench_fault_overhead.
#pragma once

#include <string>
#include <vector>

#include "coll/collective.h"
#include "fault/plan.h"
#include "scc/config.h"
#include "sim/counters.h"

namespace ocb::harness {

struct FaultRunSpec {
  fault::FaultPlan plan;
  /// Registry name of the algorithm under the plan. "ocbcast" with the same
  /// params is the control arm showing what the faults do unhandled.
  std::string algorithm_name = "ft-ocbcast";
  coll::Params params{};
  scc::SccConfig config{};
  CoreId root = 0;
  std::size_t message_bytes = 64 * 1024;
  /// Event budget: a run that exceeds it is reported as not completed
  /// rather than looping forever.
  std::uint64_t max_events = 400'000'000;
  /// Also install an ocb::check::RaceChecker on the run's observer chain —
  /// the injector's crashes/stalls/corruption then execute under
  /// happens-before surveillance (a recovery path that reads data without
  /// a real ordering edge is a bug even when the bytes verify). OCB_CHECK
  /// in the environment installs it too. Either way races are reported in
  /// the outcome, never thrown: a plain protocol under corruption races
  /// by design.
  bool check_races = false;
};

struct FaultRunOutcome {
  /// Event queue drained within the budget (crashed cores still count as
  /// stalled processes; see stalled_*).
  bool drained = false;
  int parties = 0;
  int crashed = 0;    ///< fail-stops the injector actually applied
  int survivors = 0;  ///< parties - crashed
  /// Survivors whose private memory byte-matches the root's message.
  int correct = 0;
  /// Survivors that exhausted their retry budget and returned early
  /// (FT-OC-Bcast only).
  int gave_up = 0;
  /// Survivors reporting delivered (== survivors on success). Algorithms
  /// other than FT-OC-Bcast keep no report: returning counts as delivered.
  int delivered = 0;
  std::size_t stalled_processes = 0;
  std::vector<std::string> stalled_details;
  /// Last surviving core's return time (us); 0 if some survivor never
  /// returned.
  double latency_us = 0.0;
  std::uint64_t events = 0;
  std::uint64_t max_queue_depth = 0;  ///< sim::RunResult's high-water mark
  sim::Counters counters;  ///< host-side counters of the run
  fault::InjectionStats injections;
  /// Races detected (0 unless spec.check_races or OCB_CHECK installed the
  /// checker).
  std::uint64_t race_violations = 0;
  std::string race_report{};

  /// The FT acceptance predicate: every survivor delivered correct bytes.
  bool all_survivors_correct() const {
    return drained && correct == survivors && gave_up == 0;
  }
};

/// One broadcast on a fresh chip under `spec.plan`.
FaultRunOutcome run_fault_once(const FaultRunSpec& spec);

struct FaultSweepResult {
  std::vector<std::uint64_t> seeds;
  std::vector<FaultRunOutcome> outcomes;
  int runs_all_correct = 0;  ///< outcomes where all_survivors_correct()
};

/// Re-runs the scenario once per seed (spec.plan.seed is overridden).
FaultSweepResult run_fault_sweep(FaultRunSpec spec,
                                 const std::vector<std::uint64_t>& seeds);

}  // namespace ocb::harness
