// tune::Explorer — the offline half of the design-space autotuner.
//
// Sweeps the cross product of message size x algorithm x fan-out k x
// chunk_lines x double-buffering over the coll:: registry, measuring each
// feasible point with the §6.1 harness (harness/measurement.h) and — when a
// fault rate is requested — scoring fault resilience with the seeded
// injection harness (harness/fault_sweep.h). Points are fanned out over
// harness::parallel_map, so a sweep is bit-identical at any
// OCB_SWEEP_THREADS (index-order merge).
//
// Outputs:
//  * the measured grid with the Pareto front marked (per message size;
//    objectives: latency down, throughput up, resilience up),
//  * a coll::DecisionTable derived from the per-size winners (the artifact
//    coll::AdaptiveBcast consults online),
//  * versioned JSON ("ocb-tune-pareto-v1", results/autotune_pareto.json)
//    and a human-readable report (bench/bench_autotune.cpp).
//
// Every measurement is reproducible from (algorithm, params, seed): the
// simulator is deterministic, latency points carry their iteration counts,
// and resilience points carry the full seed list.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "coll/decision.h"

namespace ocb::tune {

/// One corner of the design space: a registry algorithm at one message
/// size with the OC-Bcast-family knobs pinned. Algorithms that ignore a
/// knob (binomial, scatter-allgather, onesided-sag) contribute a single
/// point per size.
struct DesignPoint {
  std::string algorithm;
  std::size_t lines = 1;  ///< message size in cache lines
  int k = 7;
  std::size_t chunk_lines = 96;
  bool double_buffering = true;

  /// "ocbcast/k7/c96/db1 @192" — stable identity for reports and JSON.
  std::string label() const;
  /// The knob triple as a decision-table Choice.
  coll::Choice choice() const;
};

/// A measured design point.
struct PointResult {
  DesignPoint point;
  double latency_us = 0.0;
  double throughput_mbps = 0.0;
  bool content_ok = false;
  int iterations = 0;  ///< measured iterations behind latency_us
  /// Fraction of seeded fault runs where every survivor delivered correct
  /// bytes (harness::FaultRunOutcome::all_survivors_correct); -1 when
  /// resilience was not measured for this point.
  double resilience = -1.0;
  /// On the Pareto front of its message size (see ExploreResult).
  bool pareto = false;
};

struct ExplorerOptions {
  /// Registry names to sweep; empty = every registered protocol
  /// ("adaptive" is excluded — the explorer produces its table, measuring
  /// it through itself would be circular).
  std::vector<std::string> algorithms;
  /// Message sizes in cache lines; empty is a precondition error.
  std::vector<std::size_t> sizes_lines;
  /// OC-Bcast-family knob grid. Combinations whose MPB layout
  /// (core/pipeline.h) does not fit the 256-line MPB are skipped, not
  /// errors.
  std::vector<int> fanouts = {2, 7, 47};
  std::vector<std::size_t> chunk_grid = {48, 96};
  std::vector<bool> buffering_grid = {false, true};
  int parties = kNumCores;
  /// Measured iterations per point; 0 = harness::default_iterations(lines).
  int iterations = 0;
  /// When > 0, also measure resilience: per-transaction MPB-read
  /// corruption at this rate, one fault run per seed, for the
  /// OC-Bcast-family points (the fault harness covers "ocbcast" and
  /// "ft-ocbcast"). Other algorithms score 0 on the resilience axis.
  double fault_rate = 0.0;
  std::vector<std::uint64_t> fault_seeds = {1, 2, 3};
  /// Sizes (cache lines) at which resilience is measured; empty = every
  /// grid size. Fault runs observe per line, so bounding them to a size
  /// subset keeps big sweeps tractable — unmeasured points carry
  /// resilience = -1 in the output rather than a silently assumed score.
  std::vector<std::size_t> fault_sizes_lines;
  /// parallel_map worker override; 0 = OCB_SWEEP_THREADS / hardware.
  unsigned threads = 0;
};

struct ExploreResult {
  ExplorerOptions options;  ///< the grid that produced the points
  std::vector<PointResult> points;  ///< grid order (size-major)

  /// Indices of front members, per message size: a point is on the front
  /// when no content-ok point at the same size has latency <=, throughput
  /// >=, and resilience >= with at least one strict (unmeasured
  /// resilience compares as 0 when a fault rate was in play, and the axis
  /// is ignored entirely when it was not). Points that failed verification
  /// never enter the front.
  std::vector<std::size_t> front;
};

/// Runs the sweep. Precondition: non-empty sizes_lines and a resolvable
/// algorithm list.
ExploreResult explore(const ExplorerOptions& options);

/// Derives the online decision table from a sweep: per size the
/// lowest-latency verified point wins the zero-fault band (contiguous
/// sizes with the same winner merge into one rule; the last band extends
/// to SIZE_MAX), and when resilience was measured the per-size best
/// (resilience, then latency) wins the fault bands. Without fault data the
/// fault catch-all reuses the first zero-fault band's winning shape on
/// "ft-ocbcast".
coll::DecisionTable derive_table(const ExploreResult& result);

/// Versioned machine-readable record: the grid, every point, the front,
/// and the derived decision table ("ocb-tune-pareto-v1").
std::string to_json(const ExploreResult& result);

/// Aligned ASCII report: one row per point (front members starred),
/// then the derived table.
std::string render_report(const ExploreResult& result);

}  // namespace ocb::tune
