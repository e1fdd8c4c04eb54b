// The four end-to-end workloads of bench_e2e.
//
// A workload is a fixed list of items (a broadcast point, a fault run, a
// request batch). One *pass* builds and runs every item once; the loop in
// bench_e2e.cpp repeats passes for the rest of the requested seconds and
// reports medians. Each item is timed from outside in two phases: set-up
// (topology parsing, session / service construction, request generation)
// and run (everything the public entry point does after that). Simulated
// outputs are collected per pass and must repeat bit-exactly.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ocb::e2e {

struct Metric {
  double value = 0.0;
  std::string unit;

  friend bool operator==(const Metric&, const Metric&) = default;
};
using Metrics = std::map<std::string, Metric>;

/// Host-time spans kept in memory until exit, written as a Chrome trace.
class Tracer {
 public:
  Tracer();
  /// Opens a span now and returns its id (ids start at 1; parent 0 = none).
  int open(const std::string& name, int parent);
  void close(int id);
  /// Chrome trace_event JSON ("X" events in host microseconds); `meta`
  /// is a JSON object embedded as otherData.
  std::string to_json(const std::string& meta) const;

 private:
  struct Span {
    std::string name;
    int id = 0;
    int parent = 0;
    double start_us = 0.0;
    double end_us = 0.0;
  };
  double now_us() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
};

/// One timed set-up or run phase of an item.
struct Phase {
  double host_s = 0.0;  ///< wall-clock host time
  /// Index of the host-speed sample taken last before the phase; the next
  /// sample is taken after it ends.
  std::size_t speed_sample = 0;
};

/// The host's momentary speed, sampled by timing a fixed reference kernel
/// between phases. On a shared host, neighbours slow the whole process by
/// 10-30% for seconds at a time; dividing a phase's host time by the mean
/// kernel time of the samples around it removes that drift. The result is
/// in reference seconds: seconds on a host that runs the kernel in exactly
/// 1 ms. The kernel is the benchmark's own code, so no change to src/ can
/// move it.
class HostSpeed {
 public:
  HostSpeed();
  /// Times the kernel now and returns the sample's index.
  std::size_t sample();
  std::size_t latest() const { return samples_.size() - 1; }
  /// The phase's host time in reference seconds. Needs the sample after it.
  double reference_s(const Phase& phase) const;
  /// Median kernel time over its reference time: how slow the host ran.
  double slowdown() const;

 private:
  std::vector<double> samples_;
};

/// How one pass runs.
struct Ctx {
  std::uint64_t seed = 0;
  /// Shrunk inputs for the smoke test (bench_e2e --smoke).
  bool smoke = false;
  /// Build every item and run none: the set-up repetitions behind setup_s.
  bool setup_only = false;
  /// ft_faults_checked only: install the race checker (off measures
  /// check.overhead_frac).
  bool check_races = true;
  /// Non-null in traced passes: item spans go here and the pass collects
  /// per-layer counters from every chip it builds.
  Tracer* tracer = nullptr;
  int parent_span = 0;
  /// Sampled before every run phase; set-up phases use the latest sample,
  /// so the caller samples around set-up-only passes.
  HostSpeed* speed = nullptr;
};

/// Everything one pass measured.
struct Pass {
  double setup_s = 0.0;  ///< wall-clock host time in set-up phases
  double run_s = 0.0;    ///< wall-clock host time in run phases
  /// Every phase, in item order: across passes the benchmark takes each
  /// item's median in reference seconds.
  std::vector<Phase> setup_phases;
  std::vector<Phase> run_phases;
  /// Wall-clock run-phase host time per algorithm group (core.wall_frac.*).
  std::map<std::string, double> group_run_s;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t race_violations = 0;
  std::uint64_t sessions = 0;  ///< harness entry points constructed
  std::uint64_t events = 0;
  std::uint64_t max_queue_depth = 0;
  double simulated_us = 0.0;  ///< simulated time covered by the runs
  /// sim_latency_us, sim_tail_us and sim_mbps, plus workload extras
  /// (goldens, paper_err_pct).
  Metrics sim;
  /// Per-layer counters; filled only in traced passes.
  Metrics layers;
  /// Every simulated output of the pass; compared bit-exactly across
  /// passes and between traced and untraced passes.
  std::vector<double> fingerprint;
  std::string problems;  ///< race reports, stall notes, failed checks
};

struct Workload {
  const char* name;
  const char* sizes;        ///< inputs of one full-size pass
  const char* smoke_sizes;  ///< inputs of one --smoke pass
  Pass (*run)(const Ctx& ctx);
};

const std::vector<Workload>& workloads();

/// Nearest-rank percentile, p in (0, 1].
double nearest_rank(std::vector<double> samples, double p);

}  // namespace ocb::e2e
