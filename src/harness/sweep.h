// Parameter sweeps that generate the paper's figure series.
#pragma once

#include <string>
#include <vector>

#include "harness/measurement.h"

namespace ocb::harness {

struct SeriesPoint {
  std::size_t lines = 0;  ///< message size in cache lines
  double latency_us = 0.0;
  double throughput_mbps = 0.0;
  bool content_ok = true;
};

struct Series {
  std::string label;
  std::vector<SeriesPoint> points;
};

/// Runs `base` at each message size (`lines` in cache lines), returning one
/// series. Iteration counts shrink with message size (the simulator is
/// deterministic, so a few iterations suffice at 1 MiB).
Series sweep_message_sizes(const BcastRunSpec& base, const std::string& label,
                           const std::vector<std::size_t>& sizes_lines);

/// Message sizes (cache lines) of Figure 8a / Figure 6a: 1..192 lines
/// (twice the 96-line OC-Bcast chunk), dense enough to show the slope
/// change at the chunk boundary.
std::vector<std::size_t> small_message_sizes();

/// Sizes of Figure 8b: log-spaced 1..32768 lines (1 MiB), plus 96/97 to
/// expose the partial-chunk throughput dip the paper highlights.
std::vector<std::size_t> large_message_sizes();

/// Default measured-iteration count per message size, balancing runtime
/// against statistics (warmup handled separately by BcastRunSpec).
int default_iterations(std::size_t lines);

/// One registry entry of a figure line-up: algorithm name, its params, and
/// the series label the figures print (the instance's name()).
struct LineupEntry {
  std::string name;
  coll::Params params;
  std::string label;
};

/// The algorithm line-up of Figures 6 and 8: OC-Bcast k=2/7/47, binomial,
/// scatter-allgather.
std::vector<LineupEntry> paper_algorithm_lineup();

}  // namespace ocb::harness
