#include "harness/sweep.h"

namespace ocb::harness {

Series sweep_message_sizes(const BcastRunSpec& base, const std::string& label,
                           const std::vector<std::size_t>& sizes_lines) {
  Series series;
  series.label = label;
  for (std::size_t lines : sizes_lines) {
    BcastRunSpec spec = base;
    spec.message_bytes = lines * kCacheLineBytes;
    spec.iterations = default_iterations(lines);
    const BcastRunResult r = run_broadcast(spec);
    series.points.push_back(SeriesPoint{lines, r.latency_us.mean(),
                                        r.throughput_mbps, r.content_ok});
  }
  return series;
}

std::vector<std::size_t> small_message_sizes() {
  std::vector<std::size_t> sizes{1, 4, 8, 16};
  for (std::size_t s = 12; s <= 192; s += 12) sizes.push_back(s);
  sizes.push_back(96);
  sizes.push_back(97);
  std::sort(sizes.begin(), sizes.end());
  sizes.erase(std::unique(sizes.begin(), sizes.end()), sizes.end());
  return sizes;
}

std::vector<std::size_t> large_message_sizes() {
  std::vector<std::size_t> sizes;
  for (std::size_t s = 1; s <= 32768; s *= 2) sizes.push_back(s);
  sizes.push_back(96);
  sizes.push_back(97);
  sizes.push_back(192);
  sizes.push_back(3072);  // ~P * M_oc, Table 2's modeled message size
  std::sort(sizes.begin(), sizes.end());
  sizes.erase(std::unique(sizes.begin(), sizes.end()), sizes.end());
  return sizes;
}

int default_iterations(std::size_t lines) {
  if (lines <= 64) return 8;
  if (lines <= 512) return 5;
  if (lines <= 4096) return 3;
  return 2;
}

std::vector<LineupEntry> paper_algorithm_lineup() {
  return {
      {"ocbcast", {.k = 2}, "oc-bcast k=2"},
      {"ocbcast", {.k = 7}, "oc-bcast k=7"},
      {"ocbcast", {.k = 47}, "oc-bcast k=47"},
      {"binomial", {}, "binomial"},
      {"scatter-allgather", {}, "scatter-allgather"},
  };
}

}  // namespace ocb::harness
