// Design-space autotuner driver (tune::Explorer + coll::AdaptiveBcast).
//
// Modes:
//  * --smoke            tiny grid; gates that every point verifies, the
//                       derived decision table round-trips through JSON,
//                       and "adaptive" lands within 5% of the per-size
//                       grid best. Wired as the autotune-smoke ctest.
//  * --json_out=PATH    the committed design-space sweep: every registered
//                       protocol x fan-out {2,7,47} x chunk {48,96} x
//                       single/double buffering at six message sizes, with
//                       a 2% MPB-read fault-injection pass on the small
//                       sizes. Writes the versioned ocb-tune-pareto-v1
//                       record (results/autotune_pareto.json).
//  * --cross_validate   replays "adaptive" against the committed fig8a /
//                       fig8b grids and fails unless it is within 5% of
//                       the per-point best series on >= 90% of points.
//                       Paths default to results/fig8a_latency.json and
//                       results/fig8b_throughput.json; override with
//                       --fig8a=PATH / --fig8b=PATH.
//
// With no mode flag, runs the smoke grid and prints the report without
// gating (a quick human-readable look at the design space).
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "coll/decision.h"
#include "common/format.h"
#include "harness/measurement.h"
#include "harness/report.h"
#include "harness/sweep.h"
#include "tune/explorer.h"

namespace {

using namespace ocb;

// ---------------------------------------------------------------------------
// Smoke / default mode
// ---------------------------------------------------------------------------

tune::ExplorerOptions smoke_grid() {
  tune::ExplorerOptions o;
  o.algorithms = {"ocbcast", "binomial"};
  o.sizes_lines = {1, 96};
  o.fanouts = {2, 7};
  o.chunk_grid = {96};
  o.buffering_grid = {true};
  o.iterations = 2;
  return o;
}

double adaptive_latency_us(const std::string& table_json, std::size_t lines,
                           int iterations) {
  harness::BcastRunSpec spec;
  spec.algorithm_name = "adaptive";
  spec.params.adaptive_table_json = table_json;
  spec.message_bytes = lines * kCacheLineBytes;
  spec.iterations = iterations;
  const harness::BcastRunResult r = harness::run_broadcast(spec);
  if (!r.content_ok) return -1.0;
  return r.latency_us.mean();
}

int smoke_mode(bool gate) {
  const tune::ExplorerOptions options = smoke_grid();
  const tune::ExploreResult result = tune::explore(options);
  std::printf("%s", tune::render_report(result).c_str());
  if (!gate) return 0;

  int failures = 0;
  for (const tune::PointResult& r : result.points) {
    if (!r.content_ok) {
      std::printf("FAIL: %s did not verify\n", r.point.label().c_str());
      ++failures;
    }
  }

  const coll::DecisionTable table = tune::derive_table(result);
  const std::string json = table.to_json();
  const coll::DecisionTable back = coll::DecisionTable::from_json(json);
  if (back.to_json() != json) {
    std::printf("FAIL: decision table does not round-trip through JSON\n");
    ++failures;
  }

  // "adaptive" loaded with the derived table must match the per-size grid
  // best within 5% (deterministic simulator: the delegate's latency is
  // bit-identical to the winning grid point's).
  for (const std::size_t lines : options.sizes_lines) {
    double best = -1.0;
    for (const tune::PointResult& r : result.points) {
      if (!r.content_ok || r.point.lines != lines) continue;
      if (best < 0.0 || r.latency_us < best) best = r.latency_us;
    }
    const double got = adaptive_latency_us(json, lines, options.iterations);
    const bool ok = got >= 0.0 && best > 0.0 && got <= best * 1.05;
    std::printf("adaptive @%zu lines: %.3f us vs grid best %.3f us  [%s]\n",
                lines, got, best, ok ? "ok" : "FAIL");
    if (!ok) ++failures;
  }

  std::printf("autotune smoke: %s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Committed sweep (--json_out)
// ---------------------------------------------------------------------------

tune::ExplorerOptions committed_grid() {
  tune::ExplorerOptions o;
  // algorithms empty: every registered protocol except "adaptive".
  o.sizes_lines = {1, 8, 48, 96, 192, 1024};
  o.fanouts = {2, 7, 47};
  o.chunk_grid = {48, 96};
  o.buffering_grid = {false, true};
  o.fault_rate = 0.02;
  o.fault_seeds = {1, 2, 3};
  // Fault runs observe every MPB read, so score resilience on the two
  // small sizes only; the other points carry resilience = -1 (unmeasured).
  o.fault_sizes_lines = {8, 96};
  return o;
}

int json_out_mode(const std::string& path) {
  std::fprintf(stderr, "sweeping the committed design-space grid...\n");
  const tune::ExploreResult result = tune::explore(committed_grid());
  std::printf("%s", tune::render_report(result).c_str());
  const std::string json = tune::to_json(result);
  std::ofstream file(path);
  if (!file) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return 1;
  }
  file << json;
  std::fprintf(stderr, "wrote %s\n", path.c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// fig8 cross-validation (--cross_validate)
// ---------------------------------------------------------------------------

// Minimal scanner for the flat point objects our fig8 json_out modes emit:
// {"series": "...", "lines": N, "latency_us"|"throughput_mbps": X,
//  "verified": true|false}.
struct Fig8Point {
  std::string series;
  std::size_t lines = 0;
  double value = 0.0;
  bool verified = false;
};

const char* find_field(const std::string& obj, const char* key) {
  const std::string prefix = std::string("\"") + key + "\":";
  const std::size_t at = obj.find(prefix);
  if (at == std::string::npos) return nullptr;
  const char* s = obj.c_str() + at + prefix.size();
  while (*s == ' ') ++s;
  return s;
}

std::vector<Fig8Point> parse_fig8(const std::string& json,
                                  const char* value_key) {
  std::vector<Fig8Point> points;
  std::size_t pos = json.find("\"points\"");
  if (pos == std::string::npos) return points;
  while (true) {
    const std::size_t open = json.find('{', pos);
    if (open == std::string::npos) break;
    const std::size_t close = json.find('}', open);
    if (close == std::string::npos) break;
    const std::string obj = json.substr(open, close - open + 1);
    pos = close + 1;
    Fig8Point p;
    const char* series = find_field(obj, "series");
    const char* lines = find_field(obj, "lines");
    const char* value = find_field(obj, value_key);
    const char* verified = find_field(obj, "verified");
    if (series == nullptr || *series != '"' || lines == nullptr ||
        value == nullptr || verified == nullptr) {
      continue;  // not a point record (e.g. the schema header)
    }
    const char* series_end = std::strchr(series + 1, '"');
    if (series_end == nullptr) continue;
    p.series.assign(series + 1, series_end);
    p.lines = std::strtoull(lines, nullptr, 10);
    p.value = std::strtod(value, nullptr);
    p.verified = std::strncmp(verified, "true", 4) == 0;
    points.push_back(std::move(p));
  }
  return points;
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream file(path);
  if (!file) return false;
  std::ostringstream ss;
  ss << file.rdbuf();
  out = ss.str();
  return true;
}

/// Validates "adaptive" against one committed fig8 grid: for every size,
/// the best committed series value is the reference; adaptive (run live,
/// same iteration policy as the fig8 benches) must be within 5% of it.
/// Returns {points_checked, points_ok}; appends a per-point report line.
struct GridVerdict {
  int checked = 0;
  int ok = 0;
};

GridVerdict cross_validate_grid(const std::string& label,
                                const std::vector<Fig8Point>& points,
                                bool higher_is_better) {
  // Per-size best across the committed series (verified points only).
  std::map<std::size_t, std::pair<double, std::string>> best;
  for (const Fig8Point& p : points) {
    if (!p.verified) continue;
    const auto it = best.find(p.lines);
    const bool better =
        it == best.end() ||
        (higher_is_better ? p.value > it->second.first
                          : p.value < it->second.first);
    if (better) best[p.lines] = {p.value, p.series};
  }

  GridVerdict verdict;
  TextTable table({"lines", "best series", "best", "adaptive", "delta",
                   "within 5%"});
  for (const auto& [lines, ref] : best) {
    harness::BcastRunSpec spec;
    spec.algorithm_name = "adaptive";
    spec.message_bytes = lines * kCacheLineBytes;
    spec.iterations = harness::default_iterations(lines);
    std::fprintf(stderr, "%s: running adaptive at %zu lines...\n",
                 label.c_str(), lines);
    const harness::BcastRunResult r = harness::run_broadcast(spec);
    const double got =
        higher_is_better ? r.throughput_mbps : r.latency_us.mean();
    const double ratio = higher_is_better ? ref.first / got : got / ref.first;
    const bool ok = r.content_ok && ratio <= 1.05;
    ++verdict.checked;
    if (ok) ++verdict.ok;
    table.add_row({std::to_string(lines), ref.second,
                   fmt_fixed(ref.first, 3), fmt_fixed(got, 3),
                   fmt_fixed((ratio - 1.0) * 100.0, 1) + "%",
                   ok ? "yes" : "NO"});
  }
  std::printf("\n=== %s: adaptive vs committed per-point best ===\n%s",
              label.c_str(), table.str().c_str());
  return verdict;
}

int cross_validate_mode(const std::string& fig8a_path,
                        const std::string& fig8b_path) {
  std::string fig8a_json, fig8b_json;
  if (!read_file(fig8a_path, fig8a_json)) {
    std::fprintf(stderr, "cannot read %s (run bench_fig8a_latency "
                 "--json_out=... or pass --fig8a=PATH)\n", fig8a_path.c_str());
    return 1;
  }
  if (!read_file(fig8b_path, fig8b_json)) {
    std::fprintf(stderr, "cannot read %s (run bench_fig8b_throughput "
                 "--json_out=... or pass --fig8b=PATH)\n", fig8b_path.c_str());
    return 1;
  }
  const std::vector<Fig8Point> lat = parse_fig8(fig8a_json, "latency_us");
  const std::vector<Fig8Point> tp = parse_fig8(fig8b_json, "throughput_mbps");
  if (lat.empty() || tp.empty()) {
    std::fprintf(stderr, "no points parsed from the fig8 records\n");
    return 1;
  }

  const GridVerdict a = cross_validate_grid("fig8a latency", lat, false);
  const GridVerdict b = cross_validate_grid("fig8b throughput", tp, true);
  const int checked = a.checked + b.checked;
  const int ok = a.ok + b.ok;
  const double frac =
      checked > 0 ? static_cast<double>(ok) / checked : 0.0;
  const bool pass = frac >= 0.9;
  std::printf("\ncross-validation: %d/%d points within 5%% of the committed "
              "best (need >= 90%%): %s\n",
              ok, checked, pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool cross_validate = false;
  std::string json_out;
  std::string fig8a_path = "results/fig8a_latency.json";
  std::string fig8b_path = "results/fig8b_throughput.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--cross_validate") {
      cross_validate = true;
    } else if (arg.rfind("--json_out=", 0) == 0) {
      json_out = arg.substr(std::string("--json_out=").size());
    } else if (arg.rfind("--fig8a=", 0) == 0) {
      fig8a_path = arg.substr(std::string("--fig8a=").size());
    } else if (arg.rfind("--fig8b=", 0) == 0) {
      fig8b_path = arg.substr(std::string("--fig8b=").size());
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke | --json_out=PATH | --cross_validate "
                   "[--fig8a=PATH] [--fig8b=PATH]]\n",
                   argv[0]);
      return 2;
    }
  }
  if (!json_out.empty()) return json_out_mode(json_out);
  if (cross_validate) return cross_validate_mode(fig8a_path, fig8b_path);
  return smoke_mode(smoke);
}
