// Figure 8a — *measured* broadcast latency on the simulated SCC:
// OC-Bcast k = 2/7/47 vs. the two-sided binomial tree, message sizes
// 1..192 cache lines. Prints the full series, the paper's headline checks
// (k=7 at least 27% better than binomial at 1 line; k=7 ~25% better than
// k=2 for 96..192 lines; k=7 and k=47 nearly overlap), and writes CSV.
// With --json_out=PATH, runs the series once and writes the same points as
// a machine-readable JSON record instead of the benchmark mode.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <vector>
#include <sstream>

#include "harness/paper_data.h"
#include "harness/report.h"
#include "harness/sweep.h"

namespace {

using namespace ocb;

// Fig. 8a plots the paper line-up without scatter-allgather.
const harness::LineupEntry& spec_for(int series) {
  static const std::vector<harness::LineupEntry> specs = [] {
    std::vector<harness::LineupEntry> lineup = harness::paper_algorithm_lineup();
    std::erase_if(lineup, [](const harness::LineupEntry& e) {
      return e.name == "scatter-allgather";
    });
    return lineup;
  }();
  return specs[static_cast<std::size_t>(series)];
}

const harness::SeriesPoint& point_for(int series, std::size_t lines) {
  static std::map<std::pair<int, std::size_t>, harness::SeriesPoint> cache;
  const auto key = std::make_pair(series, lines);
  auto it = cache.find(key);
  if (it == cache.end()) {
    harness::BcastRunSpec run;
    run.algorithm_name = spec_for(series).name;
    run.params = spec_for(series).params;
    run.message_bytes = lines * kCacheLineBytes;
    run.iterations = harness::default_iterations(lines);
    const harness::BcastRunResult r = run_broadcast(run);
    it = cache
             .emplace(key, harness::SeriesPoint{lines, r.latency_us.mean(),
                                                r.throughput_mbps, r.content_ok})
             .first;
  }
  return it->second;
}

void bench_point(benchmark::State& state) {
  const int series = static_cast<int>(state.range(0));
  const auto lines = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    const harness::SeriesPoint& p = point_for(series, lines);
    state.SetIterationTime(p.latency_us * 1e-6);
    state.counters["latency_us"] = p.latency_us;
    state.counters["verified"] = p.content_ok ? 1 : 0;
  }
  state.SetLabel(spec_for(series).label);
}

void print_tables() {
  std::vector<harness::Series> all;
  for (int s = 0; s < 4; ++s) {
    harness::Series series;
    series.label = spec_for(s).label;
    for (std::size_t lines : harness::small_message_sizes()) {
      series.points.push_back(point_for(s, lines));
    }
    all.push_back(std::move(series));
  }
  std::printf("\n=== Figure 8a: measured broadcast latency (us) ===\n%s",
              harness::render_latency_table(all).c_str());
  harness::write_series_csv(harness::results_dir() + "/fig8a_latency.csv", all);

  const double oc7_1 = point_for(1, 1).latency_us;
  const double bin_1 = point_for(3, 1).latency_us;
  const double oc2_144 = point_for(0, 144).latency_us;
  const double oc7_144 = point_for(1, 144).latency_us;
  const double oc47_96 = point_for(2, 96).latency_us;
  const double oc7_96 = point_for(1, 96).latency_us;
  std::printf("\nPaper §6.2.1 checks (measured on the simulated SCC):\n");
  std::printf("  1-line latency k=7: %.2f us (paper measured %.1f us on silicon)\n",
              oc7_1, harness::paper::kFig8aOcK7LatencyUs);
  std::printf("  1-line latency binomial: %.2f us (paper %.1f us)\n", bin_1,
              harness::paper::kFig8aBinomialLatencyUs);
  std::printf("  k=7 improvement over binomial at 1 line: %.1f%% (paper: >= %.0f%%)\n",
              (1.0 - oc7_1 / bin_1) * 100.0,
              harness::paper::kMinLatencyImprovementPct);
  std::printf("  k=7 improvement over k=2 at 144 lines: %.1f%% (paper: ~%.0f%%)\n",
              (1.0 - oc7_144 / oc2_144) * 100.0,
              harness::paper::kK7VsK2LargeMsgImprovementPct);
  std::printf("  k=47 / k=7 latency at 96 lines: %.3f (paper: curves nearly overlap)\n",
              oc47_96 / oc7_96);
}

// Machine-readable form of the same sweep: one record per (series, size)
// point with the measured latency. Schema "ocb-bench-fig8a-v1".
int json_out_mode(const std::string& path) {
  std::ostringstream out;
  out << "{\n  \"schema\": \"ocb-bench-fig8a-v1\",\n  \"points\": [\n";
  bool first = true;
  for (int s = 0; s < 4; ++s) {
    for (std::size_t lines : harness::small_message_sizes()) {
      std::fprintf(stderr, "running %s, %zu lines...\n",
                   spec_for(s).label.c_str(), lines);
      const harness::SeriesPoint& p = point_for(s, lines);
      if (!first) out << ",\n";
      first = false;
      char latency[64];
      std::snprintf(latency, sizeof(latency), "%.3f", p.latency_us);
      out << "    {\"series\": \"" << spec_for(s).label
          << "\", \"lines\": " << lines << ", \"latency_us\": " << latency
          << ", \"verified\": " << (p.content_ok ? "true" : "false") << "}";
    }
  }
  out << "\n  ]\n}\n";

  std::ofstream file(path);
  if (!file) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return 1;
  }
  file << out.str();
  std::printf("%s", out.str().c_str());
  std::fprintf(stderr, "wrote %s\n", path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json_out=", 0) == 0) {
      return json_out_mode(arg.substr(std::string("--json_out=").size()));
    }
  }
  for (int s = 0; s < 4; ++s) {
    for (long lines : {1L, 48L, 96L, 144L, 192L}) {
      benchmark::RegisterBenchmark("fig8a/latency", &bench_point)
          ->Args({s, lines})
          ->UseManualTime()
          ->Iterations(1);
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_tables();
  return 0;
}
