// Figure 8b — *measured* broadcast throughput on the simulated SCC:
// OC-Bcast k = 2/7/47 vs. two-sided scatter-allgather, message sizes from
// 1 line to 32768 lines (1 MiB), log-spaced, plus the 96/97-line pair that
// exposes the partial-chunk dip the paper highlights. Also compares peak
// throughput and the k=47 contention penalty against the model.
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
#include "model/broadcast_model.h"

namespace {

using namespace ocb;

// Fig. 8b plots the paper line-up without binomial.
const harness::LineupEntry& spec_for(int series) {
  static const std::vector<harness::LineupEntry> specs = [] {
    std::vector<harness::LineupEntry> lineup = harness::paper_algorithm_lineup();
    std::erase_if(lineup, [](const harness::LineupEntry& e) {
      return e.name == "binomial";
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
    state.counters["throughput_mbps"] = p.throughput_mbps;
    state.counters["verified"] = p.content_ok ? 1 : 0;
  }
  state.SetLabel(spec_for(series).label);
}

void print_tables() {
  std::vector<harness::Series> all;
  for (int s = 0; s < 4; ++s) {
    harness::Series series;
    series.label = spec_for(s).label;
    for (std::size_t lines : harness::large_message_sizes()) {
      series.points.push_back(point_for(s, lines));
    }
    all.push_back(std::move(series));
  }
  std::printf("\n=== Figure 8b: measured broadcast throughput (MB/s), log-spaced sizes ===\n%s",
              harness::render_throughput_table(all).c_str());
  harness::write_series_csv(harness::results_dir() + "/fig8b_throughput.csv", all);

  const double peak_oc7 = point_for(1, 32768).throughput_mbps;
  const double peak_oc2 = point_for(0, 32768).throughput_mbps;
  const double peak_oc47 = point_for(2, 32768).throughput_mbps;
  const double peak_sag = point_for(3, 32768).throughput_mbps;
  model::BroadcastModel m(model::ModelParams::paper(), {});
  std::printf("\nPaper §6.2.2 checks (measured on the simulated SCC):\n");
  std::printf("  peak throughput: k=2 %.2f, k=7 %.2f, k=47 %.2f, s-ag %.2f MB/s\n",
              peak_oc2, peak_oc7, peak_oc47, peak_sag);
  std::printf("  OC-Bcast(k=7) / s-ag peak ratio: %.2f (paper: almost %.0fx)\n",
              peak_oc7 / peak_sag, harness::paper::kPeakThroughputRatio);
  std::printf("  dip at 97 lines (k=7): %.2f -> %.2f MB/s (96 -> 97 lines; paper "
              "notes a drop from the 1-line second chunk)\n",
              point_for(1, 96).throughput_mbps, point_for(1, 97).throughput_mbps);
  std::printf("  k=47 measured / modeled: %.2f (paper: ~16%% below model due to "
              "MPB contention)\n",
              peak_oc47 / m.ocbcast_throughput_mbps(47));
  std::printf("  k=7 measured / modeled: %.2f (paper: close to model)\n",
              peak_oc7 / m.ocbcast_throughput_mbps(7));
}

// Machine-readable form of the same sweep: one record per (series, size)
// point with the measured throughput. Schema "ocb-bench-fig8b-v1".
int json_out_mode(const std::string& path) {
  std::ostringstream out;
  out << "{\n  \"schema\": \"ocb-bench-fig8b-v1\",\n  \"points\": [\n";
  bool first = true;
  for (int s = 0; s < 4; ++s) {
    for (std::size_t lines : harness::large_message_sizes()) {
      std::fprintf(stderr, "running %s, %zu lines...\n",
                   spec_for(s).label.c_str(), lines);
      const harness::SeriesPoint& p = point_for(s, lines);
      if (!first) out << ",\n";
      first = false;
      char mbps[64];
      std::snprintf(mbps, sizeof(mbps), "%.3f", p.throughput_mbps);
      out << "    {\"series\": \"" << spec_for(s).label
          << "\", \"lines\": " << lines << ", \"throughput_mbps\": " << mbps
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
    for (long lines : {1L, 96L, 97L, 1024L, 32768L}) {
      benchmark::RegisterBenchmark("fig8b/throughput", &bench_point)
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
