// What-if scaling — probing the paper's conclusion that "collective
// operations for message-passing many-core chips should be based on
// one-sided communication ... to take full advantage of hardware features
// of future many-core architectures".
//
// Each scenario rescales one part of the machine (cores, mesh, memory, or
// all) and re-runs the OC-Bcast / binomial / scatter-allgather comparison.
// The interesting question is where the OC advantage comes from: if it
// were a software-overhead artifact it would shrink with faster cores; if
// it is the off-chip-movement argument the paper makes (Formula 13 vs
// 14), it should *grow* when cores and mesh outpace memory — the expected
// trajectory of real many-cores.
// A second axis probes GEOMETRY instead of clocks: the same comparison on
// chips the SCC never was — {48, 256, 1024} cores as one die or as a 2x2
// grid of dies behind interposer links (noc::Topology). There the question
// is whether a topology-aware tree (hier-ocbcast: die-local OC-Bcast under
// an inter-die leader relay) buys back what the interposer toll costs a
// placement-oblivious tree. Results land in results/whatif_topology.json;
// `--topology=mesh:16x16` (any Topology::parse spelling) runs the
// comparison on one custom chip and exits.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/format.h"
#include "harness/parallel.h"
#include "harness/report.h"
#include "harness/sweep.h"
#include "noc/topology.h"

namespace {

using namespace ocb;

struct Scenario {
  const char* name;
  double core, mesh, mem;
};

constexpr Scenario kScenarios[] = {
    {"baseline (SCC 533/800)", 1, 1, 1},
    {"2x cores", 2, 1, 1},
    {"2x mesh", 1, 2, 1},
    {"2x memory", 1, 1, 2},
    {"2x everything", 2, 2, 2},
    {"future: 4x cores+mesh, memory lags", 4, 4, 1.5},
};

struct Row {
  double oc_latency_us = 0.0;   // 96 lines
  double oc_peak = 0.0;         // 8192 lines, MB/s
  double binomial_latency_us = 0.0;
  double sag_peak = 0.0;
  bool ok = true;
};

Row compute_row(std::size_t scenario) {
  const Scenario& s = kScenarios[scenario];
  const scc::SccConfig cfg = scc::SccConfig{}.scaled(s.core, s.mesh, s.mem);
  Row row;
  auto run = [&](const char* name, std::size_t lines) {
    harness::BcastRunSpec spec;
    spec.algorithm_name = name;
    spec.config = cfg;
    spec.message_bytes = lines * kCacheLineBytes;
    spec.iterations = harness::default_iterations(lines);
    const harness::BcastRunResult r = run_broadcast(spec);
    row.ok = row.ok && r.content_ok;
    return r;
  };
  row.oc_latency_us = run("ocbcast", 96).latency_us.mean();
  row.oc_peak = run("ocbcast", 8192).throughput_mbps;
  row.binomial_latency_us = run("binomial", 96).latency_us.mean();
  row.sag_peak = run("scatter-allgather", 8192).throughput_mbps;
  return row;
}

// Scenarios are independent chips: precomputed in parallel from main().
std::vector<Row> g_rows;

const Row& row_for(int scenario) { return g_rows[static_cast<std::size_t>(scenario)]; }

void bench_scenario(benchmark::State& state) {
  const int s = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const Row& r = row_for(s);
    state.SetIterationTime(r.oc_latency_us * 1e-6);
    state.counters["oc_peak_mbps"] = r.oc_peak;
    state.counters["sag_peak_mbps"] = r.sag_peak;
    state.counters["peak_ratio"] = r.oc_peak / r.sag_peak;
  }
  state.SetLabel(kScenarios[state.range(0)].name);
}

void print_table() {
  TextTable table({"scenario", "oc_lat96_us", "bin_lat96_us", "lat_gain",
                   "oc_peak_MBps", "sag_peak_MBps", "peak_ratio", "ok"});
  std::vector<std::vector<std::string>> csv;
  for (int s = 0; s < static_cast<int>(std::size(kScenarios)); ++s) {
    const Row& r = row_for(s);
    table.add_row({kScenarios[s].name, fmt_fixed(r.oc_latency_us, 1),
                   fmt_fixed(r.binomial_latency_us, 1),
                   fmt_fixed(1.0 - r.oc_latency_us / r.binomial_latency_us, 2),
                   fmt_fixed(r.oc_peak, 2), fmt_fixed(r.sag_peak, 2),
                   fmt_fixed(r.oc_peak / r.sag_peak, 2), r.ok ? "yes" : "NO"});
    csv.push_back({kScenarios[s].name, fmt_fixed(r.oc_latency_us, 3),
                   fmt_fixed(r.binomial_latency_us, 3), fmt_fixed(r.oc_peak, 3),
                   fmt_fixed(r.sag_peak, 3)});
  }
  std::printf("\n=== What-if scaling: where does the OC advantage come from? ===\n%s",
              table.str().c_str());
  std::printf("\nReading: the peak ratio holds (or grows) as cores and mesh\n"
              "outpace memory, because OC-Bcast's advantage is its lower count\n"
              "of off-chip movements on the critical path (Formula 13 vs 14/16)\n"
              "- the paper's thesis about future many-core chips.\n");
  write_csv(harness::results_dir() + "/whatif_scaling.csv",
            {"scenario", "oc_lat96_us", "bin_lat96_us", "oc_peak", "sag_peak"},
            csv);
}

// --- topology sweep: cores x dies ------------------------------------------

struct TopoPoint {
  const char* label;
  const char* spec;  ///< Topology::parse spelling
};

// {48, 256, 1024} cores, each as one die and as a 2x2 die grid (cores per
// tile stays 2, so the per-die mesh shrinks as the die count grows).
constexpr TopoPoint kTopoPoints[] = {
    {"48c-1die", "scc"},
    {"48c-4die", "dies:2x2:mesh:3x2"},
    {"256c-1die", "mesh:16x8"},
    {"256c-4die", "dies:2x2:mesh:8x4"},
    {"1024c-1die", "mesh:32x16"},
    {"1024c-4die", "dies:2x2:mesh:16x8"},
};

struct TopoAlgoResult {
  std::string algorithm;
  double latency_us = 0.0;       // 96 lines
  double peak_mbps = 0.0;        // 2048 lines
  bool ok = true;
};

struct TopoRow {
  std::string label;
  std::string spec;
  std::string describe;
  int cores = 0;
  int dies = 0;
  std::vector<TopoAlgoResult> algos;
};

TopoRow compute_topo_row(const std::string& label, const std::string& spec) {
  const noc::Topology topo = noc::Topology::parse(spec);
  TopoRow row;
  row.label = label;
  row.spec = spec;
  row.describe = topo.describe();
  row.cores = topo.num_cores();
  row.dies = topo.num_dies();
  for (const char* algo : {"ocbcast", "hier-ocbcast"}) {
    TopoAlgoResult res;
    res.algorithm = algo;
    auto run = [&](std::size_t lines) {
      harness::BcastRunSpec s;
      s.algorithm_name = algo;
      s.params.parties = 0;  // every core of the chip
      s.config.topology = topo;
      s.message_bytes = lines * kCacheLineBytes;
      s.iterations = 3;
      s.warmup = 1;
      const harness::BcastRunResult r = run_broadcast(s);
      res.ok = res.ok && r.content_ok;
      return r;
    };
    res.latency_us = run(96).latency_us.mean();
    res.peak_mbps = run(2048).throughput_mbps;
    row.algos.push_back(std::move(res));
  }
  return row;
}

std::vector<TopoRow> g_topo_rows;

void print_topo_table(const std::vector<TopoRow>& rows,
                      const std::string& json_path) {
  TextTable table({"topology", "cores", "dies", "oc_lat96_us", "hier_lat96_us",
                   "lat_gain", "oc_peak_MBps", "hier_peak_MBps", "ok"});
  std::ostringstream json;
  json << "{\n  \"schema\": \"ocb-whatif-topology-v1\",\n  \"points\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const TopoRow& r = rows[i];
    const TopoAlgoResult& oc = r.algos[0];
    const TopoAlgoResult& hier = r.algos[1];
    table.add_row({r.describe, fmt_fixed(r.cores, 0), fmt_fixed(r.dies, 0),
                   fmt_fixed(oc.latency_us, 1), fmt_fixed(hier.latency_us, 1),
                   fmt_fixed(1.0 - hier.latency_us / oc.latency_us, 2),
                   fmt_fixed(oc.peak_mbps, 1), fmt_fixed(hier.peak_mbps, 1),
                   oc.ok && hier.ok ? "yes" : "NO"});
    json << "    {\"label\": \"" << r.label << "\", \"spec\": \"" << r.spec
         << "\", \"topology\": \"" << r.describe << "\", \"cores\": " << r.cores
         << ", \"dies\": " << r.dies << ", \"algorithms\": [\n";
    for (std::size_t a = 0; a < r.algos.size(); ++a) {
      const TopoAlgoResult& res = r.algos[a];
      json << "      {\"name\": \"" << res.algorithm
           << "\", \"latency96_us\": " << fmt_fixed(res.latency_us, 3)
           << ", \"peak_mbps\": " << fmt_fixed(res.peak_mbps, 3)
           << ", \"content_ok\": " << (res.ok ? "true" : "false") << "}"
           << (a + 1 < r.algos.size() ? ",\n" : "\n");
    }
    json << "    ]}" << (i + 1 < rows.size() ? ",\n" : "\n");
  }
  json << "  ]\n}\n";
  std::printf("\n=== What-if topology: flat vs hierarchical broadcast ===\n%s",
              table.str().c_str());
  std::printf("\nReading: on one die the two trees are near-equivalent (the\n"
              "hierarchy only drops the binary in-group notification); once\n"
              "dies split the mesh, every placement-oblivious parent/child\n"
              "edge risks the interposer toll while hier-ocbcast pays it once\n"
              "per (die, chunk) on the leader relay.\n");
  if (!json_path.empty()) {
    std::ofstream file(json_path);
    if (file) {
      file << json.str();
      std::printf("wrote %s\n", json_path.c_str());
    } else {
      std::fprintf(stderr, "cannot open %s for writing\n", json_path.c_str());
    }
  }
}

int topology_flag_mode(const std::string& spec) {
  g_topo_rows.push_back(compute_topo_row(spec, spec));
  print_topo_table(g_topo_rows, /*json_path=*/"");
  return g_topo_rows.back().algos[0].ok && g_topo_rows.back().algos[1].ok ? 0
                                                                          : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--topology=", 0) == 0) {
      return topology_flag_mode(arg.substr(std::string("--topology=").size()));
    }
  }
  g_rows = harness::parallel_map(std::size(kScenarios), compute_row);
  g_topo_rows = harness::parallel_map(
      std::size(kTopoPoints), [](std::size_t i) {
        return compute_topo_row(kTopoPoints[i].label, kTopoPoints[i].spec);
      });
  for (int s = 0; s < static_cast<int>(std::size(kScenarios)); ++s) {
    benchmark::RegisterBenchmark("whatif/scaling", &bench_scenario)
        ->Args({s})
        ->UseManualTime()
        ->Iterations(1);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_table();
  print_topo_table(g_topo_rows,
                   harness::results_dir() + "/whatif_topology.json");
  return 0;
}
