// Wall-clock performance of the simulator itself — the one bench in this
// repository that measures REAL time, not simulated time. Useful when
// sizing experiments: the paper-scale sweeps process tens of millions of
// events, and this reports how fast this machine chews through them.
//
// Three modes:
//   (default)                 google-benchmark over the same workloads
//   --json_out=PATH           run the fixed workload set once and write a
//                             machine-readable record (events/sec per
//                             workload, queue depth, allocator counters);
//                             results/bench_simulator_speed.json is the
//                             committed perf-trajectory file (see README)
//   --perf_smoke=BASELINE     re-run the gating workloads (plain, checked,
//                             traced, service) and exit 1 if any drops
//                             below 70% of the matching entry in BASELINE
//                             (a --json_out file); this is the
//                             `perf-smoke` CMake target.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "harness/fault_sweep.h"
#include "harness/measurement.h"
#include "noc/topology.h"
#include "scc/config.h"
#include "scc/core.h"
#include "scc/trace_json.h"
#include "sim/counters.h"
#include "sim/engine.h"
#include "svc/service.h"

namespace {

using namespace ocb;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- The fixed workload set (shared by every mode) --------------------

harness::BcastRunSpec ocbcast_spec(std::size_t lines) {
  harness::BcastRunSpec spec;
  spec.message_bytes = lines * kCacheLineBytes;
  spec.iterations = 1;
  spec.warmup = 0;
  spec.verify = false;
  return spec;
}

// Mirrors tests/fault_test.cpp's base scenario: a 64 KiB FT-OC-Bcast with a
// low transient-corruption rate, swept over 20 seeds. Exercises the fault
// slow path AND harness::parallel_map (the sweep fans out over threads), so
// its events/sec is a parallel-throughput number.
harness::FaultRunSpec fault_spec() {
  harness::FaultRunSpec spec;
  spec.message_bytes = 64 * 1024;
  spec.plan.rates.mpb_read = 1e-5;
  return spec;
}

// The tests/service_test.cpp smoke scenario at bench size: a mixed-size
// request stream through the multi-root broadcast service (two MPB slots,
// FIFO admission). Exercises the multiplexed-core slow path, where the
// coalesced-RMA fast path steps aside for concurrent collectives.
svc::TrafficSpec service_traffic() {
  svc::TrafficSpec traffic;
  traffic.requests = 24;
  traffic.mean_gap_ns = 30'000;
  traffic.sizes = {{kCacheLineBytes, 2}, {4096, 2}, {32768, 1}};
  traffic.seed = 2026;
  return traffic;
}

std::vector<std::uint64_t> fault_seeds() {
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t s = 1; s <= 20; ++s) seeds.push_back(s);
  return seeds;
}

struct WorkloadRecord {
  std::string name;
  double wall_s = 0.0;  ///< wall time of the best repetition
  std::uint64_t events = 0;
  double events_per_sec = 0.0;  ///< best across repetitions
  std::uint64_t max_queue_depth = 0;
  sim::Counters counters;  ///< of the last repetition
};

// Repeats a workload until it has either burned ~0.5 s or done `max_reps`
// runs, and keeps the best events/sec: the committed baseline should be the
// machine's capability, not its worst scheduling hiccup (observed run-to-run
// noise on shared machines is 10-15%, which eats into the 30% gate).
template <typename Fn>
WorkloadRecord best_of(const std::string& name, int max_reps, Fn&& once) {
  WorkloadRecord w;
  w.name = name;
  double total = 0.0;
  for (int rep = 0; rep < max_reps && (rep < 2 || total < 0.5); ++rep) {
    const Clock::time_point t0 = Clock::now();
    const WorkloadRecord r = once();
    const double s = seconds_since(t0);
    total += s;
    const double rate = static_cast<double>(r.events) / s;
    if (rate > w.events_per_sec) {
      w.events_per_sec = rate;
      w.wall_s = s;
    }
    w.events = r.events;
    w.max_queue_depth = r.max_queue_depth;
    w.counters = r.counters;
  }
  return w;
}

WorkloadRecord run_ocbcast_workload(std::size_t lines) {
  const int reps = lines >= 8192 ? 3 : 10;
  return best_of("ocbcast_" + std::to_string(lines), reps, [lines] {
    const harness::BcastRunResult r = run_broadcast(ocbcast_spec(lines));
    WorkloadRecord w;
    w.events = r.events;
    w.max_queue_depth = r.max_queue_depth;
    w.counters = r.counters;
    return w;
  });
}

// The plain 1024-line broadcast on a 256-core 16x16 mesh (one core per
// tile, noc::Topology::mesh) — tracks the event-loop cost of non-SCC
// geometry: topology-table lookups instead of the old global constants,
// and 5.3x the SCC's core count. Advisory in perf-smoke (schema v4).
WorkloadRecord run_ocbcast_mesh_workload() {
  return best_of("ocbcast_256core_mesh16x16", 5, [] {
    harness::BcastRunSpec spec = ocbcast_spec(1024);
    spec.config.topology = noc::Topology::mesh(16, 16, /*cores_per_tile=*/1);
    spec.params.parties = 0;  // all 256 cores
    const harness::BcastRunResult r = run_broadcast(spec);
    WorkloadRecord w;
    w.events = r.events;
    w.max_queue_depth = r.max_queue_depth;
    w.counters = r.counters;
    return w;
  });
}

// The same 1024-line broadcast with the ocb::check race checker installed:
// vector-clock bookkeeping on every MPB access, i.e. the cost of running
// "checked". The checker is bulk-capable (scc/observer.h), so the ops stay
// coalesced and hand it the per-line stream inline. Compare against
// ocbcast_1024 to see the overhead.
WorkloadRecord run_ocbcast_checked_workload() {
  return best_of("ocbcast_1024_checked", 10, [] {
    harness::BcastRunSpec spec = ocbcast_spec(1024);
    spec.check = true;
    const harness::BcastRunResult r = run_broadcast(spec);
    WorkloadRecord w;
    w.events = r.events;
    w.max_queue_depth = r.max_queue_depth;
    w.counters = r.counters;
    return w;
  });
}

// The same broadcast with a JsonTraceCollector sink installed: every
// transaction is recorded as a TraceEvent (the per-line stream, so the
// rendered bytes stay identical to a chain-off run). Each repetition
// gets a fresh collector, so memory stays bounded.
WorkloadRecord run_ocbcast_traced_workload() {
  return best_of("ocbcast_1024_traced", 10, [] {
    harness::BcastSession session(ocbcast_spec(1024));
    scc::JsonTraceCollector trace;
    session.chip().set_trace_sink(trace.sink());
    const harness::BcastRunResult r = session.run();
    WorkloadRecord w;
    w.events = r.events;
    w.max_queue_depth = r.max_queue_depth;
    w.counters = r.counters;
    return w;
  });
}

// The 1024-line broadcast through coll::AdaptiveBcast: the baked decision
// table resolves to the same OC-Bcast shape as ocbcast_1024, so the delta
// against that row is the online dispatch overhead (table lookup + quiesce
// bookkeeping). Advisory in perf-smoke — it informs, never gates.
WorkloadRecord run_adaptive_workload() {
  return best_of("adaptive_1024", 10, [] {
    harness::BcastRunSpec spec = ocbcast_spec(1024);
    spec.algorithm_name = "adaptive";
    const harness::BcastRunResult r = run_broadcast(spec);
    WorkloadRecord w;
    w.events = r.events;
    w.max_queue_depth = r.max_queue_depth;
    w.counters = r.counters;
    return w;
  });
}

WorkloadRecord run_fig4_workload() {
  return best_of("fig4_point_48cores", 3, [] {
    const harness::ContentionResult r =
        harness::measure_mpb_contention(scc::SccConfig{}, 48, 128, true, 4);
    WorkloadRecord w;
    w.events = r.events;
    w.max_queue_depth = r.max_queue_depth;
    return w;
  });
}

WorkloadRecord run_service_workload() {
  return best_of("service_mixed_load", 5, [] {
    const svc::ServiceMetrics m =
        svc::run_service(svc::ServiceConfig{}, service_traffic());
    WorkloadRecord w;
    w.events = m.engine_events;
    w.max_queue_depth = m.engine_max_queue_depth;
    w.counters = m.counters;
    return w;
  });
}

WorkloadRecord run_fault_sweep_workload() {
  return best_of("fault_sweep_20seeds", 1, [] {
    const harness::FaultSweepResult r =
        run_fault_sweep(fault_spec(), fault_seeds());
    WorkloadRecord w;
    for (const harness::FaultRunOutcome& o : r.outcomes) w.events += o.events;
    return w;
  });
}

// ---- JSON out / perf smoke --------------------------------------------

void append_record(std::ostringstream& out, const WorkloadRecord& w,
                   bool last) {
  char rate[64];
  std::snprintf(rate, sizeof(rate), "%.1f", w.events_per_sec);
  char wall[64];
  std::snprintf(wall, sizeof(wall), "%.6f", w.wall_s);
  out << "    {\n"
      << "      \"name\": \"" << w.name << "\",\n"
      << "      \"wall_s\": " << wall << ",\n"
      << "      \"events\": " << w.events << ",\n"
      << "      \"events_per_sec\": " << rate << ",\n"
      << "      \"max_queue_depth\": " << w.max_queue_depth << ",\n"
      << "      " << w.counters.to_json(",\n      ") << "\n"
      << "    }" << (last ? "\n" : ",\n");
}

int json_out_mode(const std::string& path) {
  std::vector<WorkloadRecord> records;
  for (std::size_t lines : {96, 1024, 8192}) {
    std::fprintf(stderr, "running ocbcast_%zu...\n", lines);
    records.push_back(run_ocbcast_workload(lines));
  }
  std::fprintf(stderr, "running ocbcast_256core_mesh16x16...\n");
  records.push_back(run_ocbcast_mesh_workload());
  std::fprintf(stderr, "running adaptive_1024...\n");
  records.push_back(run_adaptive_workload());
  std::fprintf(stderr, "running ocbcast_1024_checked...\n");
  records.push_back(run_ocbcast_checked_workload());
  std::fprintf(stderr, "running ocbcast_1024_traced...\n");
  records.push_back(run_ocbcast_traced_workload());
  std::fprintf(stderr, "running fig4_point_48cores...\n");
  records.push_back(run_fig4_workload());
  std::fprintf(stderr, "running service_mixed_load...\n");
  records.push_back(run_service_workload());
  std::fprintf(stderr, "running fault_sweep_20seeds...\n");
  records.push_back(run_fault_sweep_workload());

  std::ostringstream out;
  out << "{\n  \"schema\": \"ocb-bench-simulator-speed-v5\",\n"
      << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency()
      << ",\n"
      << "  \"workloads\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    append_record(out, records[i], i + 1 == records.size());
  }
  out << "  ]\n}\n";

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

// Minimal scan of our own --json_out format: the events_per_sec value of
// the named workload. Returns a negative value if not found.
double baseline_rate(const std::string& json, const std::string& workload) {
  const std::size_t at = json.find("\"name\": \"" + workload + "\"");
  if (at == std::string::npos) return -1.0;
  const std::string key = "\"events_per_sec\": ";
  const std::size_t k = json.find(key, at);
  if (k == std::string::npos) return -1.0;
  return std::strtod(json.c_str() + k + key.size(), nullptr);
}

// One gating comparison: run `live`, compare against the baseline's row.
// Returns false only on a gating failure; a missing baseline row (older
// schema) skips with a note so new rows can be introduced without breaking
// checkouts that still carry a pre-v3 baseline.
bool smoke_gate(const std::string& json, const std::string& row,
                const WorkloadRecord& live) {
  const double committed = baseline_rate(json, row);
  if (committed <= 0.0) {
    std::printf("perf-smoke %s: no baseline row (pre-v3 file?), skipping\n",
                row.c_str());
    return true;
  }
  const double floor = 0.7 * committed;
  std::printf(
      "perf-smoke %s: live %.3gM events/s vs committed %.3gM (floor %.3gM)\n",
      row.c_str(), live.events_per_sec / 1e6, committed / 1e6, floor / 1e6);
  if (live.events_per_sec < floor) {
    std::fprintf(stderr,
                 "perf-smoke FAILED: %s events/sec dropped more than 30%% "
                 "below the committed baseline. If the regression is "
                 "intentional, regenerate the baseline with "
                 "--json_out=results/bench_simulator_speed.json on an idle "
                 "machine and commit it.\n",
                 row.c_str());
    return false;
  }
  return true;
}

int perf_smoke_mode(const std::string& baseline_path) {
  std::ifstream file(baseline_path);
  if (!file) {
    std::fprintf(stderr, "perf-smoke: cannot read baseline %s\n",
                 baseline_path.c_str());
    return 1;
  }
  std::ostringstream buf;
  buf << file.rdbuf();
  const std::string json = buf.str();

  bool ok = true;
  // The gating set: the plain event loop plus the three observer-chain
  // workloads the capability model is meant to keep fast (schema v3).
  ok &= smoke_gate(json, "ocbcast_1024", run_ocbcast_workload(1024));
  ok &= smoke_gate(json, "ocbcast_1024_checked", run_ocbcast_checked_workload());
  ok &= smoke_gate(json, "ocbcast_1024_traced", run_ocbcast_traced_workload());
  ok &= smoke_gate(json, "service_mixed_load", run_service_workload());

  // The adaptive row is advisory: it tracks the dispatch overhead of
  // coll::AdaptiveBcast over the plain ocbcast_1024 row, but machine-level
  // scheduling noise on the wrapper path should not fail CI.
  {
    const double base = baseline_rate(json, "adaptive_1024");
    if (base > 0.0) {
      const WorkloadRecord live = run_adaptive_workload();
      std::printf(
          "perf-smoke adaptive_1024: live %.3gM events/s vs committed %.3gM "
          "(advisory)\n",
          live.events_per_sec / 1e6, base / 1e6);
      if (live.events_per_sec < 0.7 * base) {
        std::fprintf(stderr,
                     "perf-smoke WARNING: adaptive_1024 below the committed "
                     "baseline; not gating (advisory row)\n");
      }
    }
  }

  // The 256-core mesh row is advisory too: it tracks topology-table
  // geometry cost on a non-SCC chip, but it is new in schema v4 and sized
  // differently from the gating set, so it warns rather than fails.
  {
    const double base = baseline_rate(json, "ocbcast_256core_mesh16x16");
    if (base > 0.0) {
      const WorkloadRecord live = run_ocbcast_mesh_workload();
      std::printf(
          "perf-smoke ocbcast_256core_mesh16x16: live %.3gM events/s vs "
          "committed %.3gM (advisory)\n",
          live.events_per_sec / 1e6, base / 1e6);
      if (live.events_per_sec < 0.7 * base) {
        std::fprintf(stderr,
                     "perf-smoke WARNING: ocbcast_256core_mesh16x16 below the "
                     "committed baseline; not gating (advisory row)\n");
      }
    }
  }

  if (!ok) return 1;
  std::printf("perf-smoke PASSED\n");
  return 0;
}

// ---- google-benchmark mode (default) ----------------------------------

void bench_event_loop_throughput(benchmark::State& state) {
  // A 48-core OC-Bcast of the given size; report events/second.
  const auto lines = static_cast<std::size_t>(state.range(0));
  std::uint64_t events = 0;
  harness::BcastRunResult last{};
  for (auto _ : state) {
    last = run_broadcast(ocbcast_spec(lines));
    events += last.events;
  }
  state.counters["events_per_sec"] =
      benchmark::Counter(static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["events_per_run"] =
      static_cast<double>(events) / static_cast<double>(state.iterations());
  state.counters["max_queue_depth"] = static_cast<double>(last.max_queue_depth);
}
BENCHMARK(bench_event_loop_throughput)
    ->Arg(96)
    ->Arg(1024)
    ->Arg(8192)
    ->Unit(benchmark::kMillisecond)
    ->Name("simulator/ocbcast_events");

// The event queue alone: `depth` self-rescheduling callbacks keep `depth`
// events queued until they run out, each step one of the SCC cost
// parameters (scc/config.h) in a seeded order. Reports host ns per push +
// pop + dispatch.
struct QueueTicker {
  sim::Engine* engine;
  const std::vector<sim::Duration>* deltas;
  std::size_t next;
  std::uint64_t left;
};

void queue_tick(void* p) {
  auto* t = static_cast<QueueTicker*>(p);
  if (t->left == 0) return;
  --t->left;
  const sim::Duration d = (*t->deltas)[t->next++ % t->deltas->size()];
  t->engine->schedule_fn(t->engine->now() + d, &queue_tick, t);
}

std::vector<sim::Duration> scc_cost_deltas() {
  const scc::SccConfig c;
  const sim::Duration params[] = {
      c.l_hop,           c.link_occupancy,   c.t_mpb_port, c.o_mpb_core,
      c.o_mem_core_read, c.o_mem_core_write, c.t_mc_port,  c.o_put_mpb,
      c.o_get_mpb,       c.o_put_mem,        c.o_get_mem,  c.o_ipi_send,
      c.o_irq_entry,     c.o_cache_hit};
  Xoshiro256 rng(2026);
  std::vector<sim::Duration> deltas(4096);
  for (sim::Duration& d : deltas) d = params[rng.next_below(std::size(params))];
  return deltas;
}

// `crowded` gives ticker i the fixed step 1000 + (7919 i mod 997) ps of
// bench/e2e's sim.probe.event_ns probes instead: while every ticker runs,
// the co-prime steps put about 17 (depth 48) or 360 (depth 1024) events
// into each 512 ps slot, out of order, the only traffic on which the
// queue's slot sort runs hot.
void bench_event_queue(benchmark::State& state, bool crowded) {
  const auto depth = static_cast<std::size_t>(state.range(0));
  const std::uint64_t per_ticker = 2'000'000 / depth;
  const std::vector<sim::Duration> deltas = scc_cost_deltas();
  std::vector<std::vector<sim::Duration>> steps(depth);
  for (std::size_t i = 0; i < depth; ++i) steps[i] = {1000 + (i * 7919) % 997};
  std::uint64_t events = 0;
  double seconds = 0.0;
  for (auto _ : state) {
    sim::Engine engine;
    std::vector<QueueTicker> tickers(depth);
    for (std::size_t i = 0; i < depth; ++i) {
      // Staggered starting points, so the tickers interleave.
      tickers[i] = crowded ? QueueTicker{&engine, &steps[i], 0, per_ticker}
                           : QueueTicker{&engine, &deltas, 37 * i, per_ticker};
      queue_tick(&tickers[i]);
    }
    const Clock::time_point t0 = Clock::now();
    const sim::RunResult r = engine.run();
    seconds += seconds_since(t0);
    benchmark::DoNotOptimize(r.events_processed);
    events += r.events_processed;
  }
  state.counters["ns_per_event"] = seconds * 1e9 / static_cast<double>(events);
  state.counters["depth"] = static_cast<double>(depth);
}
BENCHMARK_CAPTURE(bench_event_queue, scc_costs, false)
    ->Arg(48)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond)
    ->Name("simulator/event_queue");
BENCHMARK_CAPTURE(bench_event_queue, crowded, true)
    ->Arg(48)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond)
    ->Name("simulator/event_queue_crowded");

// scc::DataCache alone, as a 48-core chip drives it: 48 caches of the
// default capacity, touched round-robin in 96-line chunks. `fill` inserts
// one capacity of new lines into each (no eviction, paper_fig8's pattern);
// `stream` inserts four, evicting past capacity (svc_poisson's pattern).
// Reports host ns per insert.
void bench_data_cache(benchmark::State& state, std::size_t capacities) {
  constexpr std::size_t kCaches = 48;
  constexpr std::size_t kChunkLines = 96;
  const std::size_t capacity = scc::SccConfig{}.cache_capacity_lines;
  const std::size_t lines = capacities * capacity;
  std::uint64_t calls = 0;
  double seconds = 0.0;
  for (auto _ : state) {
    std::vector<scc::DataCache> caches;
    for (std::size_t c = 0; c < kCaches; ++c) caches.emplace_back(capacity);
    const Clock::time_point t0 = Clock::now();
    for (std::size_t begin = 0; begin < lines; begin += kChunkLines) {
      const std::size_t end = std::min(begin + kChunkLines, lines);
      for (scc::DataCache& cache : caches) {
        for (std::size_t line = begin; line < end; ++line) {
          cache.insert(line * kCacheLineBytes);
        }
      }
    }
    seconds += seconds_since(t0);
    calls += kCaches * lines;
    benchmark::DoNotOptimize(caches.back().size());
  }
  state.counters["ns_per_call"] = seconds * 1e9 / static_cast<double>(calls);
}
BENCHMARK_CAPTURE(bench_data_cache, fill, 1)
    ->Unit(benchmark::kMillisecond)
    ->Name("simulator/data_cache/fill");
BENCHMARK_CAPTURE(bench_data_cache, stream, 4)
    ->Unit(benchmark::kMillisecond)
    ->Name("simulator/data_cache/stream");

void bench_chip_construction(benchmark::State& state, const char* topology) {
  // Chip set-up cost by topology; it should grow linearly with the tiles.
  scc::SccConfig config;
  config.topology = noc::Topology::parse(topology);
  for (auto _ : state) {
    scc::SccChip chip(config);
    benchmark::DoNotOptimize(&chip.engine());
  }
  state.counters["tiles"] = config.topology.num_tiles();
}
BENCHMARK_CAPTURE(bench_chip_construction, scc, "scc")
    ->Unit(benchmark::kMicrosecond)
    ->Name("simulator/chip_construction/scc");
BENCHMARK_CAPTURE(bench_chip_construction, mesh16x16, "mesh:16x16")
    ->Unit(benchmark::kMicrosecond)
    ->Name("simulator/chip_construction/mesh:16x16");
BENCHMARK_CAPTURE(bench_chip_construction, dies2x2, "dies:2x2:mesh:16x8")
    ->Unit(benchmark::kMicrosecond)
    ->Name("simulator/chip_construction/dies:2x2:mesh:16x8");

void bench_bcast_1line(benchmark::State& state, const char* algorithm,
                       const char* topology) {
  // Host cost of one 1-line broadcast over every core of a prebuilt
  // session: per-call planning and coroutine set-up, barely any transfer.
  // A per-broadcast cost that grows faster than the chip shows as a
  // host_ns_per_core that rises with the topology.
  harness::BcastRunSpec spec = ocbcast_spec(1);
  spec.algorithm_name = algorithm;
  spec.params.parties = 0;
  spec.config.topology = noc::Topology::parse(topology);
  harness::BcastSession session(spec);
  double seconds = 0.0;
  for (auto _ : state) {
    const Clock::time_point t0 = Clock::now();
    const harness::BcastRunResult r = session.run();
    seconds += seconds_since(t0);
    benchmark::DoNotOptimize(r.events);
  }
  state.counters["host_ns_per_core"] =
      seconds * 1e9 /
      (static_cast<double>(state.iterations()) *
       spec.config.topology.num_cores());
}
BENCHMARK_CAPTURE(bench_bcast_1line, ocbcast_scc, "ocbcast", "scc")
    ->Unit(benchmark::kMicrosecond)
    ->Name("simulator/bcast_1line/ocbcast/scc");
BENCHMARK_CAPTURE(bench_bcast_1line, ocbcast_mesh16x16, "ocbcast",
                  "mesh:16x16")
    ->Unit(benchmark::kMicrosecond)
    ->Name("simulator/bcast_1line/ocbcast/mesh:16x16");
BENCHMARK_CAPTURE(bench_bcast_1line, ocbcast_dies2x2, "ocbcast",
                  "dies:2x2:mesh:16x8")
    ->Unit(benchmark::kMicrosecond)
    ->Name("simulator/bcast_1line/ocbcast/dies:2x2:mesh:16x8");
BENCHMARK_CAPTURE(bench_bcast_1line, hier_scc, "hier-ocbcast", "scc")
    ->Unit(benchmark::kMicrosecond)
    ->Name("simulator/bcast_1line/hier-ocbcast/scc");
BENCHMARK_CAPTURE(bench_bcast_1line, hier_mesh16x16, "hier-ocbcast",
                  "mesh:16x16")
    ->Unit(benchmark::kMicrosecond)
    ->Name("simulator/bcast_1line/hier-ocbcast/mesh:16x16");
BENCHMARK_CAPTURE(bench_bcast_1line, hier_dies2x2, "hier-ocbcast",
                  "dies:2x2:mesh:16x8")
    ->Unit(benchmark::kMicrosecond)
    ->Name("simulator/bcast_1line/hier-ocbcast/dies:2x2:mesh:16x8");

void bench_event_loop_mesh(benchmark::State& state) {
  // The 1024-line OC-Bcast on a 256-core 16x16 mesh — the geometry-table
  // cost of a non-SCC topology at 5.3x the core count.
  std::uint64_t events = 0;
  for (auto _ : state) {
    harness::BcastRunSpec spec = ocbcast_spec(1024);
    spec.config.topology = noc::Topology::mesh(16, 16, /*cores_per_tile=*/1);
    spec.params.parties = 0;
    const harness::BcastRunResult r = run_broadcast(spec);
    events += r.events;
  }
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(bench_event_loop_mesh)
    ->Unit(benchmark::kMillisecond)
    ->Name("simulator/ocbcast_256core_mesh16x16");

void bench_contention_experiment(benchmark::State& state) {
  std::uint64_t depth = 0;
  for (auto _ : state) {
    const auto r =
        harness::measure_mpb_contention(scc::SccConfig{}, 48, 128, true, 4);
    benchmark::DoNotOptimize(r.avg_us);
    depth = r.max_queue_depth;
  }
  state.counters["max_queue_depth"] = static_cast<double>(depth);
}
BENCHMARK(bench_contention_experiment)
    ->Unit(benchmark::kMillisecond)
    ->Name("simulator/fig4_point_48cores");

void bench_service_traffic_point(benchmark::State& state) {
  std::uint64_t events = 0;
  for (auto _ : state) {
    const svc::ServiceMetrics m =
        svc::run_service(svc::ServiceConfig{}, service_traffic());
    events += m.engine_events;
  }
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(bench_service_traffic_point)
    ->Unit(benchmark::kMillisecond)
    ->Name("simulator/service_mixed_load");

void bench_fault_sweep(benchmark::State& state) {
  for (auto _ : state) {
    const auto r = run_fault_sweep(fault_spec(), fault_seeds());
    benchmark::DoNotOptimize(r.runs_all_correct);
  }
}
BENCHMARK(bench_fault_sweep)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->Name("simulator/fault_sweep_20seeds");

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json_out=", 0) == 0) {
      return json_out_mode(arg.substr(std::string("--json_out=").size()));
    }
    if (arg.rfind("--perf_smoke=", 0) == 0) {
      return perf_smoke_mode(arg.substr(std::string("--perf_smoke=").size()));
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
