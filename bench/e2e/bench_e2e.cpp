// bench_e2e — end-to-end benchmark of the simulator: four seeded workloads
// timed from outside the public entry points (see README.md in this directory).
//
//   bench_e2e --workload=NAME [--seed=S] [--seconds=T] [--json_out=PATH]
//             [--trace=DIR]
//   bench_e2e --smoke
//
// A run first builds the workload's items several times without running
// them (setup_s), then repeats whole passes for the rest of T seconds and
// reports medians in reference seconds (see HostSpeed in workloads.h).
// --trace=DIR spends half the pass time on untraced passes and half on
// traced ones, adds the layer probes, and writes DIR/spans.json and
// DIR/layers.json. One process, one thread.
#include <sys/resource.h>
#include <sys/utsname.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/require.h"
#include "json.h"
#include "probes.h"
#include "workloads.h"

#ifndef OCB_E2E_BUILD_TYPE
#define OCB_E2E_BUILD_TYPE "unknown"
#endif

#ifdef __clang__
#define OCB_E2E_COMPILER "clang " __clang_version__
#else
#define OCB_E2E_COMPILER "gcc " __VERSION__
#endif

namespace ocb::e2e {
namespace {

using Clock = std::chrono::steady_clock;

// Set-up repetitions per run: at least kMinSetupReps, then more until
// kSetupBudgetS of set-up time or kMaxSetupReps. A 48-core set-up takes
// well under a millisecond, and its median needs many samples to shrug off
// a burst of host noise; mesh1024's 43 chips take about 2 s. The passes get
// what is left of the run's seconds.
constexpr std::size_t kMinSetupReps = 3;
constexpr std::size_t kMaxSetupReps = 31;
constexpr double kSetupBudgetS = 2.0;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every run prints all of these.
constexpr MetricSpec kEndToEnd[] = {
    {"run_s", "s"},           {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},   {"sim_latency_us", "sim_us"},
    {"sim_tail_us", "sim_us"}, {"sim_mbps", "sim_MB/s"},
};

// Every traced run prints all of these; a layer a workload does not reach
// reads 0.
constexpr MetricSpec kPerLayer[] = {
    {"sim.events", "count"},
    {"sim.max_queue_depth", "count"},
    {"sim.host_ns_per_event", "ns"},
    {"sim.host_ns_per_sim_us", "ns"},
    {"sim.probe.event_ns.d48", "ns"},
    {"sim.probe.event_ns.d1024", "ns"},
    {"sim.probe.resume_ns", "ns"},
    {"sim.probe.acquire_ns", "ns"},
    {"noc.probe.reserve_path_ns.scc", "ns"},
    {"noc.probe.reserve_path_ns.mesh1024", "ns"},
    {"noc.link_packets", "count"},
    {"noc.link_busy_max_frac", "frac"},
    {"scc.probe.chip_ms.scc", "ms"},
    {"scc.probe.chip_ms.mesh1024", "ms"},
    {"scc.mpb_port_served", "count"},
    {"scc.mpb_port_busy_max_frac", "frac"},
    {"scc.mc_port_served", "count"},
    {"scc.mc_port_busy_max_frac", "frac"},
    {"rma.probe.get_ns_per_line.quiescent", "ns"},
    {"rma.probe.get_ns_per_line.busy", "ns"},
    {"rma.probe.get_ns_per_line.perline", "ns"},
    {"core.wall_frac.ocbcast_k2", "frac"},
    {"core.wall_frac.ocbcast_k7", "frac"},
    {"core.wall_frac.ocbcast_k47", "frac"},
    {"core.wall_frac.binomial", "frac"},
    {"core.wall_frac.sag", "frac"},
    {"core.wall_frac.hier", "frac"},
    {"check.violations", "count"},
    {"check.overhead_frac", "frac"},
    {"fault.injections", "count"},
    {"fault.crashes", "count"},
    {"fault.gave_up", "count"},
    {"fault.stalled", "count"},
    {"svc.queue_wait_p50_us", "sim_us"},
    {"svc.queue_wait_p95_us", "sim_us"},
    {"svc.service_p50_us", "sim_us"},
    {"svc.service_p95_us", "sim_us"},
    {"svc.max_queue_depth", "count"},
    {"svc.rejected", "count"},
    {"svc.slot_busy_frac", "frac"},
    {"harness.sessions", "count"},
    {"bench.trace_overhead_frac", "frac"},
};

// Committed seed-0 results (results/fig8a_latency.json and
// results/whatif_topology.json) the smoke passes must reproduce.
struct Golden {
  const char* workload;
  const char* metric;
  const char* value;  ///< "%.3f" of the simulated value
};
constexpr Golden kGoldens[] = {
    {"paper_fig8", "fig8.k7_1_us", "7.002"},
    {"paper_fig8", "fig8.binomial_1_us", "9.110"},
    {"paper_fig8", "fig8.k7_96_us", "160.505"},
    {"mesh1024", "mesh.ocbcast_96_us", "361.226"},
    {"mesh1024", "mesh.hier_96_us", "331.748"},
};

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Sum over items of each item's median host time across passes, in
/// reference seconds or, with `speed` null, wall-clock seconds.
double sum_of_item_medians(const std::vector<Pass>& passes,
                           std::vector<Phase> Pass::*phases,
                           const HostSpeed* speed) {
  double total = 0.0;
  for (std::size_t i = 0; i < (passes.front().*phases).size(); ++i) {
    std::vector<double> item;
    for (const Pass& p : passes) {
      const Phase& phase = (p.*phases).at(i);
      item.push_back(speed != nullptr ? speed->reference_s(phase) : phase.host_s);
    }
    total += median(std::move(item));
  }
  return total;
}

/// Run-phase host time of one pass in reference seconds (run_s).
double run_s(const std::vector<Pass>& passes, const HostSpeed& speed) {
  return sum_of_item_medians(passes, &Pass::run_phases, &speed);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string host_json(const Workload& wl, std::uint64_t seed) {
  utsname u{};
  uname(&u);
  return std::string("{\"nproc\": ") +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"os\": " +
         json_string(std::string(u.sysname) + " " + u.release + " " + u.machine) +
         ", \"compiler\": " + json_string(OCB_E2E_COMPILER) +
         ", \"build_type\": " + json_string(OCB_E2E_BUILD_TYPE) +
         ", \"workload\": " + json_string(wl.name) +
         ", \"seed\": " + std::to_string(seed) +
         ", \"sizes\": " + json_string(wl.sizes) + "}";
}

std::string metrics_json(const Metrics& m) {
  std::string out = "{";
  for (auto it = m.begin(); it != m.end(); ++it) {
    out += (it == m.begin() ? "\n    " : ",\n    ") + json_string(it->first) +
           ": {\"value\": " + json_number(it->second.value) +
           ", \"unit\": " + json_string(it->second.unit) + "}";
  }
  return out + "}";
}

void print_metrics(const char* title, const Metrics& m) {
  std::printf("%s\n", title);
  for (const auto& [name, metric] : m) {
    std::printf("  %-38s %-14.6g %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
}

/// Repeats whole passes until `seconds` have elapsed (at least one). A
/// host-speed sample closes every pass.
std::vector<Pass> repeat(const Workload& wl, Ctx ctx, double seconds) {
  std::vector<Pass> passes;
  const int root = ctx.tracer != nullptr ? ctx.tracer->open(wl.name, 0) : 0;
  const auto t0 = Clock::now();
  do {
    Ctx pass_ctx = ctx;
    if (ctx.tracer != nullptr) {
      pass_ctx.parent_span =
          ctx.tracer->open("pass " + std::to_string(passes.size() + 1), root);
    }
    passes.push_back(wl.run(pass_ctx));
    ctx.speed->sample();
    if (ctx.tracer != nullptr) ctx.tracer->close(pass_ctx.parent_span);
  } while (seconds_since(t0) < seconds);
  if (ctx.tracer != nullptr) ctx.tracer->close(root);
  return passes;
}

/// One line per pass whose simulated outputs differ from the reference.
std::string nondeterminism(const Pass& reference, const std::vector<Pass>& passes,
                           const char* what) {
  std::string problems;
  for (std::size_t i = 0; i < passes.size(); ++i) {
    if (passes[i].fingerprint != reference.fingerprint ||
        passes[i].attempted != reference.attempted ||
        passes[i].failed != reference.failed) {
      problems += std::string("nondeterminism: ") + what + " pass " +
                  std::to_string(i + 1) + " differs from the first pass\n";
    }
  }
  return problems;
}

Metrics end_to_end(const std::vector<Pass>& passes,
                   const std::vector<Pass>& setups, const HostSpeed& speed) {
  Metrics m;
  m["run_s"] = {run_s(passes, speed), "s"};
  m["setup_s"] = {sum_of_item_medians(setups, &Pass::setup_phases, &speed), "s"};
  m["peak_rss_mb"] = {peak_rss_mib(), "MiB"};
  for (const MetricSpec& spec : kEndToEnd) {
    const auto it = passes.front().sim.find(spec.name);
    if (it != passes.front().sim.end()) m[spec.name] = it->second;
  }
  return m;
}

/// Simulated outputs outside the end-to-end set (goldens, paper error).
Metrics extras(const Pass& pass) {
  Metrics m = pass.sim;
  for (const MetricSpec& spec : kEndToEnd) m.erase(spec.name);
  return m;
}

Metrics per_layer(const std::vector<Pass>& traced,
                  const std::vector<Pass>& plain, const HostSpeed& speed,
                  const Metrics& probes, double check_overhead) {
  Metrics m;
  for (const MetricSpec& spec : kPerLayer) m[spec.name] = {0.0, spec.unit};
  auto set = [&](const std::string& name, const Metric& metric) {
    const auto it = m.find(name);
    OCB_REQUIRE(it != m.end() && it->second.unit == metric.unit,
                "per-layer metric not in the table: " + name);
    it->second = metric;
  };
  const Pass& first = traced.front();
  for (const auto& [name, metric] : first.layers) set(name, metric);
  for (const auto& [name, metric] : probes) set(name, metric);

  const double host_s = run_s(traced, speed);
  set("sim.events", {static_cast<double>(first.events), "count"});
  set("sim.max_queue_depth", {static_cast<double>(first.max_queue_depth), "count"});
  set("sim.host_ns_per_event",
      {host_s * 1e9 / std::max(1.0, static_cast<double>(first.events)), "ns"});
  set("sim.host_ns_per_sim_us",
      {host_s * 1e9 / std::max(1e-9, first.simulated_us), "ns"});

  double total = 0.0;
  std::map<std::string, double> groups;
  for (const Pass& p : traced) {
    total += p.run_s;
    for (const auto& [group, s] : p.group_run_s) groups[group] += s;
  }
  for (const auto& [group, s] : groups) {
    const std::string name = "core.wall_frac." + group;
    if (m.count(name) != 0) set(name, {s / total, "frac"});
  }

  set("check.violations", {static_cast<double>(first.race_violations), "count"});
  set("check.overhead_frac", {check_overhead, "frac"});
  set("harness.sessions", {static_cast<double>(first.sessions), "count"});
  set("bench.trace_overhead_frac", {host_s / run_s(plain, speed) - 1.0, "frac"});
  return m;
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  if (!out) {
    std::fprintf(stderr, "bench_e2e: cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 20.0;
  std::string json_out;
  std::string trace_dir;
  bool smoke = false;
};

int measure(const Workload& wl, const Args& args) {
  const auto started = Clock::now();
  HostSpeed speed;
  Ctx ctx;
  ctx.seed = args.seed;
  ctx.speed = &speed;
  const bool tracing = !args.trace_dir.empty();

  // Set-up phases take the latest host-speed sample, so one brackets every
  // repetition.
  std::vector<Pass> setups;
  double setup_total = 0.0;
  while (setups.size() < kMinSetupReps ||
         (setups.size() < kMaxSetupReps && setup_total < kSetupBudgetS)) {
    Ctx setup = ctx;
    setup.setup_only = true;
    speed.sample();
    setups.push_back(wl.run(setup));
    setup_total += setups.back().setup_s;
  }
  speed.sample();
  const double pass_seconds = std::max(0.0, args.seconds - seconds_since(started));
  const std::vector<Pass> plain =
      repeat(wl, ctx, tracing ? pass_seconds / 2 : pass_seconds);
  const Pass& reference = plain.front();
  std::string problems =
      reference.problems + nondeterminism(reference, plain, "untraced");
  const Metrics e2e = end_to_end(plain, setups, speed);
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const Pass& p : plain) {
    attempted += p.attempted;
    failed += p.failed;
  }

  Metrics layers;
  Tracer tracer;
  if (tracing) {
    Ctx traced_ctx = ctx;
    traced_ctx.tracer = &tracer;
    const std::vector<Pass> traced = repeat(wl, traced_ctx, pass_seconds / 2);
    problems += nondeterminism(reference, traced, "traced");
    for (const Pass& p : traced) {
      attempted += p.attempted;
      failed += p.failed;
    }
    double check_overhead = 0.0;
    if (std::string(wl.name) == "ft_faults_checked") {
      Ctx unchecked = ctx;
      unchecked.check_races = false;
      const std::vector<Pass> off = repeat(wl, unchecked, pass_seconds / 4);
      check_overhead = run_s(plain, speed) / run_s(off, speed) - 1.0;
    }
    layers = per_layer(traced, plain, speed, run_probes(1.0), check_overhead);
  }

  const bool correct = problems.empty() && failed == 0;
  // The same medians in wall-clock seconds, and how slow the host ran.
  const double wall_run_s = sum_of_item_medians(plain, &Pass::run_phases, nullptr);
  const double wall_setup_s =
      sum_of_item_medians(setups, &Pass::setup_phases, nullptr);
  std::printf("bench_e2e %s seed=%llu: %zu passes, %zu set-ups; wall clock: "
              "run %.4g s, set-up %.4g s; host slowdown %.3f\n",
              wl.name, static_cast<unsigned long long>(args.seed), plain.size(),
              setups.size(), wall_run_s, wall_setup_s, speed.slowdown());
  print_metrics("end_to_end:", e2e);
  print_metrics("extras:", extras(reference));
  if (tracing) print_metrics("per_layer:", layers);
  std::printf("attempted=%llu failed=%llu correct=%s\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), correct ? "true" : "false");
  if (!problems.empty()) std::fprintf(stderr, "%s", problems.c_str());

  const std::string host = host_json(wl, args.seed);
  bool written = true;
  if (!args.json_out.empty()) {
    std::string wall;
    for (const Pass& p : plain) {
      wall += (wall.empty() ? "" : ", ") + json_number(p.run_s);
    }
    std::string setup;
    for (const Pass& s : setups) {
      setup += (setup.empty() ? "" : ", ") + json_number(s.setup_s);
    }
    written = write_file(
        args.json_out,
        "{\"schema\": \"ocb-bench-e2e-v1\",\n \"host\": " + host +
            ",\n \"seconds\": " + json_number(args.seconds) +
            ",\n \"passes\": " + std::to_string(plain.size()) +
            ",\n \"pass_run_s\": [" + wall + "],\n \"setup_rep_s\": [" + setup +
            "],\n \"wall_run_s\": " + json_number(wall_run_s) +
            ",\n \"wall_setup_s\": " + json_number(wall_setup_s) +
            ",\n \"host_slowdown\": " + json_number(speed.slowdown()) +
            ",\n \"correct\": " + (correct ? "true" : "false") +
            ",\n \"attempted\": " + std::to_string(attempted) +
            ",\n \"failed\": " + std::to_string(failed) +
            ",\n \"problems\": " + json_string(problems) +
            ",\n \"end_to_end\": " + metrics_json(e2e) +
            ",\n \"extras\": " + metrics_json(extras(reference)) +
            ",\n \"per_layer\": " + metrics_json(layers) + "}\n");
  }
  if (tracing) {
    written = write_file(args.trace_dir + "/spans.json", tracer.to_json(host)) &&
              write_file(args.trace_dir + "/layers.json",
                         "{\"schema\": \"ocb-bench-e2e-layers-v1\",\n \"host\": " +
                             host + ",\n \"metrics\": " + metrics_json(layers) +
                             "}\n") &&
              written;
  }
  return correct && written ? 0 : 1;
}

/// Every workload shrunk: goldens, determinism, traced == untraced, and
/// every metric name and unit printed.
int smoke() {
  std::string problems;
  auto expect = [&](bool ok, const std::string& what) {
    if (!ok) problems += what + "\n";
  };
  const Metrics probes = run_probes(0.02);
  HostSpeed speed;
  for (const Workload& wl : workloads()) {
    // The same seed twice, the second time traced: one comparison checks
    // both determinism and that tracing is passive.
    Ctx ctx;
    ctx.smoke = true;
    ctx.speed = &speed;
    const Pass first = wl.run(ctx);
    speed.sample();
    Tracer tracer;
    Ctx traced_ctx = ctx;
    traced_ctx.tracer = &tracer;
    const Pass traced = wl.run(traced_ctx);
    speed.sample();
    Ctx setup_ctx = ctx;
    setup_ctx.setup_only = true;
    const Pass setup = wl.run(setup_ctx);
    speed.sample();

    const std::string name = wl.name;
    expect(first.problems.empty(), name + ": " + first.problems);
    expect(first.attempted > 0 && first.failed == 0, name + ": failed operations");
    expect(nondeterminism(first, {traced}, "traced").empty() &&
               first.sim == traced.sim,
           name + ": a traced rerun of the same seed gave different simulated "
                  "outputs");

    const Metrics e2e = end_to_end({first}, {setup}, speed);
    std::printf("%s (%s)\n", wl.name, wl.smoke_sizes);
    print_metrics("end_to_end:", e2e);
    print_metrics("extras:", extras(first));
    for (const MetricSpec& spec : kEndToEnd) {
      const auto it = e2e.find(spec.name);
      expect(it != e2e.end() && it->second.unit == spec.unit &&
                 it->second.value > 0.0,
             name + ": metric " + spec.name + " missing, zero or mis-unitized");
    }
    for (const Golden& g : kGoldens) {
      if (name != g.workload) continue;
      const auto it = first.sim.find(g.metric);
      char got[32] = "missing";
      if (it != first.sim.end()) {
        std::snprintf(got, sizeof(got), "%.3f", it->second.value);
      }
      expect(std::string(got) == g.value, name + ": " + g.metric + " = " + got +
                                              ", committed " + g.value);
    }
    const Metrics layers = per_layer({traced}, {first}, speed, probes, 0.0);
    print_metrics("per_layer:", layers);
    expect(layers.size() == std::size(kPerLayer), name + ": per-layer set incomplete");
  }
  if (!problems.empty()) {
    std::fprintf(stderr, "bench_e2e --smoke FAILED:\n%s", problems.c_str());
    return 1;
  }
  std::printf("bench_e2e --smoke: ok\n");
  return 0;
}

bool take(const std::string& arg, const char* flag, std::string& out) {
  const std::string prefix = std::string(flag) + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  out = arg.substr(prefix.size());
  return true;
}

int usage(const char* error) {
  std::fprintf(stderr, "bench_e2e: %s\n", error);
  std::fprintf(stderr,
               "usage: bench_e2e --workload=NAME [--seed=S] [--seconds=T] "
               "[--json_out=PATH] [--trace=DIR]\n       bench_e2e --smoke\n"
               "workloads:");
  for (const Workload& wl : workloads()) std::fprintf(stderr, " %s", wl.name);
  std::fprintf(stderr, "\n");
  return 2;
}

int main_impl(int argc, char** argv) {
  // The harness reads these; a run must not depend on the caller's shell.
  unsetenv("OCB_CHECK");
  unsetenv("OCB_PDES_THREADS");
  unsetenv("OCB_SWEEP_THREADS");

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    !defined(__OPTIMIZE__)
  std::fprintf(stderr,
               "bench_e2e: sanitized or unoptimized build; host times would "
               "be meaningless. Build with CMAKE_BUILD_TYPE=Release.\n");
  return 2;
#endif

  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (arg == "--smoke") {
      args.smoke = true;
    } else if (take(arg, "--workload", value)) {
      args.workload = value;
    } else if (take(arg, "--seed", value)) {
      char* end = nullptr;
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return usage("--seed takes a decimal integer");
    } else if (take(arg, "--seconds", value)) {
      char* end = nullptr;
      args.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args.seconds >= 0.0)) {
        return usage("--seconds takes a nonnegative number");
      }
    } else if (take(arg, "--json_out", value)) {
      args.json_out = value;
    } else if (take(arg, "--trace", value)) {
      args.trace_dir = value;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (args.smoke) return smoke();
  for (const Workload& wl : workloads()) {
    if (args.workload == wl.name) return measure(wl, args);
  }
  return usage(("unknown workload '" + args.workload + "'").c_str());
}

}  // namespace
}  // namespace ocb::e2e

int main(int argc, char** argv) {
  try {
    return ocb::e2e::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 1;
  }
}
