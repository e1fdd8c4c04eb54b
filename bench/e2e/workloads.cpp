#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <utility>

#include "harness/fault_sweep.h"
#include "harness/measurement.h"
#include "harness/paper_data.h"
#include "harness/sweep.h"
#include "json.h"
#include "noc/routing.h"
#include "noc/topology.h"
#include "scc/chip.h"
#include "svc/service.h"
#include "svc/traffic.h"

namespace ocb::e2e {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

void add(Metrics& m, const std::string& name, double v, const char* unit) {
  Metric& slot = m[name];
  slot.value += v;
  slot.unit = unit;
}

void raise(Metrics& m, const std::string& name, double v, const char* unit) {
  Metric& slot = m[name];
  slot.value = std::max(slot.value, v);
  slot.unit = unit;
}

/// Times one item's set-up and run phases into the pass totals and, in
/// traced passes, records the spans item -> {setup, run}.
class Item {
 public:
  Item(const Ctx& ctx, Pass& pass, const std::string& name, std::string group)
      : ctx_(ctx), pass_(pass), group_(std::move(group)) {
    if (ctx_.tracer != nullptr) span_ = ctx_.tracer->open(name, ctx_.parent_span);
  }
  ~Item() {
    if (ctx_.tracer != nullptr) ctx_.tracer->close(span_);
  }
  Item(const Item&) = delete;
  Item& operator=(const Item&) = delete;

  template <typename F>
  auto setup(F&& build) {
    return timed("setup", ctx_.speed->latest(), pass_.setup_s,
                 pass_.setup_phases, std::forward<F>(build));
  }

  template <typename F>
  auto run(F&& work) {
    auto out = timed("run", ctx_.speed->sample(), pass_.run_s, pass_.run_phases,
                     std::forward<F>(work));
    pass_.group_run_s[group_] += pass_.run_phases.back().host_s;
    return out;
  }

 private:
  template <typename F>
  auto timed(const char* name, std::size_t speed_sample, double& total,
             std::vector<Phase>& phases, F&& f) {
    const int span = ctx_.tracer != nullptr ? ctx_.tracer->open(name, span_) : 0;
    const auto t0 = Clock::now();
    auto out = f();
    const double s = seconds_since(t0);
    if (ctx_.tracer != nullptr) ctx_.tracer->close(span);
    total += s;
    phases.push_back({s, speed_sample});
    return out;
  }

  const Ctx& ctx_;
  Pass& pass_;
  std::string group_;
  int span_ = 0;
};

bool has_neighbour(const noc::Topology& topo, noc::TileCoord from,
                   noc::Direction dir) {
  switch (dir) {
    case noc::Direction::kEast: return from.x + 1 < topo.mesh_cols();
    case noc::Direction::kWest: return from.x > 0;
    case noc::Direction::kNorth: return from.y > 0;
    case noc::Direction::kSouth: return from.y + 1 < topo.mesh_rows();
  }
  return false;
}

/// Adds one chip's link and port counters to the pass's per-layer metrics.
/// Busy fractions are over the chip's whole simulated run.
void collect_chip(scc::SccChip& chip, Pass& pass) {
  const noc::Topology& topo = chip.topology();
  const double span = std::max(1.0, static_cast<double>(chip.now()));
  std::uint64_t packets = 0;
  double link_busy = 0.0;
  for (int t = 0; t < topo.num_tiles(); ++t) {
    const noc::TileCoord from = topo.tile_coord(t);
    for (const noc::Direction dir :
         {noc::Direction::kEast, noc::Direction::kWest, noc::Direction::kNorth,
          noc::Direction::kSouth}) {
      if (!has_neighbour(topo, from, dir)) continue;
      const noc::LinkId link = noc::link_id(topo, from, dir);
      packets += chip.mesh().link_packets(link);
      link_busy = std::max(
          link_busy,
          static_cast<double>(chip.mesh().link_total_occupancy(link)) / span);
    }
  }
  add(pass.layers, "noc.link_packets", static_cast<double>(packets), "count");
  raise(pass.layers, "noc.link_busy_max_frac", link_busy, "frac");

  std::uint64_t mpb_served = 0;
  double mpb_busy = 0.0;
  for (int t = 0; t < topo.num_tiles(); ++t) {
    const sim::ArbitratedServer& port = chip.mpb_port(t);
    mpb_served += port.total_served();
    mpb_busy = std::max(mpb_busy, static_cast<double>(port.busy_time()) / span);
  }
  add(pass.layers, "scc.mpb_port_served", static_cast<double>(mpb_served), "count");
  raise(pass.layers, "scc.mpb_port_busy_max_frac", mpb_busy, "frac");

  std::uint64_t mc_served = 0;
  double mc_busy = 0.0;
  for (int m = 0; m < topo.num_memory_controllers(); ++m) {
    const sim::ArbitratedServer& port = chip.mc_port(m);
    mc_served += port.total_served();
    mc_busy = std::max(mc_busy, static_cast<double>(port.busy_time()) / span);
  }
  add(pass.layers, "scc.mc_port_served", static_cast<double>(mc_served), "count");
  raise(pass.layers, "scc.mc_port_busy_max_frac", mc_busy, "frac");
}

// --- closed-loop broadcast points (paper_fig8, mesh1024) -------------------

struct Point {
  const char* algorithm;
  int k;  ///< OC-Bcast fan-out; 0 keeps the registry default
  std::size_t lines;
  int iterations;  ///< 0 = harness::default_iterations(lines)
  int warmup;
  std::string group;  ///< core.wall_frac.* label
  int placement = 0;  ///< root = (seed + placement * root_stride) mod cores
};

using PointResults = std::vector<std::pair<Point, harness::BcastRunResult>>;

// Every iteration of a closed loop with one deterministic caller repeats
// exactly, so a point has no latency distribution of its own. What varies
// is where the root sits: the latency median and tail of paper_fig8 and
// mesh1024 are taken over one small broadcast from each of kRoots roots
// spread over the chip, p75 leaving ten of them beyond.
constexpr int kRoots = 40;
constexpr int kSmokeRoots = 3;

int root_stride(int cores) { return std::max(1, cores / kRoots) | 1; }

/// One BcastSession per point on `topology`.
PointResults run_points(const Ctx& ctx, Pass& pass, const std::string& topology,
                        const std::vector<Point>& points) {
  PointResults results;
  for (const Point& p : points) {
    const std::string name = p.group + " " + std::to_string(p.lines) + " lines" +
                             (p.placement > 0 ? " root " + std::to_string(p.placement)
                                              : "");
    Item item(ctx, pass, name, p.group);
    auto session = item.setup([&] {
      harness::BcastRunSpec spec;
      spec.algorithm_name = p.algorithm;
      spec.params.parties = 0;  // the whole chip
      if (p.k > 0) spec.params.k = p.k;
      spec.config.topology = noc::Topology::parse(topology);
      const int cores = spec.config.topology.num_cores();
      spec.root = static_cast<CoreId>(
          (ctx.seed + static_cast<std::uint64_t>(p.placement * root_stride(cores))) %
          static_cast<std::uint64_t>(cores));
      spec.message_bytes = p.lines * kCacheLineBytes;
      spec.iterations =
          p.iterations > 0 ? p.iterations : harness::default_iterations(p.lines);
      spec.warmup = p.warmup;
      spec.verify = true;
      return std::make_unique<harness::BcastSession>(spec);
    });
    ++pass.sessions;
    if (ctx.setup_only) continue;

    const harness::BcastRunResult r = item.run([&] { return session->run(); });
    const auto measured = static_cast<std::uint64_t>(r.latency_us.count());
    pass.attempted += measured;
    if (!r.content_ok) {
      pass.failed += measured;
      pass.problems += name + ": delivery not byte-correct\n";
    }
    pass.race_violations += r.race_violations;
    pass.events += r.events;
    pass.max_queue_depth = std::max(pass.max_queue_depth, r.max_queue_depth);
    pass.simulated_us += sim::to_us(r.end_time);
    for (const double s : r.latency_us.samples()) pass.fingerprint.push_back(s);
    pass.fingerprint.push_back(static_cast<double>(r.events));
    pass.fingerprint.push_back(static_cast<double>(r.end_time));
    if (ctx.tracer != nullptr) collect_chip(session->chip(), pass);
    results.emplace_back(p, r);
  }
  return results;
}

const harness::BcastRunResult& find(const PointResults& results,
                                    const std::string& group,
                                    std::size_t lines) {
  for (const auto& [p, r] : results) {
    if (p.group == group && p.lines == lines) return r;
  }
  OCB_REQUIRE(false, "benchmark point missing: " + group);
  return results.front().second;
}

/// Runs `algorithm` at `lines` from every placement, one measured iteration
/// and no warm-up (a cold first broadcast takes as long as a warm one), and
/// sets sim_latency_us and sim_tail_us from the results.
void root_sweep(const Ctx& ctx, Pass& pass, const std::string& topology,
                const char* algorithm, int k, std::size_t lines,
                const std::string& group) {
  std::vector<Point> points;
  for (int j = 0; j < (ctx.smoke ? kSmokeRoots : kRoots); ++j) {
    points.push_back({algorithm, k, lines, 1, 0, group, j});
  }
  const PointResults results = run_points(ctx, pass, topology, points);
  if (ctx.setup_only) return;
  std::vector<double> latency;
  for (const auto& [p, r] : results) latency.push_back(r.latency_us.mean());
  pass.sim["sim_latency_us"] = {nearest_rank(latency, 0.50), "sim_us"};
  pass.sim["sim_tail_us"] = {nearest_rank(latency, 0.75), "sim_us"};
}

Pass paper_fig8(const Ctx& ctx) {
  Pass pass;
  std::vector<Point> points;
  auto oc = [&](int k, std::size_t lines) {
    points.push_back({"ocbcast", k, lines, 0, 1, "ocbcast_k" + std::to_string(k)});
  };
  if (ctx.smoke) {
    oc(7, 1);
    points.push_back({"binomial", 0, 1, 0, 1, "binomial"});
    oc(7, 96);
  } else {
    // Fig. 8a in full, then Fig. 8b's series at 2048 lines, where OC-Bcast
    // is within 3% of its 8192-line peak at under a third of the host time.
    for (const int k : {2, 7, 47}) {
      for (const std::size_t lines : harness::small_message_sizes()) oc(k, lines);
    }
    for (const std::size_t lines : harness::small_message_sizes()) {
      points.push_back({"binomial", 0, lines, 0, 1, "binomial"});
    }
    for (const int k : {2, 7, 47}) oc(k, 2048);
    points.push_back({"scatter-allgather", 0, 2048, 0, 1, "sag"});
  }
  const PointResults results = run_points(ctx, pass, "scc", points);
  root_sweep(ctx, pass, "scc", "ocbcast", 7, 1, "ocbcast_k7");
  if (ctx.setup_only) return pass;

  const harness::BcastRunResult& k7_1 = find(results, "ocbcast_k7", 1);
  pass.sim["fig8.k7_1_us"] = {k7_1.latency_us.mean(), "sim_us"};
  pass.sim["fig8.binomial_1_us"] = {
      find(results, "binomial", 1).latency_us.mean(), "sim_us"};
  if (ctx.smoke) {
    const harness::BcastRunResult& k7_96 = find(results, "ocbcast_k7", 96);
    pass.sim["fig8.k7_96_us"] = {k7_96.latency_us.mean(), "sim_us"};
    pass.sim["sim_mbps"] = {k7_96.throughput_mbps, "sim_MB/s"};
    return pass;
  }
  const harness::BcastRunResult& k7_peak = find(results, "ocbcast_k7", 2048);
  pass.sim["sim_mbps"] = {k7_peak.throughput_mbps, "sim_MB/s"};

  // Mean relative error against the paper's three numeric shape claims.
  namespace paper = harness::paper;
  const double k7_vs_binomial =
      (1.0 - k7_1.latency_us.mean() /
                 find(results, "binomial", 1).latency_us.mean()) *
      100.0;
  const double k7_vs_k2 =
      (1.0 - find(results, "ocbcast_k7", 144).latency_us.mean() /
                 find(results, "ocbcast_k2", 144).latency_us.mean()) *
      100.0;
  const double oc_vs_sag =
      k7_peak.throughput_mbps / find(results, "sag", 2048).throughput_mbps;
  const double err =
      (std::abs(k7_vs_binomial - paper::kMinLatencyImprovementPct) /
           paper::kMinLatencyImprovementPct +
       std::abs(k7_vs_k2 - paper::kK7VsK2LargeMsgImprovementPct) /
           paper::kK7VsK2LargeMsgImprovementPct +
       std::abs(oc_vs_sag - paper::kPeakThroughputRatio) /
           paper::kPeakThroughputRatio) /
      3.0 * 100.0;
  pass.sim["paper_err_pct"] = {err, "%"};
  return pass;
}

Pass mesh1024(const Ctx& ctx) {
  Pass pass;
  // The committed 96-line pair (one measured iteration gives the committed
  // means: iterations repeat exactly), then one cold 512-line hier broadcast.
  const std::string topology = "dies:2x2:mesh:16x8";
  std::vector<Point> points = {
      {"ocbcast", 0, 96, 1, 1, "ocbcast_k7"},
      {"hier-ocbcast", 0, 96, 1, 1, "hier"},
  };
  if (!ctx.smoke) points.push_back({"hier-ocbcast", 0, 512, 1, 0, "hier"});
  const PointResults results = run_points(ctx, pass, topology, points);
  root_sweep(ctx, pass, topology, "hier-ocbcast", 0, 1, "hier");
  if (ctx.setup_only) return pass;

  const harness::BcastRunResult& hier_96 = find(results, "hier", 96);
  pass.sim["mesh.hier_96_us"] = {hier_96.latency_us.mean(), "sim_us"};
  pass.sim["mesh.ocbcast_96_us"] = {
      find(results, "ocbcast_k7", 96).latency_us.mean(), "sim_us"};
  pass.sim["sim_mbps"] = {
      (ctx.smoke ? hier_96 : find(results, "hier", 512)).throughput_mbps,
      "sim_MB/s"};
  return pass;
}

// --- open-loop broadcast service (svc_poisson) ------------------------------

Pass svc_poisson(const Ctx& ctx) {
  Pass pass;
  // Four batches, each its own service and item: the host-speed samples
  // between items then bracket about 1 s of run phase, not one 4 s call.
  constexpr int kRequestsPerBatch = 50;
  const int batches = ctx.smoke ? 1 : 4;
  std::vector<double> latency;
  std::vector<double> queue_wait;
  std::vector<double> service_time;
  sim::Time slot_busy = 0;
  double delivered_bytes = 0.0;
  sim::Time makespan = 0;
  std::size_t max_queue_depth = 0;
  std::uint64_t rejected = 0;
  for (int b = 0; b < batches; ++b) {
    Item item(ctx, pass, "batch " + std::to_string(b + 1), "svc");
    auto service = item.setup([&] {
      // Fixed arrival streams; the seed rotates every request's root.
      // Seeding the generator itself swings p50 by 4x between seeds at
      // these request counts, which would drown any change under test.
      svc::TrafficSpec traffic;
      traffic.requests = kRequestsPerBatch;
      traffic.mean_gap_ns = 280'000;
      traffic.sizes = {{32, 2}, {4096, 2}, {32768, 1}};
      traffic.seed = 2026 + static_cast<std::uint64_t>(b);
      std::vector<svc::Request> stream = svc::generate_requests(traffic);
      auto s = std::make_unique<svc::BroadcastService>(svc::ServiceConfig{});
      const auto cores = static_cast<std::uint64_t>(s->chip().num_cores());
      for (svc::Request& r : stream) {
        r.root = static_cast<CoreId>(
            (static_cast<std::uint64_t>(r.root) + ctx.seed % cores) % cores);
      }
      s->submit(stream);
      return s;
    });
    ++pass.sessions;
    if (ctx.setup_only) continue;

    const svc::ServiceMetrics m = item.run([&] { return service->run(); });
    for (const svc::RequestOutcome& o : service->outcomes()) {
      ++pass.attempted;
      pass.fingerprint.push_back(static_cast<double>(o.start));
      pass.fingerprint.push_back(static_cast<double>(o.completion));
      pass.fingerprint.push_back(o.rejected ? 1.0 : 0.0);
      if (o.rejected || !o.content_ok) {
        ++pass.failed;
        pass.problems += "batch " + std::to_string(b + 1) + " request " +
                         std::to_string(o.id) +
                         (o.rejected ? ": rejected\n" : ": not byte-correct\n");
      }
      if (o.rejected) {
        latency.push_back(INFINITY);
        continue;
      }
      latency.push_back(sim::to_us(o.completion - o.arrival));
      queue_wait.push_back(sim::to_us(o.start - o.arrival));
      service_time.push_back(sim::to_us(o.completion - o.start));
      slot_busy += o.completion - o.start;
    }
    pass.race_violations += m.race_violations;
    pass.events += m.engine_events;
    pass.max_queue_depth = std::max(pass.max_queue_depth, m.engine_max_queue_depth);
    pass.simulated_us += sim::to_us(service->chip().now());
    pass.fingerprint.push_back(static_cast<double>(m.engine_events));
    pass.fingerprint.push_back(static_cast<double>(m.makespan));
    delivered_bytes += static_cast<double>(m.delivered_bytes);
    makespan += m.makespan;
    max_queue_depth = std::max(max_queue_depth, m.max_queue_depth);
    rejected += m.rejected;
    if (ctx.tracer != nullptr) collect_chip(service->chip(), pass);
  }
  if (ctx.setup_only) return pass;

  // 200 requests leave ten samples beyond p95.
  pass.sim["sim_latency_us"] = {nearest_rank(latency, 0.50), "sim_us"};
  pass.sim["sim_tail_us"] = {nearest_rank(latency, 0.95), "sim_us"};
  pass.sim["sim_mbps"] = {delivered_bytes / sim::to_us(makespan), "sim_MB/s"};

  if (ctx.tracer != nullptr) {
    Metrics& l = pass.layers;
    if (!queue_wait.empty()) {
      l["svc.queue_wait_p50_us"] = {nearest_rank(queue_wait, 0.50), "sim_us"};
      l["svc.queue_wait_p95_us"] = {nearest_rank(queue_wait, 0.95), "sim_us"};
      l["svc.service_p50_us"] = {nearest_rank(service_time, 0.50), "sim_us"};
      l["svc.service_p95_us"] = {nearest_rank(service_time, 0.95), "sim_us"};
    }
    l["svc.max_queue_depth"] = {static_cast<double>(max_queue_depth), "count"};
    l["svc.rejected"] = {static_cast<double>(rejected), "count"};
    const double slots = svc::ServiceConfig{}.slots;
    l["svc.slot_busy_frac"] = {
        static_cast<double>(slot_busy) /
            (slots * std::max(1.0, static_cast<double>(makespan))),
        "frac"};
  }
  return pass;
}

// --- fault runs under the race checker (ft_faults_checked) ------------------

constexpr std::size_t kFtBytes = 16 * 1024;

Pass ft_faults_checked(const Ctx& ctx) {
  Pass pass;
  const int runs = ctx.smoke ? 3 : 120;
  std::vector<double> latency;
  for (int i = 1; i <= runs; ++i) {
    Item item(ctx, pass, "fault run " + std::to_string(i), "ft_ocbcast");
    const harness::FaultRunSpec spec = item.setup([&] {
      // Two runs in three fail-stop one non-root core early in the
      // broadcast, the victims cycling through every rank after the root;
      // every third run corrupts MPB reads instead. Both kinds in one run
      // fail a few percent of runs (README.md, "Known failures"), so each
      // run gets one kind. With this mix p50 and p90 both land inside a
      // plateau of equal latencies rather than between two, so they do not
      // jump from seed to seed.
      harness::FaultRunSpec s;
      const int cores = s.config.topology.num_cores();
      s.root = static_cast<CoreId>(ctx.seed % static_cast<std::uint64_t>(cores));
      s.plan.seed = 1000 * ctx.seed + static_cast<std::uint64_t>(i);
      if (i % 3 != 0) {
        const int crash_run = i - 1 - i / 3;  // 0, 1, 2, ... over crash runs
        s.plan.crashes.push_back(
            {.core = (s.root + 1 + crash_run % (cores - 1)) % cores,
             .at = static_cast<sim::Time>(5 + 3 * (i % 15)) * sim::kMicrosecond});
      } else {
        s.plan.rates.mpb_read = 1e-4;
      }
      s.message_bytes = kFtBytes;
      s.check_races = ctx.check_races;
      return s;
    });
    ++pass.sessions;
    if (ctx.setup_only) continue;

    const harness::FaultRunOutcome o =
        item.run([&] { return harness::run_fault_once(spec); });
    const std::string name = "fault run " + std::to_string(i);
    ++pass.attempted;
    if (!o.all_survivors_correct()) {
      ++pass.failed;
      pass.problems += name + ": " + std::to_string(o.correct) + "/" +
                       std::to_string(o.survivors) + " survivors correct, " +
                       std::to_string(o.gave_up) + " gave up\n";
    }
    if (o.race_violations > 0) pass.problems += name + ": " + o.race_report;
    const std::size_t crashed = static_cast<std::size_t>(o.crashed);
    const std::size_t unplanned =
        o.stalled_processes > crashed ? o.stalled_processes - crashed : 0;
    if (unplanned > 0) {
      pass.problems += name + ": " + std::to_string(unplanned) +
                       " processes stalled that the plan did not crash\n";
      for (const std::string& d : o.stalled_details) pass.problems += "  " + d + "\n";
    }
    pass.race_violations += o.race_violations;
    pass.events += o.events;
    pass.simulated_us += o.latency_us;
    latency.push_back(o.latency_us);
    pass.fingerprint.push_back(o.latency_us);
    pass.fingerprint.push_back(static_cast<double>(o.events));
    pass.fingerprint.push_back(o.correct);
    pass.fingerprint.push_back(static_cast<double>(o.injections.total()));
    if (ctx.tracer != nullptr) {
      Metrics& l = pass.layers;
      add(l, "fault.injections",
          static_cast<double>(o.injections.total() - o.injections.crashes_applied),
          "count");
      add(l, "fault.crashes", o.crashed, "count");
      add(l, "fault.gave_up", o.gave_up, "count");
      add(l, "fault.stalled", static_cast<double>(unplanned), "count");
    }
  }
  if (ctx.setup_only) return pass;

  // 120 runs leave twelve samples beyond p90.
  const double median = nearest_rank(latency, 0.50);
  pass.sim["sim_latency_us"] = {median, "sim_us"};
  pass.sim["sim_tail_us"] = {nearest_rank(latency, 0.90), "sim_us"};
  pass.sim["sim_mbps"] = {static_cast<double>(kFtBytes) / median, "sim_MB/s"};
  return pass;
}

// --- host speed --------------------------------------------------------------

constexpr double kReferenceKernelS = 1e-3;
constexpr int kKernelSteps = 14'000;  // about 1 ms on the baseline host

volatile std::uint64_t kernel_sink = 0;

/// The reference kernel: an event heap, random updates of a 1 MiB table and
/// lookups in an open-addressing hash table, the operations the simulator
/// spends its time on. Its tables are walked untimed first, so a sample
/// does not depend on what the previous phase left in the caches.
double kernel_s() {
  static std::vector<std::uint64_t> table(std::size_t{1} << 17);
  // 4096 distinct keys in 8192 slots: probing always ends.
  static std::vector<std::uint64_t> keys(std::size_t{1} << 13);
  std::uint64_t sum = 0;
  for (const std::uint64_t c : table) sum += c;
  for (const std::uint64_t k : keys) sum += k;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> heap;
  heap.reserve(256);
  std::uint64_t x = 88172645463325252ULL;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };

  const auto t0 = Clock::now();
  for (std::uint32_t id = 0; id < 256; ++id) heap.emplace_back(next() % 1000, id);
  std::make_heap(heap.begin(), heap.end(), std::greater<>());
  for (int i = 0; i < kKernelSteps; ++i) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>());
    auto& [at, id] = heap.back();
    std::uint64_t& cell = table[next() & (table.size() - 1)];
    cell += id;
    sum += cell;
    const std::uint64_t key = 1 + (next() & 4095);
    std::size_t slot = (key * 0x9E3779B97F4A7C15ULL) >> 51;
    while (keys[slot] != 0 && keys[slot] != key) slot = (slot + 1) & (keys.size() - 1);
    keys[slot] = key;
    sum += slot;
    at += 1 + next() % 1000;
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
  }
  const double s = seconds_since(t0);
  kernel_sink = sum;
  return s;
}

}  // namespace

HostSpeed::HostSpeed() {
  kernel_s();  // first touch of the tables
  sample();
}

std::size_t HostSpeed::sample() {
  samples_.push_back(kernel_s());
  return latest();
}

double HostSpeed::reference_s(const Phase& phase) const {
  const double kernel = (samples_.at(phase.speed_sample) +
                         samples_.at(phase.speed_sample + 1)) /
                        2.0;
  return phase.host_s * kReferenceKernelS / kernel;
}

double HostSpeed::slowdown() const {
  std::vector<double> v = samples_;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2] / kReferenceKernelS;
}

Tracer::Tracer() : origin_(Clock::now()) {}

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
}

int Tracer::open(const std::string& name, int parent) {
  const int id = static_cast<int>(spans_.size()) + 1;
  spans_.push_back(Span{name, id, parent, now_us(), 0.0});
  return id;
}

void Tracer::close(int id) {
  spans_.at(static_cast<std::size_t>(id - 1)).end_us = now_us();
}

std::string Tracer::to_json(const std::string& meta) const {
  std::string out = "{\"displayTimeUnit\": \"ms\", \"otherData\": " + meta +
                    ",\n \"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out += "  {\"name\": " + json_string(s.name) +
           ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": " +
           json_number(s.start_us) + ", \"dur\": " +
           json_number(s.end_us - s.start_us) + ", \"args\": {\"id\": " +
           std::to_string(s.id) + ", \"parent\": " + std::to_string(s.parent) +
           "}}" + (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  return out + " ]}\n";
}

double nearest_rank(std::vector<double> samples, double p) {
  OCB_REQUIRE(!samples.empty(), "percentile of an empty sample");
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(samples.size())));
  return samples[std::clamp<std::size_t>(rank, 1, samples.size()) - 1];
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"paper_fig8",
       "ocbcast k=2/7/47 and binomial over harness::small_message_sizes(); "
       "ocbcast k=2/7/47 and scatter-allgather at 2048 lines; default "
       "iterations, 1 warm-up, verify on, root = seed mod 48; ocbcast k=7 at "
       "1 line from 40 roots (seed + j) mod 48, j = 0..39",
       "ocbcast k=7 and binomial at 1 line, ocbcast k=7 at 96 lines; the "
       "root sweep from 3 roots",
       &paper_fig8},
      {"mesh1024",
       "dies:2x2:mesh:16x8; ocbcast and hier-ocbcast at 96 lines (1 warm-up "
       "+ 1 measured), hier-ocbcast at 512 lines (1 cold measured), root = "
       "seed mod 1024; hier-ocbcast at 1 line from 40 roots (seed + 25 j) mod "
       "1024, j = 0..39",
       "dies:2x2:mesh:16x8; ocbcast and hier-ocbcast at 96 lines (1 warm-up "
       "+ 1 measured); the root sweep from 3 roots",
       &mesh1024},
      {"svc_poisson",
       "4 batches, each its own svc::BroadcastService with default config (2 "
       "slots, FIFO): 50 requests of TrafficSpec seed 2026 + batch, mix {32 "
       "B:2, 4 KiB:2, 32 KiB:1}, mean gap 280 us; every root rotated by seed "
       "mod 48",
       "as the full pass with one batch", &svc_poisson},
      {"ft_faults_checked",
       "120 run_fault_once calls of FT-OC-Bcast, 16 KiB, check_races, root = "
       "seed mod 48; run i = 1..120: i mod 3 != 0 FailStop of core (root + 1 "
       "+ c mod 47) mod 48 at 5 + 3*(i mod 15) us, c counting these runs from "
       "0; i mod 3 == 0 mpb_read rate 1e-4, plan.seed = 1000*seed + i",
       "as the full pass with runs i = 1..3", &ft_faults_checked},
  };
  return all;
}

}  // namespace ocb::e2e
