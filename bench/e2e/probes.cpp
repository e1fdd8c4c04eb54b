#include "probes.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "noc/mesh.h"
#include "noc/topology.h"
#include "rma/rma.h"
#include "scc/chip.h"
#include "sim/engine.h"
#include "sim/resource.h"
#include "sim/task.h"

namespace ocb::e2e {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

template <typename F>
double median_of_3(F&& probe) {
  std::vector<double> v = {probe(), probe(), probe()};
  std::sort(v.begin(), v.end());
  return v[1];
}

std::uint64_t scaled(double scale, std::uint64_t n) {
  return std::max<std::uint64_t>(1, static_cast<std::uint64_t>(
                                        static_cast<double>(n) * scale));
}

// --- sim: event heap, coroutine resume, arbitration -------------------------

/// A self-rescheduling callback: keeps one event pending until it runs out.
struct Ticker {
  sim::Engine* engine;
  std::uint64_t left;
  sim::Duration step;
};

void tick(void* p) {
  auto* t = static_cast<Ticker*>(p);
  if (t->left == 0) return;
  --t->left;
  t->engine->schedule_fn(t->engine->now() + t->step, &tick, t);
}

/// Host ns per event with `depth` events always pending.
double event_ns(int depth, std::uint64_t events) {
  sim::Engine engine;
  std::vector<Ticker> tickers(static_cast<std::size_t>(depth));
  for (int i = 0; i < depth; ++i) {
    // Co-prime steps interleave the tickers so the heap really reorders.
    const sim::Duration step = 1000 + static_cast<sim::Duration>((i * 7919) % 997);
    tickers[static_cast<std::size_t>(i)] = {
        &engine, events / static_cast<std::uint64_t>(depth), step};
    engine.schedule_fn(step, &tick, &tickers[static_cast<std::size_t>(i)]);
  }
  const auto t0 = Clock::now();
  const sim::RunResult r = engine.run();
  return seconds_since(t0) * 1e9 / static_cast<double>(r.events_processed);
}

sim::Task<void> sleeper(sim::Engine& engine, std::uint64_t n, sim::Duration d) {
  for (std::uint64_t i = 0; i < n; ++i) co_await engine.sleep(d);
}

/// Host ns per coroutine resume: 48 processes looping on engine.sleep.
double resume_ns(std::uint64_t resumes) {
  sim::Engine engine;
  for (int c = 0; c < 48; ++c) {
    engine.spawn(sleeper(engine, resumes / 48, 1000 + static_cast<sim::Duration>(c)));
  }
  const auto t0 = Clock::now();
  const sim::RunResult r = engine.run();
  return seconds_since(t0) * 1e9 / static_cast<double>(r.events_processed);
}

struct Requester {
  sim::ArbitratedServer* server;
  int priority;
  std::uint64_t left;
};

void on_served(void* p) {
  auto* r = static_cast<Requester*>(p);
  if (r->left == 0) return;
  --r->left;
  r->server->acquire(10 * sim::kNanosecond, r->priority, &on_served, r);
}

/// Host ns per ArbitratedServer grant with 48 requesters always queued
/// under positional arbitration (the MPB-port discipline).
double acquire_ns(std::uint64_t grants) {
  sim::Engine engine;
  sim::ArbitratedServer server(engine, sim::Arbitration::kPositional);
  std::vector<Requester> requesters(48);
  for (int i = 0; i < 48; ++i) {
    requesters[static_cast<std::size_t>(i)] = {&server, i, grants / 48};
    on_served(&requesters[static_cast<std::size_t>(i)]);
  }
  const auto t0 = Clock::now();
  engine.run();
  return seconds_since(t0) * 1e9 / static_cast<double>(server.total_served());
}

// --- noc: route booking ------------------------------------------------------

/// Host ns per Mesh::reserve_path over every (source, destination) tile
/// pair of `topology`, swept until at least `calls` bookings.
double reserve_path_ns(const std::string& topology, std::uint64_t calls) {
  scc::SccChip chip(noc::Topology::parse(topology));
  noc::Mesh& mesh = chip.mesh();
  std::vector<noc::TileCoord> tiles;
  for (int t = 0; t < chip.topology().num_tiles(); ++t) {
    tiles.push_back(chip.topology().tile_coord(t));
  }
  sim::Time departure = 0;
  std::uint64_t made = 0;
  const auto t0 = Clock::now();
  while (made < calls) {
    for (const noc::TileCoord src : tiles) {
      for (const noc::TileCoord dst : tiles) {
        mesh.reserve_path(departure, src, dst);
        departure += sim::kNanosecond;
      }
    }
    made += tiles.size() * tiles.size();
  }
  return seconds_since(t0) * 1e9 / static_cast<double>(made);
}

// --- scc: chip construction ---------------------------------------------------

double chip_ms(const std::string& topology, int reps) {
  const noc::Topology topo = noc::Topology::parse(topology);
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    auto chip = std::make_unique<scc::SccChip>(topo);
    ms.push_back(seconds_since(t0) * 1e3);
  }
  std::sort(ms.begin(), ms.end());
  return ms[ms.size() / 2];
}

// --- rma: multi-line get through scc::BulkOp ------------------------------------

/// Host ns per line of 96-line get_mpb_to_mem ops from core 0's MPB issued
/// by cores [1, last] concurrently; `coalescing` false forces the per-line
/// reference path.
double get_ns_per_line(int last, bool coalescing, std::uint64_t ops) {
  scc::SccConfig config;
  config.coalescing = coalescing;
  scc::SccChip chip(config);
  constexpr std::size_t kLines = 96;
  for (CoreId c = 1; c <= last; ++c) {
    chip.spawn(c, [ops](scc::Core& me) -> sim::Task<void> {
      for (std::uint64_t i = 0; i < ops; ++i) {
        const std::size_t offset = (i % 16) * kLines * kCacheLineBytes;
        co_await rma::get_mpb_to_mem(me, offset, rma::MpbAddr{0, 0}, kLines);
      }
    });
  }
  const auto t0 = Clock::now();
  chip.run();
  return seconds_since(t0) * 1e9 /
         static_cast<double>(static_cast<std::uint64_t>(last) * ops * kLines);
}

}  // namespace

Metrics run_probes(double scale) {
  Metrics m;
  auto ns = [&](const char* name, double v) { m[name] = {v, "ns"}; };
  ns("sim.probe.event_ns.d48",
     median_of_3([&] { return event_ns(48, scaled(scale, 10'000'000)); }));
  ns("sim.probe.event_ns.d1024",
     median_of_3([&] { return event_ns(1024, scaled(scale, 10'000'000)); }));
  ns("sim.probe.resume_ns",
     median_of_3([&] { return resume_ns(scaled(scale, 4'000'000)); }));
  ns("sim.probe.acquire_ns",
     median_of_3([&] { return acquire_ns(scaled(scale, 2'000'000)); }));
  ns("noc.probe.reserve_path_ns.scc",
     median_of_3([&] { return reserve_path_ns("scc", scaled(scale, 2'000'000)); }));
  ns("noc.probe.reserve_path_ns.mesh1024", median_of_3([&] {
       return reserve_path_ns("dies:2x2:mesh:16x8", scaled(scale, 1'000'000));
     }));
  m["scc.probe.chip_ms.scc"] = {
      chip_ms("scc", static_cast<int>(scaled(scale, 31))), "ms"};
  m["scc.probe.chip_ms.mesh1024"] = {
      chip_ms("dies:2x2:mesh:16x8", static_cast<int>(scaled(scale, 7))), "ms"};
  ns("rma.probe.get_ns_per_line.quiescent",
     median_of_3([&] { return get_ns_per_line(1, true, scaled(scale, 20'000)); }));
  ns("rma.probe.get_ns_per_line.busy",
     median_of_3([&] { return get_ns_per_line(47, true, scaled(scale, 40)); }));
  ns("rma.probe.get_ns_per_line.perline",
     median_of_3([&] { return get_ns_per_line(47, false, scaled(scale, 40)); }));
  return m;
}

}  // namespace ocb::e2e
