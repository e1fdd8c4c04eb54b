#include "harness/measurement.h"

#include <algorithm>

#include "check/checker.h"
#include "common/require.h"
#include "common/rng.h"
#include "rma/rma.h"
#include "sim/condition.h"

namespace ocb::harness {

BcastSession::BcastSession(const BcastRunSpec& spec)
    : spec_(spec),
      chip_(std::make_unique<scc::SccChip>(spec_.config)),
      algo_(coll::make(spec.algorithm_name, *chip_, spec.params)) {
  OCB_REQUIRE(spec_.message_bytes > 0, "empty message");
  OCB_REQUIRE(spec_.iterations >= 1, "need at least one measured iteration");
  OCB_REQUIRE(spec_.warmup >= 0, "negative warmup");
  if (spec_.check || check::requested_by_env()) {
    checker_ = std::make_unique<check::RaceChecker>(*chip_);
    chip_->add_observer(checker_.get());
  }
}

BcastSession::~BcastSession() = default;

BcastRunResult BcastSession::run() {
  scc::SccChip& chip = *chip_;
  const int parties = algo_->parties();
  const int total = spec_.warmup + spec_.iterations;

  // One fresh slot per iteration so no simulated cache can serve the root's
  // reads (§6.1); host seeding does not touch the simulated caches. The
  // cursor keeps later run() calls on fresh slots too.
  const std::size_t stride =
      cache_lines_for(spec_.message_bytes) * kCacheLineBytes;
  OCB_REQUIRE(static_cast<std::size_t>(next_slot_ + total) * stride <=
                  spec_.config.private_memory_limit / 4 * 3,
              "iterations * message size exceed the private-memory budget; "
              "lower the iteration count for this size");
  const int base_slot = next_slot_;
  next_slot_ += total;
  auto slot_offset = [stride, base_slot](int iteration) {
    return static_cast<std::size_t>(base_slot + iteration) * stride;
  };

  // Seed every slot of the root with a distinct pattern.
  for (int it = 0; it < total; ++it) {
    fill_pattern(
        chip.memory(spec_.root).host_bytes(slot_offset(it), spec_.message_bytes),
        0xfeed0000u + static_cast<std::uint64_t>(base_slot + it));
  }

  sim::Rendezvous rendezvous(chip.engine(), static_cast<std::size_t>(parties));
  std::vector<sim::Time> start(static_cast<std::size_t>(total), 0);
  std::vector<std::vector<sim::Time>> finish(
      static_cast<std::size_t>(total),
      std::vector<sim::Time>(static_cast<std::size_t>(parties), 0));

  coll::Collective* algo = algo_.get();
  for (CoreId c = 0; c < parties; ++c) {
    chip.spawn(c, [&, algo, total](scc::Core& me) -> sim::Task<void> {
      for (int it = 0; it < total; ++it) {
        co_await rendezvous.arrive();
        // Every party resumes at the same simulated instant, so one writer
        // suffices.
        if (me.id() == spec_.root) {
          start[static_cast<std::size_t>(it)] = me.now();
        }
        co_await algo->run(me, spec_.root, slot_offset(it), spec_.message_bytes);
        finish[static_cast<std::size_t>(it)][static_cast<std::size_t>(me.id())] =
            me.now();
      }
    });
  }

  const sim::RunResult run = chip.run();
  OCB_ENSURE(run.completed(),
             "broadcast deadlocked: " + std::to_string(run.stalled_processes) +
                 " cores never returned (algorithm protocol bug)");

  BcastRunResult out;
  // Engine counters are cumulative; report this call's delta.
  out.events = run.events_processed - events_seen_;
  events_seen_ = run.events_processed;
  out.simulated_ms = sim::to_seconds(run.end_time) * 1e3;
  out.end_time = run.end_time;
  out.max_queue_depth = run.max_queue_depth;
  out.counters = run.counters;
  for (int it = spec_.warmup; it < total; ++it) {
    const auto i = static_cast<std::size_t>(it);
    const sim::Time last = *std::max_element(finish[i].begin(), finish[i].end());
    OCB_ENSURE(last >= start[i], "negative iteration interval");
    out.latency_us.add(sim::to_us(last - start[i]));
  }
  out.throughput_mbps =
      static_cast<double>(spec_.message_bytes) / out.latency_us.mean();

  if (checker_ != nullptr) {
    // Sessions are reusable; report this call's delta like the event count.
    out.race_violations = checker_->total_detected() - races_seen_;
    races_seen_ = checker_->total_detected();
    if (out.race_violations > 0) out.race_report = checker_->report();
    // An OCB_CHECK-installed checker gates the run; spec.check reports.
    OCB_ENSURE(spec_.check || out.race_violations == 0, out.race_report);
  }

  if (spec_.verify) {
    for (int it = spec_.warmup; it < total; ++it) {
      const auto root_bytes =
          chip.memory(spec_.root).host_bytes(slot_offset(it), spec_.message_bytes);
      for (CoreId c = 0; c < parties; ++c) {
        if (c == spec_.root) continue;
        const auto got =
            chip.memory(c).host_bytes(slot_offset(it), spec_.message_bytes);
        if (!std::equal(root_bytes.begin(), root_bytes.end(), got.begin())) {
          out.content_ok = false;
        }
      }
    }
  }
  return out;
}

BcastRunResult run_broadcast(const BcastRunSpec& spec) {
  return BcastSession(spec).run();
}

std::pair<CoreId, CoreId> core_pair_at_mpb_distance(int d) {
  const noc::Topology& scc = noc::Topology::scc();
  for (CoreId a = 0; a < scc.num_cores(); ++a) {
    for (CoreId b = 0; b < scc.num_cores(); ++b) {
      if (a == b) continue;  // prefer distinct cores (d=1 = tile-mate access)
      if (noc::Topology::routers_traversed(scc.tile_of_core(a),
                                           scc.tile_of_core(b)) == d) {
        return {a, b};
      }
    }
  }
  OCB_REQUIRE(false, "no core pair at requested MPB distance");
  return {0, 0};
}

CoreId core_at_mem_distance(int d) {
  const noc::Topology& scc = noc::Topology::scc();
  for (CoreId c = 0; c < scc.num_cores(); ++c) {
    if (scc.mem_distance(c) == d) return c;
  }
  OCB_REQUIRE(false, "no core at requested memory distance");
  return 0;
}

double measure_op_completion_us(const scc::SccConfig& config, OpKind kind,
                                CoreId actor, CoreId target, std::size_t lines,
                                int iterations) {
  OCB_REQUIRE(iterations >= 1, "need at least one iteration");
  OCB_REQUIRE(lines >= 1 && lines <= kMpbCacheLines, "line count out of range");
  scc::SccChip chip(config);
  RunningStats stats;
  chip.spawn(actor, [&](scc::Core& me) -> sim::Task<void> {
    for (int it = 0; it < iterations; ++it) {
      // Rotate memory offsets so mem-reading ops never hit the cache.
      const std::size_t mem_off =
          static_cast<std::size_t>(it) * lines * kCacheLineBytes;
      const sim::Time t0 = me.now();
      switch (kind) {
        case OpKind::kGetMpbToMpb:
          co_await rma::get_mpb_to_mpb(me, 0, rma::MpbAddr{target, 0}, lines);
          break;
        case OpKind::kPutMpbToMpb:
          co_await rma::put_mpb_to_mpb(me, rma::MpbAddr{target, 0}, 0, lines);
          break;
        case OpKind::kGetMpbToMem:
          co_await rma::get_mpb_to_mem(me, mem_off, rma::MpbAddr{target, 0}, lines);
          break;
        case OpKind::kPutMemToMpb:
          co_await rma::put_mem_to_mpb(me, rma::MpbAddr{target, 0}, mem_off, lines);
          break;
      }
      stats.add(sim::to_us(me.now() - t0));
    }
  });
  const sim::RunResult run = chip.run();
  OCB_ENSURE(run.completed(), "op measurement stalled");
  return stats.mean();
}

ContentionResult measure_mpb_contention(const scc::SccConfig& config, int n_cores,
                                        std::size_t lines, bool use_get,
                                        int iterations) {
  scc::SccChip chip(config);
  n_cores = chip.resolve_parties(n_cores, /*minimum=*/1);
  sim::Rendezvous rendezvous(chip.engine(), static_cast<std::size_t>(n_cores));
  std::vector<RunningStats> per_core(static_cast<std::size_t>(n_cores));

  for (CoreId c = 0; c < n_cores; ++c) {
    chip.spawn(c, [&, use_get, lines, iterations](scc::Core& me) -> sim::Task<void> {
      for (int it = 0; it < iterations; ++it) {
        co_await rendezvous.arrive();
        const sim::Time t0 = me.now();
        if (use_get) {
          co_await rma::get_mpb_to_mpb(me, 0, rma::MpbAddr{0, 0}, lines);
        } else {
          // Each core owns a dedicated target line (the doneFlag pattern of
          // §3.3: concurrent 1-line puts to distinct locations).
          co_await rma::put_mpb_to_mpb(
              me, rma::MpbAddr{0, static_cast<std::size_t>(me.id())}, 0, 1);
        }
        per_core[static_cast<std::size_t>(me.id())].add(sim::to_us(me.now() - t0));
      }
    });
  }
  const sim::RunResult run = chip.run();
  OCB_ENSURE(run.completed(), "contention measurement stalled");

  ContentionResult out;
  out.events = run.events_processed;
  out.max_queue_depth = run.max_queue_depth;
  RunningStats all;
  for (const auto& s : per_core) {
    out.per_core_us.push_back(s.mean());
    all.add(s.mean());
  }
  out.avg_us = all.mean();
  return out;
}

MeshStressResult measure_mesh_stress(const scc::SccConfig& config, std::size_t lines) {
  // Victim: the core on tile (2,2) gets from the core on tile (3,2); the
  // response data crosses the (3,2)->(2,2) link.
  const noc::Topology& topo = config.topology;
  const auto first_core_at = [&topo](int x, int y) {
    return topo.first_core_of_tile(topo.tile_index(noc::TileCoord{x, y}));
  };
  const CoreId victim = first_core_at(2, 2);
  const CoreId victim_src = first_core_at(3, 2);

  auto run_once = [&](bool loaded) {
    scc::SccChip chip(config);
    RunningStats victim_stats;
    if (loaded) {
      for (CoreId c = 0; c < topo.num_cores(); ++c) {
        const noc::TileCoord t = topo.tile_of_core(c);
        if (t.y == 2 && (t.x == 2 || t.x == 3)) continue;  // victim tiles idle
        // Get from the row-2 core on the opposite side so the X-Y response
        // route crosses the stressed link (paper §3.3).
        const CoreId src = first_core_at(t.x >= 3 ? 0 : topo.mesh_cols() - 1, 2);
        chip.spawn(c, [&, src](scc::Core& me) -> sim::Task<void> {
          for (int it = 0; it < 64; ++it) {
            co_await rma::get_mpb_to_mpb(me, 0, rma::MpbAddr{src, 0}, 128);
          }
        });
      }
    }
    chip.spawn(victim, [&](scc::Core& me) -> sim::Task<void> {
      // Let the stress flows ramp up first.
      co_await me.chip().engine().sleep(50 * sim::kMicrosecond);
      for (int it = 0; it < 32; ++it) {
        const sim::Time t0 = me.now();
        co_await rma::get_mpb_to_mpb(me, 0, rma::MpbAddr{victim_src, 0}, lines);
        victim_stats.add(sim::to_us(me.now() - t0));
      }
    });
    const sim::RunResult run = chip.run();
    OCB_ENSURE(run.completed(), "mesh stress measurement stalled");
    return victim_stats.mean();
  };

  MeshStressResult out;
  out.unloaded_us = run_once(false);
  out.loaded_us = run_once(true);
  return out;
}

}  // namespace ocb::harness
