// Tests for the experiment harness: broadcast measurement, point-to-point
// op timing, the contention and mesh-stress experiments, and reporting.
#include <gtest/gtest.h>

#include "harness/measurement.h"
#include "harness/parallel.h"
#include "harness/report.h"
#include "harness/sweep.h"
#include "model/primitives.h"

namespace ocb::harness {
namespace {

TEST(RunBroadcast, BasicOcBcast) {
  BcastRunSpec spec;
  spec.message_bytes = 96 * 32;
  spec.iterations = 3;
  spec.warmup = 1;
  const BcastRunResult r = run_broadcast(spec);
  EXPECT_TRUE(r.content_ok);
  EXPECT_EQ(r.latency_us.count(), 3u);
  EXPECT_GT(r.latency_us.mean(), 0.0);
  EXPECT_GT(r.throughput_mbps, 0.0);
  EXPECT_GT(r.events, 0u);
}

TEST(RunBroadcast, DeterministicAcrossRuns) {
  BcastRunSpec spec;
  spec.message_bytes = 50 * 32;
  spec.iterations = 2;
  const BcastRunResult a = run_broadcast(spec);
  const BcastRunResult b = run_broadcast(spec);
  EXPECT_DOUBLE_EQ(a.latency_us.mean(), b.latency_us.mean());
  EXPECT_EQ(a.events, b.events);
}

TEST(RunBroadcast, IterationsAreIndependent) {
  // With rotating offsets and rendezvous separation, warm iterations must
  // not drift (deterministic, contention-identical conditions).
  BcastRunSpec spec;
  spec.message_bytes = 10 * 32;
  spec.iterations = 6;
  spec.warmup = 2;
  const BcastRunResult r = run_broadcast(spec);
  EXPECT_NEAR(r.latency_us.min(), r.latency_us.max(),
              0.02 * r.latency_us.mean());
}

TEST(BcastSession, ReuseMatchesFreshChip) {
  // A session reusing one chip across run() calls must reproduce the
  // fresh-chip samples exactly: a completed broadcast leaves no protocol
  // state behind, and the slot cursor keeps reads uncached.
  BcastRunSpec spec;
  spec.message_bytes = 70 * 32;
  spec.iterations = 3;
  spec.warmup = 1;
  const BcastRunResult fresh = run_broadcast(spec);
  BcastSession session(spec);
  const BcastRunResult first = session.run();
  const BcastRunResult second = session.run();
  ASSERT_EQ(first.latency_us.count(), fresh.latency_us.count());
  ASSERT_EQ(second.latency_us.count(), fresh.latency_us.count());
  for (std::size_t i = 0; i < fresh.latency_us.count(); ++i) {
    EXPECT_DOUBLE_EQ(first.latency_us.samples()[i],
                     fresh.latency_us.samples()[i]);
    EXPECT_DOUBLE_EQ(second.latency_us.samples()[i],
                     fresh.latency_us.samples()[i]);
  }
  EXPECT_TRUE(first.content_ok);
  EXPECT_TRUE(second.content_ok);
  // The simulated clock keeps advancing across calls on one chip, while
  // event counts are per-call deltas.
  EXPECT_GT(second.end_time, first.end_time);
  EXPECT_EQ(first.events, fresh.events);
}

TEST(RunBroadcast, ParallelMapMatchesSerial) {
  // Replicated runs share no mutable state, so a run inside a parallel_map
  // worker reproduces the same run on the calling thread exactly.
  BcastRunSpec spec;
  spec.algorithm_name = "binomial";
  spec.message_bytes = 8 * 32;
  spec.iterations = 1;
  spec.warmup = 0;
  const BcastRunResult serial = run_broadcast(spec);
  const std::vector<BcastRunResult> replicated = parallel_map(
      2, [&](std::size_t) { return run_broadcast(spec); }, /*threads=*/2);
  for (const BcastRunResult& r : replicated) {
    EXPECT_TRUE(r.content_ok);
    EXPECT_EQ(r.end_time, serial.end_time);
    EXPECT_EQ(r.events, serial.events);
    ASSERT_EQ(r.latency_us.count(), serial.latency_us.count());
    EXPECT_DOUBLE_EQ(r.latency_us.samples()[0], serial.latency_us.samples()[0]);
  }
}

TEST(RunBroadcast, AllAlgorithmsVerify) {
  for (const char* name : {"ocbcast", "binomial", "scatter-allgather"}) {
    BcastRunSpec spec;
    spec.algorithm_name = name;
    spec.message_bytes = 97 * 32;
    spec.iterations = 2;
    const BcastRunResult r = run_broadcast(spec);
    EXPECT_TRUE(r.content_ok);
  }
}

TEST(RunBroadcast, NonZeroRoot) {
  BcastRunSpec spec;
  spec.root = 29;
  spec.message_bytes = 200 * 32;
  spec.iterations = 2;
  EXPECT_TRUE(run_broadcast(spec).content_ok);
}

TEST(RunBroadcast, BudgetGuardTriggers) {
  BcastRunSpec spec;
  spec.message_bytes = 8u << 20;  // 8 MiB
  spec.iterations = 20;           // 168 MiB of slots > budget
  EXPECT_THROW(run_broadcast(spec), PreconditionError);
}

TEST(OpMeasurement, MatchesModelAcrossDistances) {
  const model::ModelParams p = model::ModelParams::paper();
  scc::SccConfig cfg;
  cfg.cache_enabled = false;
  for (int d : {1, 3, 5, 9}) {
    const auto [actor, target] = core_pair_at_mpb_distance(d);
    const double measured =
        measure_op_completion_us(cfg, OpKind::kGetMpbToMpb, actor, target, 8, 4);
    EXPECT_NEAR(measured, sim::to_us(model::get_to_mpb_completion(p, 8, d)), 1e-9)
        << "d=" << d;
  }
  for (int d : {1, 2, 3, 4}) {
    const CoreId c = core_at_mem_distance(d);
    const double measured =
        measure_op_completion_us(cfg, OpKind::kPutMemToMpb, c, c, 8, 4);
    // target==actor: put into own MPB, d_dst = 1.
    EXPECT_NEAR(measured, sim::to_us(model::put_from_mem_completion(p, 8, d, 1)),
                1e-9)
        << "mem d=" << d;
  }
}

TEST(OpMeasurement, PairFinders) {
  const noc::Topology& scc = noc::Topology::scc();
  for (int d = 1; d <= 9; ++d) {
    const auto [a, b] = core_pair_at_mpb_distance(d);
    EXPECT_NE(a, b);
    EXPECT_EQ(noc::Topology::routers_traversed(scc.tile_of_core(a),
                                               scc.tile_of_core(b)),
              d);
  }
  EXPECT_THROW(core_pair_at_mpb_distance(10), PreconditionError);
  EXPECT_THROW(core_at_mem_distance(5), PreconditionError);
}

TEST(Contention, KneeBeyondTwentyFourAccessors) {
  // §3.3: no measurable contention up to ~24 concurrent gets; clear
  // contention at 48. Queueing isolated per core (fixed distance).
  const scc::SccConfig cfg;
  const auto at8 = measure_mpb_contention(cfg, 8, 128, true, 4);
  const auto at24 = measure_mpb_contention(cfg, 24, 128, true, 4);
  const ContentionResult all = measure_mpb_contention(cfg, 48, 128, true, 4);
  // Fixed-distance core: queue-free up to 24 accessors.
  EXPECT_LT(at24.per_core_us[2], at8.per_core_us[2] * 1.10)
      << "24 accessors ~ uncontended";
  // Average jumps clearly between 24 and 48 (under positional arbitration
  // the backlog lands on the low-priority cores, dragging the average up).
  EXPECT_GT(all.avg_us, at24.avg_us * 1.25) << "48 accessors clearly contended";
  EXPECT_EQ(all.per_core_us.size(), 48u);
}

TEST(Contention, UnfairnessUnderFullLoad) {
  // "The slowest core is more than two times slower than the fastest."
  const scc::SccConfig cfg;  // positional arbitration by default
  const ContentionResult all = measure_mpb_contention(cfg, 48, 128, true, 4);
  const auto [min_it, max_it] =
      std::minmax_element(all.per_core_us.begin(), all.per_core_us.end());
  EXPECT_GT(*max_it / *min_it, 1.5);
}

TEST(Contention, FifoArbitrationIsFairer) {
  scc::SccConfig fifo;
  fifo.arbitration = sim::Arbitration::kFifo;
  scc::SccConfig positional;
  const auto spread = [](const ContentionResult& r) {
    const auto [a, b] = std::minmax_element(r.per_core_us.begin(), r.per_core_us.end());
    return *b / *a;
  };
  EXPECT_LT(spread(measure_mpb_contention(fifo, 48, 128, true, 4)),
            spread(measure_mpb_contention(positional, 48, 128, true, 4)));
}

TEST(Contention, SingleLinePutsShowSameKneeShape) {
  // Fig. 4b: 1-line puts stay near the single-core latency at small core
  // counts and contend visibly at 48.
  const scc::SccConfig cfg;
  const ContentionResult one = measure_mpb_contention(cfg, 1, 1, false, 4);
  const ContentionResult few = measure_mpb_contention(cfg, 12, 1, false, 4);
  const ContentionResult all = measure_mpb_contention(cfg, 48, 1, false, 4);
  EXPECT_LT(few.avg_us, one.avg_us * 1.25);
  EXPECT_GT(all.avg_us, one.avg_us * 1.5);
}

TEST(Contention, AccessorCountBoundedByTheConfiguredChip) {
  // The bound is the config's chip, not the SCC's 48 cores.
  scc::SccConfig cfg;
  cfg.topology = noc::Topology::mesh(8, 8, /*cores_per_tile=*/1);
  const ContentionResult all = measure_mpb_contention(cfg, 64, 8, true, 2);
  EXPECT_EQ(all.per_core_us.size(), 64u);
  for (double us : all.per_core_us) EXPECT_GT(us, 0.0);
  EXPECT_THROW(measure_mpb_contention(cfg, 65, 8, true, 2), PreconditionError);
}

TEST(MeshStress, LoadedLinkDoesNotSlowVictim) {
  // §3.3's headline: the mesh is not a contention point at SCC scale.
  const MeshStressResult r = measure_mesh_stress(scc::SccConfig{});
  EXPECT_GT(r.unloaded_us, 0.0);
  EXPECT_LT(r.loaded_us, r.unloaded_us * 1.05);
}

TEST(Sweep, ProducesOnePointPerSize) {
  BcastRunSpec base;
  base.warmup = 1;
  const std::vector<std::size_t> sizes{1, 8, 32};
  const Series s = sweep_message_sizes(base, "k=7", sizes);
  ASSERT_EQ(s.points.size(), 3u);
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    EXPECT_EQ(s.points[i].lines, sizes[i]);
    EXPECT_TRUE(s.points[i].content_ok);
    EXPECT_GT(s.points[i].latency_us, 0.0);
  }
  EXPECT_LT(s.points[0].latency_us, s.points[2].latency_us);
}

TEST(Sweep, SizeListsMatchThePaperRanges) {
  const auto small = small_message_sizes();
  EXPECT_EQ(small.front(), 1u);
  EXPECT_EQ(small.back(), 192u);
  EXPECT_TRUE(std::is_sorted(small.begin(), small.end()));
  EXPECT_TRUE(std::count(small.begin(), small.end(), 96));
  EXPECT_TRUE(std::count(small.begin(), small.end(), 97));

  const auto large = large_message_sizes();
  EXPECT_EQ(large.back(), 32768u);
  EXPECT_TRUE(std::count(large.begin(), large.end(), 97));
  EXPECT_TRUE(std::is_sorted(large.begin(), large.end()));
}

TEST(Sweep, LineupMatchesPaperFigures) {
  const std::vector<LineupEntry> lineup = paper_algorithm_lineup();
  ASSERT_EQ(lineup.size(), 5u);
  const char* labels[] = {"oc-bcast k=2", "oc-bcast k=7", "oc-bcast k=47",
                          "binomial", "scatter-allgather"};
  for (std::size_t i = 0; i < lineup.size(); ++i) {
    EXPECT_EQ(lineup[i].label, labels[i]);
    // Each label is what the entry's instance calls itself.
    scc::SccChip chip;
    EXPECT_EQ(coll::make(lineup[i].name, chip, lineup[i].params)->name(),
              labels[i]);
  }
}

TEST(Report, TablesRenderAllSeries) {
  Series a{"k=7", {{1, 10.0, 3.0, true}, {8, 20.0, 12.0, true}}};
  Series b{"binomial", {{1, 21.6, 1.4, true}}};
  const std::string lat = render_latency_table({a, b});
  EXPECT_NE(lat.find("k=7"), std::string::npos);
  EXPECT_NE(lat.find("binomial"), std::string::npos);
  EXPECT_NE(lat.find("21.60"), std::string::npos);
  const std::string tput = render_throughput_table({a});
  EXPECT_NE(tput.find("12.00"), std::string::npos);
}

TEST(Report, CorruptionIsFlaggedLoudly) {
  Series bad{"k=7", {{1, 10.0, 3.0, false}}};
  EXPECT_NE(render_latency_table({bad}).find("[CORRUPT]"), std::string::npos);
}

TEST(Report, ComparisonShowsDeviation) {
  const std::string out = render_comparison(
      {{"peak throughput", 34.30, 35.0, "MB/s"}, {"zero paper", 0.0, 5.0, "x"}});
  EXPECT_NE(out.find("peak throughput"), std::string::npos);
  EXPECT_NE(out.find("2.0%"), std::string::npos);
  EXPECT_NE(out.find("n/a"), std::string::npos);
}

}  // namespace
}  // namespace ocb::harness
