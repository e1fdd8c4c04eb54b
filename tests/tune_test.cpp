// Tests for the design-space autotuner: decision tables (coll/decision.h),
// the adaptive collective (coll/adaptive.h), and the offline explorer
// (tune/explorer.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "coll/adaptive.h"
#include "coll/decision.h"
#include "coll/registry.h"
#include "common/require.h"
#include "harness/measurement.h"
#include "scc/chip.h"
#include "tune/explorer.h"

namespace ocb {
namespace {

constexpr std::size_t kNoLimit = static_cast<std::size_t>(-1);

// --- decision tables --------------------------------------------------------

TEST(Decision, ChoiceKeyAndApply) {
  const coll::Choice c{"ocbcast", 2, 48, false};
  EXPECT_EQ(c.key(), "ocbcast/k2/c48/db0");
  coll::Params base;
  base.parties = 17;
  base.leaf_direct_to_memory = true;
  const coll::Params applied = c.apply(base);
  EXPECT_EQ(applied.k, 2);
  EXPECT_EQ(applied.chunk_lines, 48u);
  EXPECT_FALSE(applied.double_buffering);
  // Everything a choice does not pin passes through untouched.
  EXPECT_EQ(applied.parties, 17);
  EXPECT_TRUE(applied.leaf_direct_to_memory);
}

TEST(Decision, LookupIsFirstMatchInOrder) {
  const coll::DecisionTable table({
      coll::DecisionRule{4, kNumCores, 0.0, coll::Choice{"binomial", 2, 48, false}},
      coll::DecisionRule{kNoLimit, kNumCores, 0.0,
                         coll::Choice{"ocbcast", 7, 96, true}},
      coll::DecisionRule{kNoLimit, kNumCores, 1.0,
                         coll::Choice{"ft-ocbcast", 7, 96, true}},
  });
  EXPECT_EQ(table.lookup(1, 48, 0.0).algorithm, "binomial");
  EXPECT_EQ(table.lookup(4, 48, 0.0).algorithm, "binomial");
  EXPECT_EQ(table.lookup(5, 48, 0.0).algorithm, "ocbcast");
  // A faulty query skips every zero-fault band.
  EXPECT_EQ(table.lookup(1, 48, 0.01).algorithm, "ft-ocbcast");
}

TEST(Decision, ConstructorRequiresCatchAll) {
  EXPECT_THROW(coll::DecisionTable({}), PreconditionError);
  // Last rule bounded in size: not a catch-all.
  EXPECT_THROW(coll::DecisionTable({coll::DecisionRule{
                   192, kNumCores, 1.0, coll::Choice{}}}),
               PreconditionError);
  // Last rule bounded in fault rate: not a catch-all.
  EXPECT_THROW(coll::DecisionTable({coll::DecisionRule{
                   kNoLimit, kNumCores, 0.0, coll::Choice{}}}),
               PreconditionError);
}

TEST(Decision, JsonRoundTripIsIdentity) {
  const coll::DecisionTable table({
      coll::DecisionRule{96, kNumCores, 0.0, coll::Choice{"ocbcast", 2, 48, false}},
      coll::DecisionRule{kNoLimit, kNumCores, 0.125,
                         coll::Choice{"ocbcast", 7, 96, true}},
      coll::DecisionRule{kNoLimit, kNumCores, 1.0,
                         coll::Choice{"ft-ocbcast", 47, 96, true}},
  });
  const std::string json = table.to_json();
  EXPECT_NE(json.find("ocb-tune-decision-v1"), std::string::npos);
  const coll::DecisionTable back = coll::DecisionTable::from_json(json);
  EXPECT_EQ(back.to_json(), json);
  ASSERT_EQ(back.rules().size(), 3u);
  EXPECT_EQ(back.rules()[0].max_lines, 96u);
  EXPECT_EQ(back.rules()[1].max_fault_rate, 0.125);
  EXPECT_EQ(back.rules()[2].choice.key(), "ft-ocbcast/k47/c96/db1");
}

TEST(Decision, FromJsonRejectsWrongSchema) {
  EXPECT_THROW(coll::DecisionTable::from_json("{\"schema\": \"other\"}"),
               PreconditionError);
}

TEST(Decision, BakedInCoversTheWholeSpace) {
  const coll::DecisionTable& table = coll::DecisionTable::baked_in();
  EXPECT_EQ(table.lookup(1, 48, 0.0).algorithm, "ocbcast");
  EXPECT_EQ(table.lookup(32768, 48, 0.0).algorithm, "ocbcast");
  EXPECT_EQ(table.lookup(1, 48, 0.5).algorithm, "ft-ocbcast");
  EXPECT_EQ(table.lookup(kNoLimit, 48, 1.0).algorithm, "ft-ocbcast");
}

// --- the adaptive collective ------------------------------------------------

void seed(scc::SccChip& chip, CoreId core, std::size_t offset,
          std::size_t bytes, std::uint64_t salt) {
  auto w = chip.memory(core).host_bytes(offset, bytes);
  for (std::size_t i = 0; i < bytes; ++i) {
    w[i] = static_cast<std::byte>((i * 37 + salt) & 0xff);
  }
}

bool delivered(scc::SccChip& chip, CoreId root, int parties,
               std::size_t offset, std::size_t bytes) {
  const auto want = chip.memory(root).host_bytes(offset, bytes);
  for (CoreId c = 0; c < parties; ++c) {
    if (c == root) continue;
    const auto got = chip.memory(c).host_bytes(offset, bytes);
    if (!std::equal(want.begin(), want.end(), got.begin())) return false;
  }
  return true;
}

TEST(Adaptive, IsABuiltin) {
  EXPECT_TRUE(coll::registered("adaptive"));
  scc::SccChip chip;
  auto algo = coll::make("adaptive", chip);
  EXPECT_EQ(algo->name(), "adaptive");
  EXPECT_EQ(algo->parties(), kNumCores);
}

TEST(Adaptive, DeliversViaHarnessAtSmallAndLargeSizes) {
  for (const std::size_t bytes : {std::size_t{32}, std::size_t{8192}}) {
    harness::BcastRunSpec spec;
    spec.algorithm_name = "adaptive";
    spec.message_bytes = bytes;
    spec.iterations = 2;
    const harness::BcastRunResult r = harness::run_broadcast(spec);
    EXPECT_TRUE(r.content_ok) << bytes;
    EXPECT_GT(r.latency_us.mean(), 0.0) << bytes;
  }
}

TEST(Adaptive, SwitchesDelegateAcrossSizeBandsAndRecordsSelections) {
  // A table whose bands disagree: tiny messages go to binomial, the rest
  // to OC-Bcast — two rounds at different sizes must switch delegates.
  coll::DecisionTable table({
      coll::DecisionRule{2, kNumCores, 1.0, coll::Choice{"binomial", 2, 48, false}},
      coll::DecisionRule{kNoLimit, kNumCores, 1.0,
                         coll::Choice{"ocbcast", 7, 96, true}},
  });
  scc::SccChip chip;
  coll::AdaptiveBcast bcast(chip, {.adaptive_table_json = table.to_json()});

  const std::size_t small_bytes = 2 * kCacheLineBytes;
  const std::size_t big_bytes = 300 * kCacheLineBytes;
  seed(chip, 0, 0, small_bytes, 5);
  seed(chip, 0, 4096, big_bytes, 9);
  for (CoreId c = 0; c < kNumCores; ++c) {
    chip.spawn(c, [&bcast, small_bytes, big_bytes](
                      scc::Core& me) -> sim::Task<void> {
      co_await bcast.run(me, 0, 0, small_bytes);
      co_await bcast.run(me, 0, 4096, big_bytes);
    });
  }
  ASSERT_TRUE(chip.run().completed());
  EXPECT_TRUE(delivered(chip, 0, kNumCores, 0, small_bytes));
  EXPECT_TRUE(delivered(chip, 0, kNumCores, 4096, big_bytes));

  ASSERT_EQ(bcast.selections().size(), 2u);
  EXPECT_EQ(bcast.selections()[0].choice.algorithm, "binomial");
  EXPECT_EQ(bcast.selections()[0].lines, 2u);
  EXPECT_EQ(bcast.selections()[1].choice.algorithm, "ocbcast");
  EXPECT_EQ(bcast.selections()[1].lines, 300u);
}

TEST(Adaptive, FaultRateSteersToTheFtBand) {
  harness::BcastRunSpec spec;
  spec.algorithm_name = "adaptive";
  spec.params.observed_fault_rate = 0.01;
  spec.message_bytes = 4096;
  spec.iterations = 1;
  const harness::BcastRunResult r = harness::run_broadcast(spec);
  EXPECT_TRUE(r.content_ok);
}

TEST(Adaptive, CustomTableArrivesThroughParams) {
  coll::DecisionTable table({
      coll::DecisionRule{kNoLimit, kNumCores, 1.0,
                         coll::Choice{"scatter-allgather", 7, 96, true}},
  });
  harness::BcastRunSpec spec;
  spec.algorithm_name = "adaptive";
  spec.params.adaptive_table_json = table.to_json();
  spec.message_bytes = 48 * kCacheLineBytes;
  spec.iterations = 1;
  const harness::BcastRunResult r = harness::run_broadcast(spec);
  EXPECT_TRUE(r.content_ok);
}

TEST(Adaptive, RefusesServiceSlotLeases) {
  scc::SccChip chip;
  coll::Params params;
  params.mpb_base_line = 16;
  EXPECT_THROW(coll::AdaptiveBcast(chip, params), PreconditionError);
}

// --- the offline explorer ---------------------------------------------------

tune::ExplorerOptions tiny_grid() {
  tune::ExplorerOptions o;
  o.algorithms = {"ocbcast", "binomial"};
  o.sizes_lines = {1, 96};
  o.fanouts = {2, 7};
  o.chunk_grid = {96};
  o.buffering_grid = {true};
  o.iterations = 2;
  return o;
}

TEST(Explorer, TinyGridMeasuresEveryFeasiblePoint) {
  const tune::ExploreResult r = tune::explore(tiny_grid());
  // 2 sizes x (2 ocbcast shapes + 1 binomial) = 6 points.
  ASSERT_EQ(r.points.size(), 6u);
  for (const tune::PointResult& p : r.points) {
    EXPECT_TRUE(p.content_ok) << p.point.label();
    EXPECT_GT(p.latency_us, 0.0) << p.point.label();
    EXPECT_GT(p.throughput_mbps, 0.0) << p.point.label();
    EXPECT_EQ(p.resilience, -1.0) << p.point.label();  // no fault axis
  }
  // Each size has at least one front member, and front members are exactly
  // the points flagged pareto.
  ASSERT_FALSE(r.front.empty());
  for (const std::size_t lines : {std::size_t{1}, std::size_t{96}}) {
    EXPECT_TRUE(std::any_of(r.front.begin(), r.front.end(), [&](std::size_t i) {
      return r.points[i].point.lines == lines;
    })) << lines;
  }
  for (std::size_t i = 0; i < r.points.size(); ++i) {
    const bool in_front =
        std::find(r.front.begin(), r.front.end(), i) != r.front.end();
    EXPECT_EQ(r.points[i].pareto, in_front) << i;
  }
}

TEST(Explorer, FrontMembersAreUndominatedWithinTheirSize) {
  const tune::ExploreResult r = tune::explore(tiny_grid());
  for (const std::size_t fi : r.front) {
    const tune::PointResult& f = r.points[fi];
    for (const tune::PointResult& other : r.points) {
      if (other.point.lines != f.point.lines) continue;
      const bool strictly_better = other.latency_us < f.latency_us &&
                                   other.throughput_mbps > f.throughput_mbps;
      EXPECT_FALSE(strictly_better)
          << other.point.label() << " dominates front member "
          << f.point.label();
    }
  }
}

TEST(Explorer, DerivedTableDelegatesToThePerSizeWinner) {
  const tune::ExploreResult r = tune::explore(tiny_grid());
  const coll::DecisionTable table = tune::derive_table(r);
  for (const std::size_t lines : {std::size_t{1}, std::size_t{96}}) {
    double best = 0.0;
    std::string best_key;
    for (const tune::PointResult& p : r.points) {
      if (p.point.lines != lines || !p.content_ok) continue;
      if (best_key.empty() || p.latency_us < best) {
        best = p.latency_us;
        best_key = p.point.choice().key();
      }
    }
    EXPECT_EQ(table.lookup(lines, 48, 0.0).key(), best_key) << lines;
  }
  // Without fault data the fault catch-all routes to the FT protocol.
  EXPECT_EQ(table.lookup(1, 48, 0.5).algorithm, "ft-ocbcast");
}

TEST(Explorer, JsonRecordIsVersionedAndCarriesTheTable) {
  const tune::ExploreResult r = tune::explore(tiny_grid());
  const std::string json = tune::to_json(r);
  EXPECT_NE(json.find("\"ocb-tune-pareto-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"ocb-tune-decision-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"pareto\": true"), std::string::npos);
  // The embedded decision table parses back on its own.
  const std::size_t at = json.find("\"decision_table\":");
  ASSERT_NE(at, std::string::npos);
  const coll::DecisionTable table =
      coll::DecisionTable::from_json(json.substr(at));
  EXPECT_FALSE(table.rules().empty());
  // The report renders every point plus the derived table.
  const std::string report = tune::render_report(r);
  EXPECT_NE(report.find("ocbcast"), std::string::npos);
  EXPECT_NE(report.find("ocb-tune-decision-v1"), std::string::npos);
}

TEST(Explorer, ResilienceAxisScoresFtAboveUnprotected) {
  tune::ExplorerOptions o;
  o.algorithms = {"ocbcast", "ft-ocbcast"};
  o.sizes_lines = {8};
  o.fanouts = {7};
  o.chunk_grid = {96};
  o.buffering_grid = {true};
  o.iterations = 1;
  o.fault_rate = 0.02;  // per-MPB-read corruption probability
  o.fault_seeds = {1, 2};
  const tune::ExploreResult r = tune::explore(o);
  ASSERT_EQ(r.points.size(), 2u);
  double ocb = -2.0, ft = -2.0;
  for (const tune::PointResult& p : r.points) {
    (p.point.algorithm == "ft-ocbcast" ? ft : ocb) = p.resilience;
  }
  // The checksummed protocol survives read corruption; plain OC-Bcast is
  // at the injector's mercy.
  EXPECT_EQ(ft, 1.0);
  EXPECT_GE(ocb, 0.0);
  EXPECT_LE(ocb, 1.0);
  // And the derived fault band picks it.
  const coll::DecisionTable table = tune::derive_table(r);
  EXPECT_EQ(table.lookup(8, 48, 0.02).algorithm, "ft-ocbcast");
}

TEST(Explorer, RejectsEmptyAndUnknownGrids) {
  tune::ExplorerOptions empty;
  EXPECT_THROW(tune::explore(empty), PreconditionError);
  tune::ExplorerOptions unknown = tiny_grid();
  unknown.algorithms = {"no-such-algorithm"};
  EXPECT_THROW(tune::explore(unknown), PreconditionError);
}

}  // namespace
}  // namespace ocb
