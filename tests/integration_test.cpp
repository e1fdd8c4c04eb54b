// Cross-module integration tests: simulator vs. analytical model agreement,
// the paper's qualitative algorithm ordering on the simulator, determinism,
// and end-to-end properties that span harness + core + model.
#include <gtest/gtest.h>

#include "harness/measurement.h"
#include "harness/paper_data.h"
#include "model/broadcast_model.h"
#include "model/fit.h"

namespace ocb {
namespace {

harness::BcastRunResult run(const char* name, int k, std::size_t lines,
                            int iterations = 2) {
  harness::BcastRunSpec spec;
  spec.algorithm_name = name;
  spec.params.k = k;
  spec.message_bytes = lines * kCacheLineBytes;
  spec.iterations = iterations;
  spec.warmup = 1;
  const harness::BcastRunResult r = run_broadcast(spec);
  EXPECT_TRUE(r.content_ok);
  return r;
}

TEST(SimVsModel, OcBcastLatencyWithinModelEnvelope) {
  // The simulator adds real distances (d in 1..9 instead of the model's
  // d = 1) and real contention; the paper's §6.3 found measured ≈ modeled,
  // slightly above. Accept simulated within [~model, model * 1.35].
  model::BroadcastModel m(model::ModelParams::paper(), {});
  for (std::size_t lines : {1u, 32u, 96u, 192u}) {
    const double sim_us = run("ocbcast", 7, lines).latency_us.mean();
    const double model_us = sim::to_us(m.ocbcast_latency(lines, 7));
    EXPECT_GE(sim_us, model_us * 0.98) << lines;
    EXPECT_LE(sim_us, model_us * 1.35) << lines;
  }
}

TEST(SimVsModel, BinomialLatencyWithinModelEnvelope) {
  model::BroadcastModel m(model::ModelParams::paper(), {});
  for (std::size_t lines : {1u, 96u}) {
    const double sim_us =
        run("binomial", 7, lines).latency_us.mean();
    const double model_us = sim::to_us(m.binomial_latency(lines));
    EXPECT_GE(sim_us, model_us * 0.95) << lines;
    EXPECT_LE(sim_us, model_us * 1.35) << lines;
  }
}

TEST(PaperOrdering, OcBcastBeatsBinomialOnLatency) {
  // Fig. 8a: at least 27% improvement at 1 line; grows with size.
  const double oc1 = run("ocbcast", 7, 1).latency_us.mean();
  const double bi1 = run("binomial", 7, 1).latency_us.mean();
  EXPECT_LT(oc1, bi1);
  const double oc192 = run("ocbcast", 7, 192).latency_us.mean();
  const double bi192 = run("binomial", 7, 192).latency_us.mean();
  EXPECT_LT(oc192 / bi192, oc1 / bi1) << "gap grows with size";
}

TEST(PaperOrdering, OcBcastThroughputSeveralTimesScatterAllgather) {
  // Fig. 8b at a pipeline-filling size (kept moderate for test runtime).
  const double oc =
      run("ocbcast", 7, 4096, 2).throughput_mbps;
  const double sag =
      run("scatter-allgather", 7, 4096, 2).throughput_mbps;
  EXPECT_GT(oc / sag, 2.0);
}

TEST(PaperOrdering, K47ThroughputSuffersFromContention) {
  // §6.2.2: k=47 lands measurably below its contention-free model value;
  // k=7 stays closer to its own.
  model::BroadcastModel m(model::ModelParams::paper(), {});
  const double k47_sim =
      run("ocbcast", 47, 4096, 2).throughput_mbps;
  const double k47_model = m.ocbcast_throughput_mbps(47, 4096);
  const double k7_sim = run("ocbcast", 7, 4096, 2).throughput_mbps;
  const double k7_model = m.ocbcast_throughput_mbps(7, 4096);
  EXPECT_LT(k47_sim / k47_model, k7_sim / k7_model);
}

TEST(Determinism, IdenticalRunsProduceIdenticalTimings) {
  const auto a = run("ocbcast", 7, 96, 3);
  const auto b = run("ocbcast", 7, 96, 3);
  ASSERT_EQ(a.latency_us.samples().size(), b.latency_us.samples().size());
  for (std::size_t i = 0; i < a.latency_us.samples().size(); ++i) {
    EXPECT_DOUBLE_EQ(a.latency_us.samples()[i], b.latency_us.samples()[i]);
  }
}

TEST(Determinism, JitterChangesTimingsButNotContent) {
  harness::BcastRunSpec spec;
  spec.message_bytes = 96 * kCacheLineBytes;
  spec.iterations = 2;
  const double base = run_broadcast(spec).latency_us.mean();
  spec.config.jitter = 30 * sim::kNanosecond;
  const harness::BcastRunResult jittered = run_broadcast(spec);
  EXPECT_TRUE(jittered.content_ok);
  EXPECT_NE(jittered.latency_us.mean(), base);
  EXPECT_GT(jittered.latency_us.mean(), base);  // jitter only adds time
}

TEST(SimVsModel, FitRecoversTable1FromSimulatedMeasurements) {
  // End-to-end calibration check: measure the four op kinds on the
  // simulator at several (m, d), fit, and recover Table 1 exactly.
  scc::SccConfig cfg;
  cfg.cache_enabled = false;
  std::vector<model::OpSample> samples;
  for (std::size_t m : {1u, 4u, 16u}) {
    for (int d : {1, 3, 5, 9}) {
      const auto [actor, target] = harness::core_pair_at_mpb_distance(d);
      samples.push_back({model::OpSample::Kind::kGetToMpb, m, d, 1,
                         harness::measure_op_completion_us(
                             cfg, harness::OpKind::kGetMpbToMpb, actor, target, m, 2)});
      samples.push_back({model::OpSample::Kind::kPutFromMpb, m, 1, d,
                         harness::measure_op_completion_us(
                             cfg, harness::OpKind::kPutMpbToMpb, actor, target, m, 2)});
    }
    for (int d : {1, 2, 3, 4}) {
      const CoreId c = harness::core_at_mem_distance(d);
      // Against the own MPB: d_dst/d_src = 1 for the MPB side.
      samples.push_back({model::OpSample::Kind::kPutFromMem, m, d, 1,
                         harness::measure_op_completion_us(
                             cfg, harness::OpKind::kPutMemToMpb, c, c, m, 2)});
      samples.push_back({model::OpSample::Kind::kGetToMem, m, 1, d,
                         harness::measure_op_completion_us(
                             cfg, harness::OpKind::kGetMpbToMem, c, c, m, 2)});
    }
  }
  const model::FitResult fit = model::fit_model_params(samples);
  const model::ModelParams paper = model::ModelParams::paper();
  EXPECT_EQ(fit.params.l_hop, paper.l_hop);
  EXPECT_EQ(fit.params.o_mpb, paper.o_mpb);
  EXPECT_EQ(fit.params.o_mem_r, paper.o_mem_r);
  EXPECT_EQ(fit.params.o_mem_w, paper.o_mem_w);
  EXPECT_EQ(fit.params.o_put_mpb, paper.o_put_mpb);
  EXPECT_EQ(fit.params.o_get_mpb, paper.o_get_mpb);
  EXPECT_EQ(fit.params.o_put_mem, paper.o_put_mem);
  EXPECT_EQ(fit.params.o_get_mem, paper.o_get_mem);
  EXPECT_LT(fit.max_relative_error, 1e-6);
}

TEST(Ablation, DoubleBufferingLatencyGainOnSimulator) {
  // §4.2 at fixed MPB budget (two 96-line buffers vs one 192-line buffer):
  // latency improves for 1-2 chunk messages; peak throughput stays within
  // a few percent (Formula 15 carries no buffering term).
  harness::BcastRunSpec spec;
  spec.message_bytes = 192 * kCacheLineBytes;
  spec.iterations = 2;
  const double db_latency = run_broadcast(spec).latency_us.mean();
  spec.params.double_buffering = false;
  spec.params.chunk_lines = 192;
  const double single_latency = run_broadcast(spec).latency_us.mean();
  EXPECT_LT(db_latency, single_latency);

  spec.message_bytes = 4096 * kCacheLineBytes;
  const double single_tput = run_broadcast(spec).throughput_mbps;
  spec.params.double_buffering = true;
  spec.params.chunk_lines = 96;
  const double db_tput = run_broadcast(spec).throughput_mbps;
  EXPECT_NEAR(db_tput / single_tput, 1.0, 0.12);
}

TEST(Ablation, LeafDirectImprovesThroughputOnSimulator) {
  harness::BcastRunSpec spec;
  spec.message_bytes = 1024 * kCacheLineBytes;
  spec.iterations = 2;
  const double base = run_broadcast(spec).throughput_mbps;
  spec.params.leaf_direct_to_memory = true;
  const double direct = run_broadcast(spec).throughput_mbps;
  EXPECT_GT(direct, base);
}

}  // namespace
}  // namespace ocb
