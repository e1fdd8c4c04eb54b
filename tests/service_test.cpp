// Tests for ocb::svc — traffic generation, the broadcast service, the MPB
// lease safety gate, and the service's SLO metrics/trace exports.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "check/checker.h"
#include "coll/registry.h"
#include "common/require.h"
#include "scc/chip.h"
#include "scc/trace_json.h"
#include "svc/service.h"
#include "svc/traffic.h"

namespace ocb {
namespace {

// --- traffic generation -----------------------------------------------------

TEST(Traffic, DeterministicAndSorted) {
  svc::TrafficSpec spec;
  spec.requests = 64;
  spec.seed = 7;
  const auto a = svc::generate_requests(spec);
  const auto b = svc::generate_requests(spec);
  ASSERT_EQ(a.size(), 64u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival, b[i].arrival);
    EXPECT_EQ(a[i].root, b[i].root);
    EXPECT_EQ(a[i].bytes, b[i].bytes);
    EXPECT_EQ(a[i].id, static_cast<int>(i));
    if (i > 0) {
      EXPECT_GE(a[i].arrival, a[i - 1].arrival);
    }
  }
  svc::TrafficSpec other = spec;
  other.seed = 8;
  const auto c = svc::generate_requests(other);
  bool differs = false;
  for (std::size_t i = 0; i < c.size(); ++i) {
    differs = differs || c[i].arrival != a[i].arrival || c[i].root != a[i].root;
  }
  EXPECT_TRUE(differs) << "different seeds should produce different streams";
}

TEST(Traffic, HonorsTheSpec) {
  svc::TrafficSpec spec;
  spec.requests = 200;
  spec.mean_gap_ns = 10'000;
  spec.sizes = {{64, 3}, {2048, 1}};
  spec.parties = 8;
  spec.seed = 42;
  const auto reqs = svc::generate_requests(spec);
  std::uint64_t small = 0;
  for (const svc::Request& r : reqs) {
    EXPECT_TRUE(r.bytes == 64 || r.bytes == 2048);
    EXPECT_GE(r.root, 0);
    EXPECT_LT(r.root, 8);
    small += r.bytes == 64 ? 1 : 0;
  }
  EXPECT_GT(small, 100u) << "3:1 weights should favor the small class";
  EXPECT_LT(small, 200u);
  // Mean gap within a factor of two of the spec (199 gaps is plenty).
  const double mean_gap =
      sim::to_ns(reqs.back().arrival) / static_cast<double>(spec.requests - 1);
  EXPECT_GT(mean_gap, 5'000.0);
  EXPECT_LT(mean_gap, 20'000.0);

  svc::TrafficSpec pinned = spec;
  pinned.fixed_root = 3;
  for (const svc::Request& r : svc::generate_requests(pinned)) {
    EXPECT_EQ(r.root, 3);
  }
}

// --- the lease safety gate --------------------------------------------------

// Two OC-Bcast instances with overlapping MPB layouts (both at base line 0)
// running concurrently from different roots: the exact failure mode the
// slot allocator exists to prevent. The run must be FLAGGED — checker
// violations, corrupted delivery, or a stall — rather than quietly "work".
TEST(LeaseGate, OverlappingCollectivesAreFlagged) {
  scc::SccChip chip;
  check::RaceChecker checker(chip);
  chip.add_observer(&checker);

  const int parties = 16;
  coll::Params params;
  params.parties = parties;
  params.k = 3;
  params.chunk_lines = 16;
  auto first = coll::make("ocbcast", chip, params);
  auto second = coll::make("ocbcast", chip, params);

  const std::size_t bytes = 4096;  // 128 lines = 8 chunks: plenty of reuse
  const std::size_t offset_a = 0;
  const std::size_t offset_b = 1 << 16;
  for (int i = 0; i < 64; ++i) {
    chip.memory(0).host_bytes(offset_a, bytes)[static_cast<std::size_t>(i)] =
        std::byte{0xA0};
    chip.memory(1).host_bytes(offset_b, bytes)[static_cast<std::size_t>(i)] =
        std::byte{0xB0};
  }

  for (CoreId c = 0; c < parties; ++c) {
    chip.spawn(c, [&](scc::Core& me) -> sim::Task<void> {
      co_await first->run(me, 0, offset_a, bytes);
    });
    chip.spawn(c, [&](scc::Core& me) -> sim::Task<void> {
      co_await second->run(me, 1, offset_b, bytes);
    });
  }
  // Cap the run: trampled flags can also deadlock the protocols, which is
  // a flagged outcome too, not a test failure.
  const sim::RunResult rr = chip.run(/*max_events=*/50'000'000);

  bool corrupted = false;
  for (CoreId c = 0; c < parties; ++c) {
    if (c != 0) {
      const auto want = chip.memory(0).host_bytes(offset_a, bytes);
      const auto got = chip.memory(c).host_bytes(offset_a, bytes);
      corrupted = corrupted || !std::equal(want.begin(), want.end(), got.begin());
    }
    if (c != 1) {
      const auto want = chip.memory(1).host_bytes(offset_b, bytes);
      const auto got = chip.memory(c).host_bytes(offset_b, bytes);
      corrupted = corrupted || !std::equal(want.begin(), want.end(), got.begin());
    }
  }
  EXPECT_TRUE(checker.total_detected() > 0 || corrupted || !rr.completed())
      << "overlapping layouts went undetected: violations="
      << checker.total_detected() << " corrupted=" << corrupted
      << " completed=" << rr.completed();
  // The primary signal: the checker sees the unsynchronized sharing.
  EXPECT_GT(checker.total_detected(), 0u);
}

// The same concurrency through the service's slot allocator: byte-correct
// and checker-silent.
TEST(LeaseGate, SlottedCollectivesAreRaceFreeAndCorrect) {
  svc::ServiceConfig config;
  config.parties = 16;
  config.k = 3;
  config.slots = 2;
  config.slot_lines = 120;
  config.check = true;

  svc::BroadcastService service(config);
  svc::Request r0;
  r0.id = 0;
  r0.arrival = 0;
  r0.root = 0;
  r0.bytes = 4096;
  svc::Request r1 = r0;
  r1.id = 1;
  r1.root = 1;
  service.submit(r0);
  service.submit(r1);

  const svc::ServiceMetrics m = service.run();
  EXPECT_EQ(m.completed, 2u);
  EXPECT_TRUE(m.content_ok);
  EXPECT_EQ(m.race_violations, 0u) << service.checker()->report();

  // Both requests really were in flight at once (disjoint slots, not
  // accidental serialization).
  const auto& out = service.outcomes();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].slot, 0);
  EXPECT_EQ(out[1].slot, 1);
  EXPECT_LT(out[0].start, out[1].completion);
  EXPECT_LT(out[1].start, out[0].completion);
}

// --- slot recycling ---------------------------------------------------------

// One slot, three back-to-back requests: each reuses the same MPB lines.
// Completion proves the scrub works (a stale flag value would satisfy the
// next collective's waits early or deadlock it), and checker silence
// proves the generation-keyed handoff edge orders occupants.
TEST(Service, RecycledSlotIsScrubbedAndOrdered) {
  svc::ServiceConfig config;
  config.parties = 16;
  config.k = 3;
  config.slots = 1;
  config.slot_lines = 120;
  config.check = true;

  svc::BroadcastService service(config);
  for (int i = 0; i < 3; ++i) {
    svc::Request r;
    r.id = i;
    r.arrival = 0;
    r.root = static_cast<CoreId>(i);  // root changes every grant
    r.bytes = 2048;
    service.submit(r);
  }
  const svc::ServiceMetrics m = service.run();
  EXPECT_EQ(m.completed, 3u);
  EXPECT_TRUE(m.content_ok);
  EXPECT_EQ(m.race_violations, 0u) << service.checker()->report();
  EXPECT_EQ(service.allocator().generation(0), 3u);

  // Strictly serialized through the single slot.
  const auto& out = service.outcomes();
  EXPECT_LE(out[0].completion, out[1].start);
  EXPECT_LE(out[1].completion, out[2].start);
}

// --- admission control and scheduling policy --------------------------------

TEST(Service, BoundedQueueRejectsOverflow) {
  svc::ServiceConfig config;
  config.parties = 16;
  config.k = 3;
  config.slots = 1;
  config.slot_lines = 200;
  config.max_queue = 1;

  svc::BroadcastService service(config);
  for (int i = 0; i < 6; ++i) {
    svc::Request r;
    r.id = i;
    r.arrival = 0;
    r.root = 0;
    r.bytes = 1024;
    service.submit(r);
  }
  const svc::ServiceMetrics m = service.run();
  // Arrival order: r0 is dispatched straight into the slot, r1 queues, and
  // r2..r5 find the queue at its bound.
  EXPECT_EQ(m.submitted, 6u);
  EXPECT_EQ(m.completed, 2u);
  EXPECT_EQ(m.rejected, 4u);
  EXPECT_EQ(m.max_queue_depth, 1u);
  EXPECT_TRUE(service.outcomes()[0].content_ok);
  EXPECT_TRUE(service.outcomes()[5].rejected);
}

TEST(Service, SmallestFirstOvertakesFifo) {
  auto run_with = [](svc::SchedPolicy policy) {
    svc::ServiceConfig config;
    config.parties = 16;
    config.k = 3;
    config.slots = 1;
    config.slot_lines = 200;
    config.policy = policy;
    svc::BroadcastService service(config);
    svc::Request big0;
    big0.id = 0;
    big0.arrival = 0;
    big0.root = 0;
    big0.bytes = 32768;
    svc::Request big1 = big0;
    big1.id = 1;
    big1.arrival = sim::kMicrosecond;
    svc::Request small = big0;
    small.id = 2;
    small.arrival = 2 * sim::kMicrosecond;
    small.bytes = 64;
    service.submit(big0);
    service.submit(big1);
    service.submit(small);
    service.run();
    return std::vector<svc::RequestOutcome>(service.outcomes());
  };

  const auto fifo = run_with(svc::SchedPolicy::kFifo);
  EXPECT_LT(fifo[1].start, fifo[2].start) << "fifo serves in arrival order";

  const auto sjf = run_with(svc::SchedPolicy::kSmallestFirst);
  EXPECT_LT(sjf[2].start, sjf[1].start)
      << "smallest-first lets the 64B request overtake the queued 32KiB one";
  EXPECT_LT(sjf[2].completion - sjf[2].arrival,
            fifo[2].completion - fifo[2].arrival)
      << "the small request's latency improves";
}

// --- determinism ------------------------------------------------------------

TEST(Service, SameSeedSameMetrics) {
  svc::ServiceConfig config;
  config.parties = 16;
  config.k = 3;
  config.slots = 2;
  config.slot_lines = 100;

  svc::TrafficSpec traffic;
  traffic.requests = 12;
  traffic.mean_gap_ns = 20'000;
  traffic.sizes = {{64, 2}, {4096, 1}};
  traffic.parties = config.parties;
  traffic.seed = 99;

  const svc::ServiceMetrics a = svc::run_service(config, traffic);
  const svc::ServiceMetrics b = svc::run_service(config, traffic);
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.latency_ns.p99(), b.latency_ns.p99());
  EXPECT_TRUE(a.content_ok);
  EXPECT_EQ(a.completed + a.rejected, a.submitted);
}

// --- metrics and trace export -----------------------------------------------

TEST(Service, MetricsJsonAndTraceSpans) {
  svc::ServiceConfig config;
  config.parties = 16;
  config.k = 3;
  config.slots = 2;
  config.slot_lines = 100;

  scc::JsonTraceCollector trace;
  svc::BroadcastService service(config);
  service.set_trace(&trace);
  for (int i = 0; i < 2; ++i) {
    svc::Request r;
    r.id = i;
    r.arrival = static_cast<sim::Time>(i) * sim::kMicrosecond;
    r.root = static_cast<CoreId>(i);
    r.bytes = 1024;
    service.submit(r);
  }
  const svc::ServiceMetrics m = service.run();
  EXPECT_EQ(m.completed, 2u);

  const std::string json = m.to_json();
  EXPECT_NE(json.find("\"schema\":\"ocb-service-metrics-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"p99_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"queue_wait\""), std::string::npos);
  EXPECT_NE(json.find("\"content_ok\":true"), std::string::npos);
  EXPECT_GT(m.latency_ns.p50(), 0u);
  EXPECT_GE(m.latency_ns.p999(), m.latency_ns.p50());

  ASSERT_EQ(trace.spans().size(), 2u);
  const std::string doc = trace.to_json();
  EXPECT_NE(doc.find("\"cat\":\"service\""), std::string::npos);
  EXPECT_NE(doc.find("req 0"), std::string::npos);
  EXPECT_NE(doc.find("req 1"), std::string::npos);
  EXPECT_NE(doc.find("\"queue_ns\""), std::string::npos);
}

TEST(Service, PreconditionsAreEnforced) {
  svc::ServiceConfig bad;
  bad.algorithm = "binomial";  // not slot-aware
  EXPECT_THROW(svc::BroadcastService{bad}, PreconditionError);

  svc::ServiceConfig tiny;
  tiny.slot_lines = 10;  // cannot fit flags + fence + a buffer
  EXPECT_THROW(svc::BroadcastService{tiny}, PreconditionError);

  svc::ServiceConfig huge;
  huge.slots = 3;
  huge.slot_lines = 90;  // 270 + 3 handoff lines > 256
  EXPECT_THROW(svc::BroadcastService{huge}, PreconditionError);

  svc::ServiceConfig ok;
  svc::BroadcastService service(ok);
  EXPECT_THROW(service.run(), PreconditionError) << "no requests submitted";
}

// The default party count is the whole chip, and the checker sizes itself
// from it: a checked service on a 128-core mesh.
TEST(Service, DefaultPartiesSpanALargerChip) {
  svc::ServiceConfig config;
  config.chip.topology = noc::Topology::parse("mesh:8x8");
  config.check = true;
  svc::BroadcastService service(config);

  svc::TrafficSpec traffic;
  traffic.requests = 4;
  traffic.mean_gap_ns = 20'000;
  traffic.sizes = {{kCacheLineBytes, 1}, {4096, 1}};
  traffic.parties = service.chip().num_cores();
  traffic.seed = 11;
  service.submit(svc::generate_requests(traffic));
  svc::Request last_core;
  last_core.id = traffic.requests;
  last_core.root = 127;
  last_core.bytes = 2048;
  service.submit(last_core);

  const svc::ServiceMetrics m = service.run();
  EXPECT_EQ(m.completed, 5u);
  EXPECT_TRUE(m.content_ok);
  EXPECT_EQ(m.race_violations, 0u) << service.checker()->report();
}

// --- smoke: the CI `service-smoke` target runs exactly this suite -----------

TEST(ServiceSmoke, MixedLoadAllFortyEightCores) {
  svc::ServiceConfig config;
  config.parties = kNumCores;
  config.k = 7;
  config.slots = 2;
  config.slot_lines = 120;

  svc::TrafficSpec traffic;
  traffic.requests = 16;
  traffic.mean_gap_ns = 30'000;
  traffic.sizes = {{kCacheLineBytes, 2}, {4096, 2}, {32768, 1}};
  traffic.parties = config.parties;
  traffic.seed = 2026;

  const svc::ServiceMetrics m = svc::run_service(config, traffic);
  EXPECT_EQ(m.submitted, 16u);
  EXPECT_EQ(m.completed + m.rejected, m.submitted);
  EXPECT_EQ(m.rejected, 0u) << "default queue bound fits 16 requests";
  EXPECT_TRUE(m.content_ok);
  EXPECT_GT(m.latency_ns.p50(), 0u);
  EXPECT_GE(m.latency_ns.p999(), m.latency_ns.p99());
  EXPECT_GT(m.throughput_mbps(), 0.0);
}

TEST(ServiceSmoke, FaultTolerantAlgorithmServes) {
  svc::ServiceConfig config;
  config.algorithm = "ft-ocbcast";
  config.parties = kNumCores;
  config.k = 7;
  config.slots = 2;
  config.slot_lines = 120;

  svc::TrafficSpec traffic;
  traffic.requests = 6;
  traffic.mean_gap_ns = 50'000;
  traffic.sizes = {{4096, 1}};
  traffic.parties = config.parties;
  traffic.seed = 5;

  const svc::ServiceMetrics m = svc::run_service(config, traffic);
  EXPECT_EQ(m.completed, 6u);
  EXPECT_TRUE(m.content_ok);
}

}  // namespace
}  // namespace ocb
