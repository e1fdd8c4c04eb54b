// ocb::check acceptance tests.
//
// Covers the TransactionObserver chain redesign (add/remove, write-commit
// voting, coalescing interlock, trace-sink coexistence) and the
// happens-before race checker built on it: every shipped collective must
// run violation-free across a message-size/root grid, a deliberately racy
// binomial mutation (one flag wait removed) must be flagged with full
// provenance, the synchronization primitives (flags, barrier, interrupts,
// two-sided, reduce) must each establish the edges the checker relies on,
// and the FT broadcast must stay race-free under crash+corruption fault
// sweeps — with the checker provably not perturbing the simulated timeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "check/checker.h"
#include "coll/registry.h"
#include "core/ocreduce.h"
#include "harness/fault_sweep.h"
#include "harness/measurement.h"
#include "rma/barrier.h"
#include "rma/flags.h"
#include "rma/nonblocking.h"
#include "rma/rma.h"
#include "rma/twosided.h"
#include "scc/chip.h"
#include "scc/trace_json.h"

namespace ocb {
namespace {

// --- observer chain ---------------------------------------------------------

struct CountingObserver final : scc::TransactionObserver {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t completes = 0;
  std::uint64_t syncs = 0;

  void on_read(const scc::LineTxn&, CacheLine&) override { ++reads; }
  bool on_write(const scc::LineTxn&, CacheLine&) override {
    ++writes;
    return true;
  }
  void on_complete(const scc::TraceEvent&) override { ++completes; }
  void on_sync(const scc::SyncEvent&) override { ++syncs; }
};

/// Vetoes every MPB write to `line` (commit = AND over the chain).
struct SuppressLineObserver final : scc::TransactionObserver {
  std::size_t line;
  explicit SuppressLineObserver(std::size_t l) : line(l) {}
  bool on_write(const scc::LineTxn& txn, CacheLine&) override {
    return !(txn.op == scc::TraceOp::kMpbWrite && txn.index == line);
  }
};

TEST(ObserverChain, AddRemoveTogglesCoalescingAndObserving) {
  scc::SccChip chip;  // default config: coalescing on, jitter 0
  EXPECT_FALSE(chip.observing());
  EXPECT_TRUE(chip.coalescing_active());

  CountingObserver a;
  CountingObserver b;
  chip.add_observer(&a);
  EXPECT_TRUE(chip.observing());
  EXPECT_FALSE(chip.coalescing_active());
  chip.add_observer(&b);
  chip.remove_observer(&a);
  EXPECT_TRUE(chip.observing());  // b still installed
  chip.remove_observer(&b);
  EXPECT_FALSE(chip.observing());
  EXPECT_TRUE(chip.coalescing_active());

  // The set_trace_sink sugar is itself a chain member — and a bulk-capable
  // one, so unlike the default-capability counters above it keeps the
  // coalesced fast path on (scc/observer.h capability model).
  scc::JsonTraceCollector trace;
  chip.set_trace_sink(trace.sink());
  EXPECT_TRUE(chip.observing());
  EXPECT_TRUE(chip.coalescing_active());
  chip.set_trace_sink({});
  EXPECT_FALSE(chip.observing());
  EXPECT_TRUE(chip.coalescing_active());
}

TEST(ObserverChain, ObserversSeeTransactionsAndVotesAnd) {
  scc::SccChip chip;
  CountingObserver counter;
  SuppressLineObserver suppress(5);
  chip.add_observer(&counter);
  chip.add_observer(&suppress);

  chip.spawn(0, [&](scc::Core& me) -> sim::Task<void> {
    const CacheLine payload = rma::encode_flag(0x1234);
    co_await me.mpb_write_line(1, 4, payload);  // commits
    co_await me.mpb_write_line(1, 5, payload);  // suppressed
    CacheLine got4;
    CacheLine got5;
    co_await me.mpb_read_line(1, 4, got4);
    co_await me.mpb_read_line(1, 5, got5);
    EXPECT_EQ(rma::decode_flag(got4), 0x1234u);
    EXPECT_EQ(rma::decode_flag(got5), 0u);  // write never landed
  });
  ASSERT_TRUE(chip.run().completed());

  EXPECT_EQ(counter.writes, 2u);
  EXPECT_EQ(counter.reads, 2u);
  EXPECT_EQ(counter.completes, 4u);
}

// --- registry ---------------------------------------------------------------

TEST(CheckRegistry, ShipsTheBuiltins) {
  const std::vector<std::string> builtins = {
      "binomial", "ft-ocbcast", "ocbcast", "onesided-sag", "scatter-allgather"};
  for (const std::string& name : builtins) {
    EXPECT_TRUE(coll::registered(name)) << name;
  }
  EXPECT_FALSE(coll::registered("no-such-algorithm"));
  const std::vector<std::string> all = coll::names();
  for (const std::string& name : builtins) {
    EXPECT_NE(std::find(all.begin(), all.end(), name), all.end()) << name;
  }
  scc::SccChip chip;
  auto algo = coll::make("ocbcast", chip, {.k = 3});
  EXPECT_EQ(algo->parties(), kNumCores);
  EXPECT_NE(algo->name().find("3"), std::string::npos);
}

TEST(CheckRegistry, UnknownNameErrorListsTheRegistry) {
  scc::SccChip chip;
  try {
    coll::make("no-such-algorithm", chip);
    FAIL() << "should have thrown";
  } catch (const PreconditionError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("no-such-algorithm"), std::string::npos)
        << "names the offending key: " << msg;
    for (const std::string& name : coll::names()) {
      EXPECT_NE(msg.find(name), std::string::npos)
          << "lists registered algorithm " << name << ": " << msg;
    }
  }
}

// --- the grid: every shipped collective is race-free ------------------------

TEST(CheckGrid, ShippedCollectivesAreRaceFree) {
  const std::vector<std::string> algos = {
      "ocbcast",      "binomial",  "scatter-allgather",
      "onesided-sag", "ft-ocbcast", "hier-ocbcast"};
  const std::size_t sizes[] = {kCacheLineBytes, 2048, 16 * 1024};
  const CoreId roots[] = {0, 7};
  for (const std::string& name : algos) {
    for (std::size_t bytes : sizes) {
      for (CoreId root : roots) {
        harness::BcastRunSpec spec;
        spec.algorithm_name = name;
        spec.message_bytes = bytes;
        spec.root = root;
        spec.iterations = 2;
        spec.warmup = 1;
        spec.check = true;
        const harness::BcastRunResult out = harness::run_broadcast(spec);
        EXPECT_TRUE(out.content_ok)
            << name << " bytes=" << bytes << " root=" << root;
        EXPECT_EQ(out.race_violations, 0u)
            << name << " bytes=" << bytes << " root=" << root << "\n"
            << out.race_report;
      }
    }
  }
}

// --- the mutation: a removed flag wait must be flagged ----------------------

/// Binomial broadcast with the receive-side `sent` wait deliberately
/// removed: the receiver posts `ready` and immediately reads the payload
/// lines its parent is still (or not yet!) writing. Byte content is
/// garbage (run with verify=false); the checker must see the race.
class RacyBinomial final : public coll::Collective {
 public:
  static constexpr std::size_t kReadyLine = 0;
  static constexpr std::size_t kSentLine = 1;
  static constexpr std::size_t kPayloadLine = 2;

  RacyBinomial(scc::SccChip& chip, int parties)
      : chip_(&chip), parties_(parties) {}

  std::string name() const override { return "racy-binomial"; }
  int parties() const override { return parties_; }

  sim::Task<void> run(scc::Core& self, CoreId root, std::size_t offset,
                      std::size_t bytes) override {
    const std::size_t lines = cache_lines_for(bytes);
    const int p = parties_;
    const int rel = (self.id() - root + p) % p;
    const std::uint64_t s = ++round_[static_cast<std::size_t>(self.id())];

    if (rel != 0) {
      int parent_rel = 0;
      for (int bit = 1; bit < p; bit <<= 1) {
        if (rel & bit) {
          parent_rel = rel & ~bit;
          break;
        }
      }
      const CoreId parent = static_cast<CoreId>((parent_rel + root) % p);
      co_await rma::set_flag(self, {self.id(), kReadyLine},
                             rma::pack_flag(parent, s));
      // MUTATION UNDER TEST: the protocol should wait for the parent's
      // `sent == pack(parent, s)` here before touching the payload.
      co_await rma::get_mpb_to_mem(self, offset, {self.id(), kPayloadLine},
                                   lines);
    }

    for (int bit = 1; bit < p; bit <<= 1) {
      if (rel & bit) break;  // bits above the parent edge are not children
      const int child_rel = rel | bit;
      if (child_rel == rel || child_rel >= p) continue;
      const CoreId child = static_cast<CoreId>((child_rel + root) % p);
      co_await rma::wait_flag_equal(self, {child, kReadyLine},
                                    rma::pack_flag(self.id(), s));
      co_await rma::put_mem_to_mpb(self, {child, kPayloadLine}, offset, lines);
      co_await rma::set_flag(self, {child, kSentLine},
                             rma::pack_flag(self.id(), s));
    }
  }

 private:
  scc::SccChip* chip_;
  int parties_;
  std::array<std::uint64_t, kNumCores> round_{};
};

TEST(CheckMutation, RacyBinomialIsFlagged) {
  coll::register_collective(
      "racy-binomial", [](scc::SccChip& chip, const coll::Params& params) {
        return std::make_unique<RacyBinomial>(chip, params.parties);
      });

  harness::BcastRunSpec spec;
  spec.algorithm_name = "racy-binomial";
  spec.params.parties = 8;
  spec.message_bytes = 8 * kCacheLineBytes;
  spec.iterations = 1;
  spec.warmup = 0;
  spec.verify = false;  // the whole point is that the bytes are not safe
  spec.check = true;

  harness::BcastSession session(spec);
  const harness::BcastRunResult out = session.run();
  EXPECT_GE(out.race_violations, 1u);
  EXPECT_FALSE(out.race_report.empty());

  // Provenance: the contested line is a payload line of some receiver,
  // the conflict involves a put and a get from different cores, and both
  // sides carry their announced collective stage.
  const check::RaceChecker* checker = session.checker();
  ASSERT_NE(checker, nullptr);
  ASSERT_FALSE(checker->violations().empty());
  const check::Violation& v = checker->violations().front();
  EXPECT_GE(v.line, RacyBinomial::kPayloadLine);
  EXPECT_NE(v.first_core, v.second_core);
  EXPECT_NE(v.kind, check::Violation::Kind::kPutPut);
  EXPECT_LT(v.first_seq, v.second_seq);
  EXPECT_LE(v.first_time, v.second_time);

  // The violations export as chrome://tracing flow arrows (cat "race").
  scc::JsonTraceCollector trace;
  checker->add_flows_to(trace);
  EXPECT_EQ(trace.flows().size(), checker->violations().size());
  const std::string json = trace.to_json();
  EXPECT_NE(json.find("\"cat\":\"race\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);

  // Control arm: the unmutated binomial in the identical configuration is
  // clean (the grid covers defaults; this pins the 8-party shape too).
  harness::BcastRunSpec clean = spec;
  clean.algorithm_name = "binomial";
  clean.verify = true;
  const harness::BcastRunResult ok = harness::run_broadcast(clean);
  EXPECT_TRUE(ok.content_ok);
  EXPECT_EQ(ok.race_violations, 0u) << ok.race_report;
}

// --- primitive happens-before edges -----------------------------------------

TEST(CheckUnit, UnsynchronizedSharingIsFlagged) {
  scc::SccChip chip;
  check::RaceChecker checker(chip);
  chip.add_observer(&checker);

  // Core 0 writes a line of core 1's MPB; core 1 reads it back with no
  // ordering edge whatsoever.
  chip.spawn(0, [&](scc::Core& me) -> sim::Task<void> {
    me.set_stage("writer-side");
    co_await me.mpb_write_line(1, 100, rma::encode_flag(42));
  });
  chip.spawn(1, [&](scc::Core& me) -> sim::Task<void> {
    me.set_stage("reader-side");
    CacheLine cl;
    co_await me.mpb_read_line(1, 100, cl);
  });
  ASSERT_TRUE(chip.run().completed());

  ASSERT_GE(checker.total_detected(), 1u);
  const check::Violation& v = checker.violations().front();
  EXPECT_EQ(v.owner, 1);
  EXPECT_EQ(v.line, 100u);
  EXPECT_NE(v.first_core, v.second_core);
  EXPECT_STRNE(v.first_stage, "");
  EXPECT_STRNE(v.second_stage, "");
  EXPECT_NE(checker.report().find("mpb[1]:100"), std::string::npos);
}

TEST(CheckUnit, FlagEdgeOrdersData) {
  scc::SccChip chip;
  check::RaceChecker checker(chip);
  chip.add_observer(&checker);

  // The same sharing pattern, now with a set_flag/wait_flag edge between
  // the write and the read: no violation.
  chip.spawn(0, [&](scc::Core& me) -> sim::Task<void> {
    co_await me.mpb_write_line(1, 100, rma::encode_flag(42));
    co_await rma::set_flag(me, {1, 0}, 1);
  });
  chip.spawn(1, [&](scc::Core& me) -> sim::Task<void> {
    co_await rma::wait_flag_equal(me, {1, 0}, 1);
    CacheLine cl;
    co_await me.mpb_read_line(1, 100, cl);
    EXPECT_EQ(rma::decode_flag(cl), 42u);
  });
  ASSERT_TRUE(chip.run().completed());
  EXPECT_EQ(checker.total_detected(), 0u) << checker.report();
}

TEST(CheckUnit, BarrierOrdersDataTransitively) {
  // Dissemination-barrier edges are pairwise; cross-core ordering of data
  // around a full barrier only holds through log2(n) hops of transitivity,
  // which exercises the vector-clock joins end to end.
  scc::SccChip chip;
  check::RaceChecker checker(chip);
  chip.add_observer(&checker);

  constexpr int kParties = 8;
  rma::FlagBarrier barrier(chip, /*base_line=*/0, kParties);
  for (CoreId c = 0; c < kParties; ++c) {
    chip.spawn(c, [&, c](scc::Core& me) -> sim::Task<void> {
      if (c == 0) {
        // Publish into core 7's MPB before the barrier...
        co_await me.mpb_write_line(7, 200, rma::encode_flag(7777));
      }
      co_await barrier.wait(me);
      if (c == 7) {
        // ...consume it after: ordered via core 0 -> ... -> core 7 chains.
        CacheLine cl;
        co_await me.mpb_read_line(7, 200, cl);
        EXPECT_EQ(rma::decode_flag(cl), 7777u);
      }
    });
  }
  ASSERT_TRUE(chip.run().completed());
  EXPECT_EQ(checker.total_detected(), 0u) << checker.report();
}

TEST(CheckUnit, InterruptEdgeOrdersData) {
  scc::SccChip chip;
  check::RaceChecker checker(chip);
  chip.add_observer(&checker);

  chip.spawn(0, [&](scc::Core& me) -> sim::Task<void> {
    co_await me.mpb_write_line(1, 64, rma::encode_flag(9));
    co_await me.send_interrupt(1);
  });
  chip.spawn(1, [&](scc::Core& me) -> sim::Task<void> {
    co_await me.wait_interrupt();
    CacheLine cl;
    co_await me.mpb_read_line(1, 64, cl);
    EXPECT_EQ(rma::decode_flag(cl), 9u);
  });
  ASSERT_TRUE(chip.run().completed());
  EXPECT_EQ(checker.total_detected(), 0u) << checker.report();
}

TEST(CheckUnit, TwoSidedIsRaceFree) {
  scc::SccChip chip;
  check::RaceChecker checker(chip);
  chip.add_observer(&checker);

  const std::size_t bytes = 4096;
  auto src = chip.memory(0).host_bytes(0, bytes);
  for (std::size_t i = 0; i < bytes; ++i) {
    src[i] = static_cast<std::byte>(i * 131 + 7);
  }

  rma::TwoSided ts(chip);
  chip.spawn(0, [&](scc::Core& me) -> sim::Task<void> {
    co_await ts.send(me, 1, 0, bytes);
  });
  chip.spawn(1, [&](scc::Core& me) -> sim::Task<void> {
    co_await ts.recv(me, 0, 0, bytes);
  });
  ASSERT_TRUE(chip.run().completed());

  const auto got = chip.memory(1).host_bytes(0, bytes);
  EXPECT_TRUE(std::equal(src.begin(), src.end(), got.begin()));
  EXPECT_EQ(checker.total_detected(), 0u) << checker.report();
}

TEST(CheckUnit, AsyncTwoSidedIsRaceFree) {
  // The iRCCE-style engine polls flag lines with raw reads (its test()
  // probes); read_flag's acquire-on-every-observed-value covers it.
  scc::SccChip chip;
  check::RaceChecker checker(chip);
  chip.add_observer(&checker);

  const std::size_t bytes = 2048;
  auto src = chip.memory(2).host_bytes(0, bytes);
  for (std::size_t i = 0; i < bytes; ++i) {
    src[i] = static_cast<std::byte>(i ^ 0x5a);
  }

  rma::AsyncTwoSided async(chip);
  chip.spawn(2, [&](scc::Core& me) -> sim::Task<void> {
    auto req = async.isend(me, 3, 0, bytes);
    while (true) {
      const bool done = co_await async.test(me, req);
      if (done) break;
      co_await me.busy(500 * sim::kNanosecond);
    }
  });
  chip.spawn(3, [&](scc::Core& me) -> sim::Task<void> {
    auto req = async.irecv(me, 2, 0, bytes);
    co_await async.wait(me, req);
  });
  ASSERT_TRUE(chip.run().completed());

  const auto got = chip.memory(3).host_bytes(0, bytes);
  EXPECT_TRUE(std::equal(src.begin(), src.end(), got.begin()));
  EXPECT_EQ(checker.total_detected(), 0u) << checker.report();
}

TEST(CheckUnit, OcReduceIsRaceFree) {
  scc::SccChip chip;
  check::RaceChecker checker(chip);
  chip.add_observer(&checker);

  const std::size_t count = 256;  // doubles; 64 lines, single chunk
  const std::size_t out_offset = 16 * 1024;
  for (CoreId c = 0; c < kNumCores; ++c) {
    auto region = chip.memory(c).host_bytes(0, count * sizeof(double));
    for (std::size_t i = 0; i < count; ++i) {
      const double v = static_cast<double>(c + 1);
      std::memcpy(region.data() + i * sizeof(double), &v, sizeof v);
    }
  }

  core::OcReduce reduce(chip);
  for (CoreId c = 0; c < kNumCores; ++c) {
    chip.spawn(c, [&](scc::Core& me) -> sim::Task<void> {
      co_await reduce.run(me, 0, 0, out_offset, count, core::ReduceOp::kSum);
    });
  }
  ASSERT_TRUE(chip.run().completed());

  const double expected = kNumCores * (kNumCores + 1) / 2.0;  // sum of c+1
  const auto out = chip.memory(0).host_bytes(out_offset, count * sizeof(double));
  for (std::size_t i : {std::size_t{0}, count / 2, count - 1}) {
    double got;
    std::memcpy(&got, out.data() + i * sizeof(double), sizeof got);
    EXPECT_EQ(got, expected) << "element " << i;
  }
  EXPECT_EQ(checker.total_detected(), 0u) << checker.report();
}

// --- FT-OC-Bcast under faults, with the checker on --------------------------

TEST(CheckFault, FtBcastSweepIsRaceFreeUnderFaults) {
  harness::FaultRunSpec spec;
  spec.message_bytes = 64 * 1024;
  spec.plan.rates.mpb_read = 1e-4;
  spec.plan.crashes.push_back({.core = 5, .at = 30 * sim::kMicrosecond});
  spec.check_races = true;

  for (std::uint64_t seed : {3u, 4u, 5u}) {
    spec.plan.seed = seed;
    const harness::FaultRunOutcome out = harness::run_fault_once(spec);
    EXPECT_TRUE(out.all_survivors_correct()) << "seed " << seed;
    EXPECT_EQ(out.crashed, 1) << "seed " << seed;
    EXPECT_EQ(out.race_violations, 0u)
        << "seed " << seed << "\n" << out.race_report;
  }
}

TEST(CheckFault, CheckerIsPassive) {
  // Installing the checker must not perturb the simulated timeline or the
  // injector's deterministic decision stream: identical spec with and
  // without check_races produces a bit-identical outcome.
  harness::FaultRunSpec spec;
  spec.message_bytes = 64 * 1024;
  spec.plan.seed = 17;
  spec.plan.rates.mpb_read = 1e-4;
  spec.plan.crashes.push_back({.core = 9, .at = 40 * sim::kMicrosecond});

  spec.check_races = false;
  const harness::FaultRunOutcome plain = harness::run_fault_once(spec);
  spec.check_races = true;
  const harness::FaultRunOutcome checked = harness::run_fault_once(spec);

  EXPECT_EQ(plain.events, checked.events);
  EXPECT_EQ(plain.latency_us, checked.latency_us);
  EXPECT_EQ(plain.injections.reads_corrupted, checked.injections.reads_corrupted);
  EXPECT_EQ(plain.injections.crashes_applied, checked.injections.crashes_applied);
  EXPECT_EQ(plain.correct, checked.correct);
  EXPECT_EQ(checked.race_violations, 0u) << checked.race_report;
}

}  // namespace
}  // namespace ocb
