// Unit tests for one-sided RMA: data integrity, exact agreement with the
// model formulas (7)-(12), bounds, and flags.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fault/injector.h"
#include "model/primitives.h"
#include "rma/flags.h"
#include "rma/rma.h"

namespace ocb::rma {
namespace {

void seed_mpb(scc::SccChip& chip, CoreId core, std::size_t first_line,
              std::size_t lines, std::uint8_t tag) {
  for (std::size_t i = 0; i < lines; ++i) {
    CacheLine cl;
    for (std::size_t b = 0; b < kCacheLineBytes; ++b) {
      cl.bytes[b] = static_cast<std::byte>(tag + i + b);
    }
    chip.mpb(core).host_line(first_line + i) = cl;
  }
}

bool check_mpb(scc::SccChip& chip, CoreId core, std::size_t first_line,
               std::size_t lines, std::uint8_t tag) {
  for (std::size_t i = 0; i < lines; ++i) {
    const CacheLine& cl = chip.mpb(core).load(first_line + i);
    for (std::size_t b = 0; b < kCacheLineBytes; ++b) {
      if (cl.bytes[b] != static_cast<std::byte>(tag + i + b)) return false;
    }
  }
  return true;
}

// --- data integrity across all four op kinds ------------------------------

class RmaIntegrity : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RmaIntegrity, PutMpbToMpbMovesBytes) {
  const std::size_t lines = GetParam();
  scc::SccChip chip;
  seed_mpb(chip, 4, 0, lines, 0x10);
  chip.spawn(4, [lines](scc::Core& me) -> sim::Task<void> {
    co_await put_mpb_to_mpb(me, MpbAddr{30, 10}, 0, lines);
  });
  ASSERT_TRUE(chip.run().completed());
  EXPECT_TRUE(check_mpb(chip, 30, 10, lines, 0x10));
}

TEST_P(RmaIntegrity, PutMemToMpbMovesBytes) {
  const std::size_t lines = GetParam();
  scc::SccChip chip;
  auto src = chip.memory(4).host_bytes(0, lines * kCacheLineBytes);
  for (std::size_t i = 0; i < src.size(); ++i) src[i] = static_cast<std::byte>(i * 3);
  chip.spawn(4, [lines](scc::Core& me) -> sim::Task<void> {
    co_await put_mem_to_mpb(me, MpbAddr{11, 0}, 0, lines);
  });
  ASSERT_TRUE(chip.run().completed());
  for (std::size_t i = 0; i < lines; ++i) {
    const CacheLine& cl = chip.mpb(11).load(i);
    for (std::size_t b = 0; b < kCacheLineBytes; ++b) {
      ASSERT_EQ(cl.bytes[b], static_cast<std::byte>((i * kCacheLineBytes + b) * 3));
    }
  }
}

TEST_P(RmaIntegrity, GetMpbToMpbMovesBytes) {
  const std::size_t lines = GetParam();
  scc::SccChip chip;
  seed_mpb(chip, 22, 5, lines, 0x40);
  chip.spawn(9, [lines](scc::Core& me) -> sim::Task<void> {
    co_await get_mpb_to_mpb(me, 100, MpbAddr{22, 5}, lines);
  });
  ASSERT_TRUE(chip.run().completed());
  EXPECT_TRUE(check_mpb(chip, 9, 100, lines, 0x40));
}

TEST_P(RmaIntegrity, GetMpbToMemMovesBytes) {
  const std::size_t lines = GetParam();
  scc::SccChip chip;
  seed_mpb(chip, 22, 0, lines, 0x77);
  chip.spawn(9, [lines](scc::Core& me) -> sim::Task<void> {
    co_await get_mpb_to_mem(me, 1024, MpbAddr{22, 0}, lines);
  });
  ASSERT_TRUE(chip.run().completed());
  const auto dst = chip.memory(9).host_bytes(1024, lines * kCacheLineBytes);
  for (std::size_t i = 0; i < lines; ++i) {
    for (std::size_t b = 0; b < kCacheLineBytes; ++b) {
      ASSERT_EQ(dst[i * kCacheLineBytes + b], static_cast<std::byte>(0x77 + i + b));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, RmaIntegrity,
                         ::testing::Values(1, 2, 7, 96, 128));

// --- exact timing agreement with Formulas 7-12 ----------------------------

struct TimingCase {
  std::size_t lines;
  CoreId actor;
  CoreId target;
};

class RmaTiming : public ::testing::TestWithParam<TimingCase> {};

sim::Duration run_timed(scc::SccChip& chip, CoreId actor,
                        std::function<sim::Task<void>(scc::Core&)> op) {
  sim::Duration out = 0;
  chip.spawn(actor, [&out, op = std::move(op)](scc::Core& me) -> sim::Task<void> {
    const sim::Time t0 = me.now();
    co_await op(me);
    out = me.now() - t0;
  });
  EXPECT_TRUE(chip.run().completed());
  return out;
}

TEST_P(RmaTiming, MatchesModelFormulas) {
  const TimingCase c = GetParam();
  const model::ModelParams p = model::ModelParams::paper();
  scc::SccConfig cfg;
  cfg.cache_enabled = false;  // model formulas assume cold memory reads
  const noc::Topology& scc = noc::Topology::scc();
  const int d_mpb = noc::Topology::routers_traversed(scc.tile_of_core(c.actor),
                                                     scc.tile_of_core(c.target));
  const int d_mem = scc.mem_distance(c.actor);

  {
    scc::SccChip chip(cfg);
    const sim::Duration t =
        run_timed(chip, c.actor, [&](scc::Core& me) -> sim::Task<void> {
          co_await put_mpb_to_mpb(me, MpbAddr{c.target, 0}, 0, c.lines);
        });
    EXPECT_EQ(t, model::put_from_mpb_completion(p, c.lines, d_mpb)) << "Formula 7";
  }
  {
    scc::SccChip chip(cfg);
    const sim::Duration t =
        run_timed(chip, c.actor, [&](scc::Core& me) -> sim::Task<void> {
          co_await put_mem_to_mpb(me, MpbAddr{c.target, 0}, 0, c.lines);
        });
    EXPECT_EQ(t, model::put_from_mem_completion(p, c.lines, d_mem, d_mpb))
        << "Formula 8";
  }
  {
    scc::SccChip chip(cfg);
    const sim::Duration t =
        run_timed(chip, c.actor, [&](scc::Core& me) -> sim::Task<void> {
          co_await get_mpb_to_mpb(me, 0, MpbAddr{c.target, 0}, c.lines);
        });
    EXPECT_EQ(t, model::get_to_mpb_completion(p, c.lines, d_mpb)) << "Formula 11";
  }
  {
    scc::SccChip chip(cfg);
    const sim::Duration t =
        run_timed(chip, c.actor, [&](scc::Core& me) -> sim::Task<void> {
          co_await get_mpb_to_mem(me, 0, MpbAddr{c.target, 0}, c.lines);
        });
    EXPECT_EQ(t, model::get_to_mem_completion(p, c.lines, d_mpb, d_mem))
        << "Formula 12";
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndDistances, RmaTiming,
    ::testing::Values(TimingCase{1, 0, 1},    // d=1 (tile mate)
                      TimingCase{4, 0, 2},    // d=2
                      TimingCase{8, 0, 47},   // d=9 (diagonal)
                      TimingCase{16, 10, 36}, // mid-mesh
                      TimingCase{96, 0, 3},   // a full OC-Bcast chunk
                      TimingCase{1, 13, 13}));  // local MPB, d=1

// --- the checksum output ------------------------------------------------------
//
// Every operation folds the lines it read into `sum` at one point — after
// the read and its on_read observation — on the per-line loop, on BulkOp's
// closed form (idle chip) and on its parity chain (busy chip). Each op
// runs twice, so a private-memory source is cache-hit the second time.

enum class SumOp { kPutMpbToMpb, kPutMemToMpb, kGetMpbToMpb, kGetMpbToMem };
enum class Regime { kPerLine, kClosedForm, kParityChain };

struct SumCase {
  SumOp op;
  Regime regime;
};

constexpr CoreId kActor = 9;
constexpr CoreId kRemote = 22;
constexpr CoreId kBystander = 30;
constexpr std::size_t kSumLines = 8;
constexpr std::size_t kLanding = 100;  // destination MPB line

sim::Task<void> run_op(scc::Core& me, SumOp op, std::uint64_t* sum) {
  switch (op) {
    case SumOp::kPutMpbToMpb:
      return put_mpb_to_mpb(me, MpbAddr{kRemote, kLanding}, 0, kSumLines, sum);
    case SumOp::kPutMemToMpb:
      return put_mem_to_mpb(me, MpbAddr{kRemote, kLanding}, 0, kSumLines, sum);
    case SumOp::kGetMpbToMpb:
      return get_mpb_to_mpb(me, kLanding, MpbAddr{kRemote, 0}, kSumLines, sum);
    case SumOp::kGetMpbToMem:
      break;
  }
  return get_mpb_to_mem(me, 0, MpbAddr{kRemote, 0}, kSumLines, sum);
}

std::uint64_t mpb_fold(scc::SccChip& chip, CoreId core, std::size_t first) {
  std::uint64_t h = kFnvOffsetBasis;
  for (std::size_t i = 0; i < kSumLines; ++i) {
    h = fold_line(h, chip.mpb(core).load(first + i));
  }
  return h;
}

std::uint64_t source_fold(scc::SccChip& chip, SumOp op) {
  switch (op) {
    case SumOp::kPutMpbToMpb:
      return mpb_fold(chip, kActor, 0);
    case SumOp::kPutMemToMpb:
      return host_checksum_mem(chip, kActor, 0, kSumLines);
    case SumOp::kGetMpbToMpb:
    case SumOp::kGetMpbToMem:
      break;
  }
  return mpb_fold(chip, kRemote, 0);
}

std::uint64_t destination_fold(scc::SccChip& chip, SumOp op) {
  switch (op) {
    case SumOp::kPutMpbToMpb:
    case SumOp::kPutMemToMpb:
      return mpb_fold(chip, kRemote, kLanding);
    case SumOp::kGetMpbToMpb:
      return mpb_fold(chip, kActor, kLanding);
    case SumOp::kGetMpbToMem:
      break;
  }
  return host_checksum_mem(chip, kActor, 0, kSumLines);
}

struct SumRun {
  std::uint64_t clean = 0;           // source fold before the run
  std::vector<std::uint64_t> sums;   // per op
  std::vector<std::uint64_t> landed; // destination fold after each op
  std::vector<sim::Time> done;       // each op's completion instant
  sim::RunResult run;
};

/// `corrupt_reads` installs an injector flipping a bit in every MPB and
/// private-memory read the chip makes.
SumRun run_sum_case(const SumCase& c, bool with_sum, bool corrupt_reads) {
  scc::SccConfig cfg;
  cfg.coalescing = c.regime != Regime::kPerLine;
  scc::SccChip chip(cfg);
  seed_mpb(chip, kActor, 0, kSumLines, 0x21);
  seed_mpb(chip, kRemote, 0, kSumLines, 0x63);
  auto mem = chip.memory(kActor).host_bytes(0, kSumLines * kCacheLineBytes);
  for (std::size_t i = 0; i < mem.size(); ++i) {
    mem[i] = static_cast<std::byte>(i * 7 + 1);
  }
  fault::FaultPlan plan;
  plan.rates.mpb_read = 1.0;
  plan.rates.mem_read = 1.0;
  fault::FaultInjector injector(chip, plan);
  if (corrupt_reads) chip.add_observer(&injector);

  SumRun out;
  out.clean = source_fold(chip, c.op);
  if (c.regime == Regime::kParityChain) {
    // One long get keeps the event queue non-empty for the actor's whole
    // run, contending for the remote MPB's port.
    chip.spawn(kBystander, [](scc::Core& me) -> sim::Task<void> {
      co_await get_mpb_to_mpb(me, 0, MpbAddr{kRemote, 0}, 128);
    });
  }
  chip.spawn(kActor, [&](scc::Core& me) -> sim::Task<void> {
    for (int rep = 0; rep < 2; ++rep) {
      std::uint64_t sum = 0;
      co_await run_op(me, c.op, with_sum ? &sum : nullptr);
      out.sums.push_back(sum);
      out.landed.push_back(destination_fold(chip, c.op));
      out.done.push_back(me.now());
    }
  });
  out.run = chip.run();
  EXPECT_TRUE(out.run.completed());
  return out;
}

void expect_regime(const SumRun& r, Regime regime) {
  const sim::Counters& n = r.run.counters;
  switch (regime) {
    case Regime::kPerLine:
      EXPECT_EQ(n.bulk_ops, 0u);
      break;
    case Regime::kClosedForm:
      EXPECT_EQ(n.bulk_ops, 2u);
      EXPECT_EQ(n.bulk_quiescent_ops, 2u);
      break;
    case Regime::kParityChain:
      EXPECT_EQ(n.bulk_ops, 3u);  // the actor's two and the bystander's
      EXPECT_EQ(n.bulk_quiescent_ops, 0u);
      break;
  }
  EXPECT_EQ(n.bulk_fallback_ops, 0u);
}

class RmaChecksum : public ::testing::TestWithParam<SumCase> {};

TEST_P(RmaChecksum, FoldsTheLinesAsObserved) {
  const SumCase c = GetParam();
  const SumRun plain = run_sum_case(c, /*with_sum=*/false, false);
  const SumRun clean = run_sum_case(c, /*with_sum=*/true, false);
  const SumRun faulty = run_sum_case(c, /*with_sum=*/true, true);
  expect_regime(clean, c.regime);
  expect_regime(faulty, c.regime);

  ASSERT_EQ(clean.sums.size(), 2u);
  ASSERT_EQ(faulty.sums.size(), 2u);
  for (std::size_t op = 0; op < 2; ++op) {
    // Clean: the fold of the bytes the op moved.
    EXPECT_EQ(clean.sums[op], clean.clean) << "op " << op;
    EXPECT_EQ(clean.landed[op], clean.clean) << "op " << op;
    // Every read corrupted: the fold of what the core saw, which is what
    // landed (writes are clean), not what the source holds.
    EXPECT_EQ(faulty.sums[op], faulty.landed[op]) << "op " << op;
    EXPECT_NE(faulty.sums[op], faulty.clean) << "op " << op;
  }

  // The fold is host arithmetic: no timestamp or event moves.
  EXPECT_EQ(clean.done, plain.done);
  EXPECT_EQ(clean.run.end_time, plain.run.end_time);
  EXPECT_EQ(clean.run.events_processed, plain.run.events_processed);
}

std::string sum_case_name(const ::testing::TestParamInfo<SumCase>& info) {
  static const char* const kOps[] = {"PutMpbToMpb", "PutMemToMpb",
                                     "GetMpbToMpb", "GetMpbToMem"};
  static const char* const kRegimes[] = {"PerLine", "ClosedForm",
                                         "ParityChain"};
  return std::string(kOps[static_cast<int>(info.param.op)]) + "_" +
         kRegimes[static_cast<int>(info.param.regime)];
}

std::vector<SumCase> all_sum_cases() {
  std::vector<SumCase> cases;
  for (SumOp op : {SumOp::kPutMpbToMpb, SumOp::kPutMemToMpb,
                   SumOp::kGetMpbToMpb, SumOp::kGetMpbToMem}) {
    for (Regime regime :
         {Regime::kPerLine, Regime::kClosedForm, Regime::kParityChain}) {
      cases.push_back({op, regime});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(OpsAndRegimes, RmaChecksum,
                         ::testing::ValuesIn(all_sum_cases()), sum_case_name);

// --- bounds ----------------------------------------------------------------

TEST(RmaBounds, RejectsOutOfRange) {
  scc::SccChip chip;
  bool threw_len = false, threw_range = false, threw_align = false;
  chip.spawn(0, [&](scc::Core& me) -> sim::Task<void> {
    try {
      co_await put_mpb_to_mpb(me, MpbAddr{1, 0}, 0, 0);
    } catch (const PreconditionError&) {
      threw_len = true;
    }
    try {
      co_await get_mpb_to_mpb(me, 200, MpbAddr{1, 200}, 100);
    } catch (const PreconditionError&) {
      threw_range = true;
    }
    try {
      co_await get_mpb_to_mem(me, 17, MpbAddr{1, 0}, 1);
    } catch (const PreconditionError&) {
      threw_align = true;
    }
  });
  ASSERT_TRUE(chip.run().completed());
  EXPECT_TRUE(threw_len);
  EXPECT_TRUE(threw_range);
  EXPECT_TRUE(threw_align);
}

// --- flags -------------------------------------------------------------------

TEST(Flags, EncodeDecodeRoundTrip) {
  for (FlagValue v : {0ull, 1ull, 42ull, (1ull << 63)}) {
    EXPECT_EQ(decode_flag(encode_flag(v)), v);
  }
}

TEST(Flags, PackIsInjectivePerWriterAndSeq) {
  EXPECT_NE(pack_flag(0, 1), pack_flag(1, 1));
  EXPECT_NE(pack_flag(0, 1), pack_flag(0, 2));
  EXPECT_NE(pack_flag(5, 100), pack_flag(100, 5));
}

TEST(Flags, SetAndWaitAcrossCores) {
  scc::SccChip chip;
  FlagValue seen = 0;
  sim::Time set_done = 0, wake = 0;
  chip.spawn(0, [&](scc::Core& me) -> sim::Task<void> {
    co_await me.busy(1000 * sim::kNanosecond);
    co_await set_flag(me, MpbAddr{7, 3}, 99);
    set_done = me.now();
  });
  chip.spawn(7, [&](scc::Core& me) -> sim::Task<void> {
    seen = co_await wait_flag_at_least(me, MpbAddr{7, 3}, 99);
    wake = me.now();
  });
  ASSERT_TRUE(chip.run().completed());
  EXPECT_EQ(seen, 99u);
  EXPECT_GT(wake, 1000u * sim::kNanosecond);
  // Detection = one local read after the value lands; the set completes
  // after its ack, roughly when the waiter wakes.
  EXPECT_LT(wake, set_done + 500 * sim::kNanosecond);
}

TEST(Flags, WaitPassesImmediatelyWhenAlreadySet) {
  scc::SccChip chip;
  host_init_flag(chip, MpbAddr{3, 0}, 5);
  sim::Duration waited = 0;
  chip.spawn(3, [&](scc::Core& me) -> sim::Task<void> {
    const sim::Time t0 = me.now();
    co_await wait_flag_at_least(me, MpbAddr{3, 0}, 5);
    waited = me.now() - t0;
  });
  ASSERT_TRUE(chip.run().completed());
  // Exactly one local poll read.
  EXPECT_EQ(waited, scc::SccConfig{}.o_mpb() + 2 * scc::SccConfig{}.l_hop);
}

TEST(Flags, WaitEqualRejectsOtherValues) {
  scc::SccChip chip;
  std::vector<FlagValue> accepted;
  chip.spawn(0, [&](scc::Core& me) -> sim::Task<void> {
    for (FlagValue v : {3ull, 5ull, 7ull}) {
      co_await me.busy(200 * sim::kNanosecond);
      co_await set_flag(me, MpbAddr{9, 0}, v);
    }
  });
  chip.spawn(9, [&](scc::Core& me) -> sim::Task<void> {
    accepted.push_back(co_await wait_flag_equal(me, MpbAddr{9, 0}, 7));
  });
  ASSERT_TRUE(chip.run().completed());
  ASSERT_EQ(accepted.size(), 1u);
  EXPECT_EQ(accepted[0], 7u);
}

TEST(Flags, ManyWritersInterleavedAreNotLost) {
  // Stress the lost-wakeup window: many rapid stores, a waiter for the
  // final value. Regression test for the read-response race.
  scc::SccChip chip;
  constexpr int kWriters = 8;
  constexpr FlagValue kTarget = 64;
  int done = 0;
  for (int w = 0; w < kWriters; ++w) {
    chip.spawn(w, [&, w](scc::Core& me) -> sim::Task<void> {
      for (FlagValue v = static_cast<FlagValue>(w) + 1; v <= kTarget;
           v += kWriters) {
        co_await set_flag(me, MpbAddr{40, 0}, v);
      }
    });
  }
  chip.spawn(40, [&](scc::Core& me) -> sim::Task<void> {
    co_await wait_flag_at_least(me, MpbAddr{40, 0}, kTarget - kWriters + 1);
    ++done;
  });
  ASSERT_TRUE(chip.run().completed());
  EXPECT_EQ(done, 1);
}

}  // namespace
}  // namespace ocb::rma
