// Unit tests for the assembled chip: configuration validation, wiring, and
// — crucially — per-cache-line transaction timings matching the Figure 2
// model identities the simulator is calibrated to.
#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <string>
#include <unordered_map>

#include "noc/topology.h"
#include "scc/chip.h"

namespace ocb::scc {
namespace {

CacheLine line_of(std::uint8_t fill) {
  CacheLine cl;
  cl.bytes.fill(std::byte{fill});
  return cl;
}

/// Runs a single-core program and returns its duration.
template <typename Fn>
sim::Duration timed_program(SccChip& chip, CoreId core, Fn&& body) {
  sim::Duration elapsed = 0;
  chip.spawn(core, [&elapsed, body = std::forward<Fn>(body)](
                       Core& me) mutable -> sim::Task<void> {
    const sim::Time t0 = me.now();
    co_await body(me);
    elapsed = me.now() - t0;
  });
  const sim::RunResult r = chip.run();
  EXPECT_TRUE(r.completed());
  return elapsed;
}

TEST(SccConfig, DefaultsMatchTable1Aggregates) {
  const SccConfig cfg;
  EXPECT_EQ(cfg.o_mpb(), 126u * sim::kNanosecond);
  EXPECT_EQ(cfg.o_mem_read(), 208u * sim::kNanosecond);
  EXPECT_EQ(cfg.o_mem_write(), 461u * sim::kNanosecond);
  EXPECT_EQ(cfg.l_hop, 5u * sim::kNanosecond);
  EXPECT_EQ(cfg.o_put_mpb, 69u * sim::kNanosecond);
  EXPECT_EQ(cfg.o_get_mpb, 330u * sim::kNanosecond);
  EXPECT_EQ(cfg.o_put_mem, 190u * sim::kNanosecond);
  EXPECT_EQ(cfg.o_get_mem, 95u * sim::kNanosecond);
}

TEST(SccConfig, ValidationCatchesNonsense) {
  SccConfig cfg;
  cfg.l_hop = 0;
  EXPECT_THROW(cfg.validate(), PreconditionError);
  cfg = SccConfig{};
  cfg.link_occupancy = cfg.l_hop + 1;
  EXPECT_THROW(cfg.validate(), PreconditionError);
  cfg = SccConfig{};
  cfg.private_memory_limit = 1024;
  EXPECT_THROW(cfg.validate(), PreconditionError);
  EXPECT_NO_THROW(SccConfig{}.validate());
}

// The data cache names lines by 32-bit numbers, so the private memory may
// hold no more lines than they reach (just under 128 GiB of 32-byte lines).
TEST(SccConfig, ValidationBoundsPrivateMemoryByTheCacheLineIndex) {
  SccConfig cfg;
  cfg.private_memory_limit = DataCache::kMaxLines * kCacheLineBytes;
  EXPECT_NO_THROW(cfg.validate());
  cfg.private_memory_limit += kCacheLineBytes;
  EXPECT_THROW(cfg.validate(), PreconditionError);
  cfg.private_memory_limit = std::size_t{128} << 30;
  try {
    cfg.validate();
    ADD_FAILURE() << "a 128 GiB private memory limit was accepted";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("private_memory_limit"),
              std::string::npos)
        << e.what();
  }
}

TEST(SccChip, WiringAccessorsBoundsChecked) {
  SccChip chip;
  EXPECT_NO_THROW(chip.core(0));
  EXPECT_NO_THROW(chip.core(47));
  EXPECT_THROW(chip.core(48), PreconditionError);
  EXPECT_THROW(chip.mpb(-1), PreconditionError);
  EXPECT_THROW(chip.mpb_port(24), PreconditionError);
  EXPECT_THROW(chip.mc_port(4), PreconditionError);
  EXPECT_THROW(chip.memory(48), PreconditionError);
}

TEST(SccChip, CoreIdentityAndDistances) {
  SccChip chip;
  for (CoreId c = 0; c < kNumCores; ++c) {
    EXPECT_EQ(chip.core(c).id(), c);
    EXPECT_EQ(chip.core(c).tile(), noc::Topology::scc().tile_of_core(c));
    EXPECT_EQ(chip.core(c).mem_distance(),
              noc::Topology::scc().mem_distance(c));
    EXPECT_EQ(chip.core(c).mpb_distance(c), 1);
  }
  EXPECT_EQ(chip.core(0).mpb_distance(47), 9);
  EXPECT_EQ(chip.core(0).mpb_distance(1), 1) << "tile-mate is one router away";
}

// The calibration identities: measured single-line completion must equal
// the Figure 2 formulas with Table 1 parameters, for every distance.
class LineTimingAtDistance : public ::testing::TestWithParam<int> {};

TEST_P(LineTimingAtDistance, MpbReadCompletion) {
  const int d = GetParam();
  SccChip chip;
  // Find a pair of distinct cores at distance d.
  CoreId reader = -1, owner = -1;
  for (CoreId a = 0; a < kNumCores && reader < 0; ++a) {
    for (CoreId b = 0; b < kNumCores; ++b) {
      if (a != b && chip.core(a).mpb_distance(b) == d) {
        reader = a;
        owner = b;
        break;
      }
    }
  }
  ASSERT_GE(reader, 0);
  const sim::Duration t = timed_program(chip, reader, [owner](Core& me) {
    return [](Core& c, CoreId o) -> sim::Task<void> {
      CacheLine cl;
      co_await c.mpb_read_line(o, 0, cl);
    }(me, owner);
  });
  const SccConfig cfg;
  EXPECT_EQ(t, cfg.o_mpb() + 2u * static_cast<sim::Duration>(d) * cfg.l_hop);
}

TEST_P(LineTimingAtDistance, MpbWriteCompletion) {
  const int d = GetParam();
  SccChip chip;
  CoreId writer = -1, owner = -1;
  for (CoreId a = 0; a < kNumCores && writer < 0; ++a) {
    for (CoreId b = 0; b < kNumCores; ++b) {
      if (a != b && chip.core(a).mpb_distance(b) == d) {
        writer = a;
        owner = b;
        break;
      }
    }
  }
  ASSERT_GE(writer, 0);
  const sim::Duration t = timed_program(chip, writer, [owner](Core& me) {
    return [](Core& c, CoreId o) -> sim::Task<void> {
      co_await c.mpb_write_line(o, 0, CacheLine{});
    }(me, owner);
  });
  const SccConfig cfg;
  EXPECT_EQ(t, cfg.o_mpb() + 2u * static_cast<sim::Duration>(d) * cfg.l_hop);
}

INSTANTIATE_TEST_SUITE_P(Distances1To9, LineTimingAtDistance,
                         ::testing::Range(1, 10));

class MemTimingAtDistance : public ::testing::TestWithParam<int> {};

TEST_P(MemTimingAtDistance, MemReadAndWriteCompletion) {
  const int d = GetParam();
  CoreId core = -1;
  for (CoreId c = 0; c < kNumCores; ++c) {
    if (noc::Topology::scc().mem_distance(c) == d) {
      core = c;
      break;
    }
  }
  ASSERT_GE(core, 0);
  SccConfig cfg;
  cfg.cache_enabled = false;  // isolate the off-chip path
  SccChip chip(cfg);
  sim::Duration read_t = 0, write_t = 0;
  chip.spawn(core, [&](Core& me) -> sim::Task<void> {
    CacheLine cl;
    sim::Time t0 = me.now();
    co_await me.mem_read_line(0, cl);
    read_t = me.now() - t0;
    t0 = me.now();
    co_await me.mem_write_line(0, cl);
    write_t = me.now() - t0;
  });
  ASSERT_TRUE(chip.run().completed());
  EXPECT_EQ(read_t, cfg.o_mem_read() + 2u * static_cast<sim::Duration>(d) * cfg.l_hop);
  EXPECT_EQ(write_t, cfg.o_mem_write() + 2u * static_cast<sim::Duration>(d) * cfg.l_hop);
}

INSTANTIATE_TEST_SUITE_P(Distances1To4, MemTimingAtDistance, ::testing::Range(1, 5));

TEST(SccChip, DataMovesThroughMpb) {
  SccChip chip;
  chip.spawn(3, [](Core& me) -> sim::Task<void> {
    co_await me.mpb_write_line(40, 17, line_of(0x77));
  });
  ASSERT_TRUE(chip.run().completed());
  EXPECT_EQ(chip.mpb(40).load(17), line_of(0x77));
}

TEST(SccChip, CacheHitIsCheap) {
  SccChip chip;  // cache on by default
  sim::Duration first = 0, second = 0;
  chip.spawn(0, [&](Core& me) -> sim::Task<void> {
    CacheLine cl;
    sim::Time t0 = me.now();
    co_await me.mem_read_line(0, cl);
    first = me.now() - t0;
    t0 = me.now();
    co_await me.mem_read_line(0, cl);
    second = me.now() - t0;
  });
  ASSERT_TRUE(chip.run().completed());
  const SccConfig cfg;
  EXPECT_GT(first, cfg.o_mem_core_read);
  EXPECT_EQ(second, cfg.o_cache_hit);
}

TEST(SccChip, WriteAllocateWarmsCache) {
  SccChip chip;
  sim::Duration read_after_write = 0;
  chip.spawn(0, [&](Core& me) -> sim::Task<void> {
    co_await me.mem_write_line(64, line_of(1));
    const sim::Time t0 = me.now();
    CacheLine cl;
    co_await me.mem_read_line(64, cl);
    read_after_write = me.now() - t0;
  });
  ASSERT_TRUE(chip.run().completed());
  EXPECT_EQ(read_after_write, SccConfig{}.o_cache_hit)
      << "a just-written line must be a cache hit (the §5.2.2 resend effect)";
}

TEST(SccChip, CacheEvictsBeyondCapacity) {
  SccConfig cfg;
  cfg.cache_capacity_lines = 4;
  SccChip chip(cfg);
  sim::Duration reread = 0;
  chip.spawn(0, [&](Core& me) -> sim::Task<void> {
    CacheLine cl;
    for (std::size_t i = 0; i < 8; ++i) {
      co_await me.mem_read_line(i * kCacheLineBytes, cl);
    }
    const sim::Time t0 = me.now();
    co_await me.mem_read_line(0, cl);  // line 0 was evicted
    reread = me.now() - t0;
  });
  ASSERT_TRUE(chip.run().completed());
  EXPECT_GT(reread, cfg.o_mem_core_read);
}

TEST(SccChip, DisabledCacheAlwaysPaysFullCost) {
  SccConfig cfg;
  cfg.cache_enabled = false;
  SccChip chip(cfg);
  sim::Duration second = 0;
  chip.spawn(0, [&](Core& me) -> sim::Task<void> {
    CacheLine cl;
    co_await me.mem_read_line(0, cl);
    const sim::Time t0 = me.now();
    co_await me.mem_read_line(0, cl);
    second = me.now() - t0;
  });
  ASSERT_TRUE(chip.run().completed());
  EXPECT_GT(second, cfg.o_mem_core_read);
}

TEST(SccChip, JitterIsDeterministicPerSeed) {
  auto run_once = [](std::uint64_t seed) {
    SccConfig cfg;
    cfg.jitter = 20 * sim::kNanosecond;
    cfg.seed = seed;
    SccChip chip(cfg);
    sim::Duration total = 0;
    chip.spawn(5, [&](Core& me) -> sim::Task<void> {
      CacheLine cl;
      const sim::Time t0 = me.now();
      for (int i = 0; i < 16; ++i) co_await me.mpb_read_line(20, 0, cl);
      total = me.now() - t0;
    });
    EXPECT_TRUE(chip.run().completed());
    return total;
  };
  EXPECT_EQ(run_once(1), run_once(1));
  EXPECT_NE(run_once(1), run_once(2));
}

TEST(SccChip, LambdaCapturesSurviveSpawn) {
  SccChip chip;
  int value = 7;
  int result = 0;
  chip.spawn(0, [&result, value](Core& me) -> sim::Task<void> {
    co_await me.busy(100);
    result = value * 2;
  });
  ASSERT_TRUE(chip.run().completed());
  EXPECT_EQ(result, 14);
}

TEST(SccConfig, ScaledDividesTheRightGroups) {
  const SccConfig base;
  const SccConfig fast = base.scaled(/*core=*/2.0, /*mesh=*/4.0, /*mem=*/1.0);
  EXPECT_EQ(fast.o_mpb_core, base.o_mpb_core / 2);
  EXPECT_EQ(fast.o_get_mpb, base.o_get_mpb / 2);
  EXPECT_EQ(fast.o_irq_entry, base.o_irq_entry / 2);
  EXPECT_EQ(fast.l_hop, base.l_hop / 4);
  EXPECT_EQ(fast.t_mpb_port, base.t_mpb_port / 4);
  EXPECT_EQ(fast.o_mem_core_read, base.o_mem_core_read);
  EXPECT_EQ(fast.o_mem_core_write, base.o_mem_core_write);
  EXPECT_LE(fast.link_occupancy, fast.l_hop) << "cut-through invariant kept";
  EXPECT_NO_THROW(fast.validate());
}

TEST(SccConfig, ScaledIdentityIsIdentity) {
  const SccConfig base;
  const SccConfig same = base.scaled(1.0, 1.0, 1.0);
  EXPECT_EQ(same.o_mpb(), base.o_mpb());
  EXPECT_EQ(same.l_hop, base.l_hop);
  EXPECT_EQ(same.o_mem_read(), base.o_mem_read());
}

TEST(SccConfig, ScaledClampsToOnePicosecond) {
  const SccConfig tiny = SccConfig{}.scaled(1e9, 1e9, 1e9);
  EXPECT_GE(tiny.l_hop, 1u);
  EXPECT_GE(tiny.o_mpb_core, 1u);
  EXPECT_NO_THROW(tiny.validate());
}

TEST(SccConfig, ScaledRejectsNonPositiveSpeedups) {
  EXPECT_THROW(SccConfig{}.scaled(0.0, 1.0, 1.0), PreconditionError);
  EXPECT_THROW(SccConfig{}.scaled(1.0, -1.0, 1.0), PreconditionError);
}

TEST(DataCache, LruSemantics) {
  constexpr std::size_t k1 = 1 * kCacheLineBytes;
  constexpr std::size_t k2 = 2 * kCacheLineBytes;
  constexpr std::size_t k3 = 3 * kCacheLineBytes;
  DataCache cache(2);
  cache.insert(k1);
  cache.insert(k2);
  EXPECT_TRUE(cache.lookup(k1));  // refreshes k1; LRU order now [k1, k2]
  cache.insert(k3);               // evicts k2
  EXPECT_TRUE(cache.lookup(k1));
  EXPECT_FALSE(cache.lookup(k2));
  EXPECT_TRUE(cache.lookup(k3));
  EXPECT_EQ(cache.size(), 2u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.lookup(k1));
}

TEST(DataCache, ReinsertRefreshes) {
  constexpr std::size_t k1 = 1 * kCacheLineBytes;
  constexpr std::size_t k2 = 2 * kCacheLineBytes;
  constexpr std::size_t k3 = 3 * kCacheLineBytes;
  DataCache cache(2);
  cache.insert(k1);
  cache.insert(k2);
  cache.insert(k1);  // refresh, not duplicate
  cache.insert(k3);  // evicts k2
  EXPECT_TRUE(cache.lookup(k1));
  EXPECT_FALSE(cache.lookup(k2));
}

// Offsets name private-memory lines, so they must be line-aligned, as for
// mem::PrivateMemory::load and store.
TEST(DataCache, RejectsUnalignedOffsets) {
  DataCache cache(4);
  EXPECT_THROW(cache.insert(1), PreconditionError);
  EXPECT_THROW(cache.lookup(33), PreconditionError);
  EXPECT_EQ(cache.size(), 0u);
}

/// Reference LRU for DataCache: most recently used at the front.
class ReferenceLru {
 public:
  explicit ReferenceLru(std::size_t capacity) : capacity_(capacity) {}

  bool lookup(std::size_t key) {
    const auto it = where_.find(key);
    if (it == where_.end()) return false;
    order_.splice(order_.begin(), order_, it->second);
    return true;
  }
  void insert(std::size_t key) {
    if (capacity_ == 0 || lookup(key)) return;
    if (order_.size() == capacity_) {
      where_.erase(order_.back());
      order_.pop_back();
    }
    order_.push_front(key);
    where_[key] = order_.begin();
  }
  void clear() {
    order_.clear();
    where_.clear();
  }
  std::size_t size() const { return order_.size(); }

 private:
  std::size_t capacity_;
  std::list<std::size_t> order_;
  std::unordered_map<std::size_t, std::list<std::size_t>::iterator> where_;
};

// Seeded insert/lookup/clear mixes, every step checked against the
// reference, at capacities around 256 lines and up to the chip default.
// Phase 1 fills about half the capacity and clears; phase 2 refills past
// that high-water mark to full capacity with evictions; phase 3 clears at
// random points. Phase 4 streams fresh lines in 96-line chunks to four
// times the capacity, probing each chunk and the lines around the LRU edge.
// Phase 5 mixes lines at the bottom and the top of the default private
// memory. Phase 6 (capacities under 256) spreads a few lines over several
// 256-line spans, so one span's lines all go while its neighbours stay.
TEST(DataCache, MatchesReferenceLru) {
  constexpr std::size_t kSpanLines = 256;
  constexpr std::size_t kChunkLines = 96;
  for (const std::size_t capacity : {1, 2, 3, 255, 256, 257, 8192}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE("capacity " + std::to_string(capacity) + " seed " +
                   std::to_string(seed));
      DataCache cache(capacity);
      ReferenceLru ref(capacity);
      Xoshiro256 rng(seed * 1'000'003 + capacity);
      std::size_t high_water = 0;
      const auto run = [&](auto next_line, std::size_t steps,
                           std::uint64_t clear_one_in) {
        for (std::size_t i = 0; i < steps; ++i) {
          const std::uint64_t op = rng.next_below(64);
          const std::size_t key = next_line() * kCacheLineBytes;
          if (clear_one_in != 0 && rng.next_below(clear_one_in) == 0) {
            cache.clear();
            ref.clear();
          } else if (op < 28) {
            cache.insert(key);
            ref.insert(key);
          } else {
            ASSERT_EQ(cache.lookup(key), ref.lookup(key)) << "step " << i;
          }
          ASSERT_EQ(cache.size(), ref.size()) << "step " << i;
          high_water = std::max(high_water, cache.size());
        }
      };
      const auto below = [&rng](std::uint64_t lines) {
        return [&rng, lines] { return rng.next_below(lines); };
      };
      const std::size_t half = (capacity + 1) / 2;
      run(below(half), 8 * capacity + 64, 0);
      EXPECT_LE(high_water, half);
      cache.clear();
      ref.clear();
      EXPECT_EQ(cache.size(), 0u);
      high_water = 0;
      run(below(2 * capacity + 1), 8 * capacity + 64, 0);
      EXPECT_EQ(high_water, capacity) << "refill reaches full capacity";
      run(below(2 * capacity + 1), 4 * capacity + 64, 16);

      const auto probe = [&](std::size_t line) {
        const std::size_t key = line * kCacheLineBytes;
        ASSERT_EQ(cache.lookup(key), ref.lookup(key)) << "line " << line;
      };
      const std::size_t first = 2 * capacity + 1;  // above phases 1-3
      const std::size_t end = first + 4 * capacity;
      for (std::size_t begin = first; begin < end; begin += kChunkLines) {
        const std::size_t chunk_end = std::min(begin + kChunkLines, end);
        for (std::size_t line = begin; line < chunk_end; ++line) {
          cache.insert(line * kCacheLineBytes);
          ref.insert(line * kCacheLineBytes);
        }
        ASSERT_EQ(cache.size(), ref.size()) << "stream to line " << chunk_end;
        for (std::size_t line = begin; line < chunk_end; ++line) probe(line);
        const std::size_t edge = chunk_end - std::min(chunk_end, capacity);
        for (std::size_t line = edge - std::min<std::size_t>(edge, 2);
             line < edge + 2; ++line) {
          probe(line);
        }
      }

      const std::size_t top =
          SccConfig{}.private_memory_limit / kCacheLineBytes - (capacity + 1);
      const auto bottom_or_top = [&] {
        const std::uint64_t high = rng.next_below(2);
        return high * top + rng.next_below(capacity + 1);
      };
      run(bottom_or_top, 8 * capacity + 64, 2 * capacity + 64);

      if (capacity < kSpanLines) {
        const std::size_t width = capacity / 2 + 1;
        const auto spread = [&] {
          const std::uint64_t span = rng.next_below(5);
          return span * kSpanLines + rng.next_below(width);
        };
        run(spread, 16 * capacity + 256, 0);
      }
    }
  }
}

}  // namespace
}  // namespace ocb::scc
