#include "core/onesided_sag.h"

#include <algorithm>

#include "common/require.h"
#include "rma/rma.h"

namespace ocb::core {

namespace {
constexpr std::size_t kFlagLines = 4;
}  // namespace

/// Slice geometry shared by every participant: slice s covers the byte
/// range [s, s+1) * slice_bytes clipped to the message; all arithmetic is
/// in whole cache lines (the RMA granularity), so the tail slice may be
/// short or empty.
struct OneSidedScatterAllgather::SliceMap {
  std::size_t message_lines;
  std::size_t slice_lines;  // ceil(message_lines / parties)
  int parties;

  std::size_t lines_of(int slice) const {
    const std::size_t begin =
        std::min(message_lines, static_cast<std::size_t>(slice) * slice_lines);
    const std::size_t end = std::min(message_lines,
                                     (static_cast<std::size_t>(slice) + 1) * slice_lines);
    return end - begin;
  }
  std::size_t begin_offset(int slice) const {
    return std::min(message_lines, static_cast<std::size_t>(slice) * slice_lines) *
           kCacheLineBytes;
  }
  std::size_t range_lines(int first, int last) const {
    std::size_t total = 0;
    for (int s = first; s < last; ++s) total += lines_of(s);
    return total;
  }
};

OneSidedScatterAllgather::OneSidedScatterAllgather(scc::SccChip& chip,
                                                   const coll::Params& params)
    : chip_(&chip),
      parties_(chip.resolve_parties(params.parties)),
      base_(params.mpb_base_line),
      // The fence's own bounds check covers the whole layout.
      calls_(chip, fence_line(), parties_) {
  n_ = chip.topology().num_cores();
  const auto n = static_cast<std::size_t>(n_);
  staged_.assign(n, 0);
  consumed_from_right_.assign(n, 0);
  push_seq_.assign(n * n, 0);
  drain_seq_.assign(n * n, 0);
}

std::size_t OneSidedScatterAllgather::fence_line() const {
  return base_ + kFlagLines + 3 * kChunkLines;
}

std::size_t OneSidedScatterAllgather::stage_line(std::uint64_t parity) const {
  OCB_REQUIRE(parity < 2, "staging parity out of range");
  return base_ + kFlagLines + (1 + parity) * kChunkLines;
}

std::uint64_t& OneSidedScatterAllgather::pair_seq(CoreId parent, CoreId child) {
  return push_seq_[static_cast<std::size_t>(parent) * static_cast<std::size_t>(n_) +
                   static_cast<std::size_t>(child)];
}

sim::Task<void> OneSidedScatterAllgather::push_range(scc::Core& self, CoreId child,
                                                     std::size_t mem_offset,
                                                     std::size_t lines) {
  const std::size_t chunk = kChunkLines;
  std::size_t done = 0;
  bool first = true;
  while (done < lines) {
    const std::size_t n = std::min(chunk, lines - done);
    const std::uint64_t s = ++pair_seq(self.id(), child);
    if (!first) {
      // The child must have drained the previous chunk of this range; for
      // the first chunk the previous broadcast's completion already
      // guarantees a free inbox.
      co_await rma::wait_flag(
          self, rma::MpbAddr{child, inbox_done_line()},
          [v = rma::pack_flag(self.id(), s - 1)](rma::FlagValue f) { return f == v; });
    }
    first = false;
    co_await rma::put_mem_to_mpb(self, rma::MpbAddr{child, inbox_line()},
                                 mem_offset + done * kCacheLineBytes, n);
    co_await rma::set_flag(self, rma::MpbAddr{child, inbox_ready_line()},
                           rma::pack_flag(self.id(), s));
    done += n;
  }
}

sim::Task<void> OneSidedScatterAllgather::drain_range(scc::Core& self, CoreId parent,
                                                      std::size_t mem_offset,
                                                      std::size_t lines) {
  const std::size_t chunk = kChunkLines;
  std::size_t done = 0;
  while (done < lines) {
    const std::size_t n = std::min(chunk, lines - done);
    const std::uint64_t s =
        ++drain_seq_[static_cast<std::size_t>(parent) * static_cast<std::size_t>(n_) +
                     static_cast<std::size_t>(self.id())];
    co_await rma::wait_flag(
        self, rma::MpbAddr{self.id(), inbox_ready_line()},
        [v = rma::pack_flag(parent, s)](rma::FlagValue f) { return f == v; });
    co_await rma::get_mpb_to_mem(self, mem_offset + done * kCacheLineBytes,
                                 rma::MpbAddr{self.id(), inbox_line()}, n);
    // Local write; the parent polls this line remotely.
    co_await self.busy(self.chip().config().o_put_mpb);
    rma::note_flag_release(self, rma::MpbAddr{self.id(), inbox_done_line()},
                           rma::pack_flag(parent, s));
    co_await self.mpb_write_line(self.id(), inbox_done_line(),
                                 rma::encode_flag(rma::pack_flag(parent, s)));
    done += n;
  }
}

sim::Task<void> OneSidedScatterAllgather::run(scc::Core& self, CoreId root,
                                              std::size_t offset, std::size_t bytes) {
  const int p = parties_;
  OCB_REQUIRE(self.id() < p, "core is not a participant");
  OCB_REQUIRE(root >= 0 && root < p, "root is not a participant");
  OCB_REQUIRE(bytes > 0, "empty broadcast");

  const CoreId me = self.id();
  const int rel = (me - root + p) % p;
  auto absolute = [&](int rank) { return (root + rank) % p; };
  const std::size_t chunk = kChunkLines;

  // Fence on a root change (the scatter tree's flag writers move).
  if (calls_.root_changed(me, root)) co_await calls_.fence(self);
  const SliceMap map{cache_lines_for(bytes),
                     (cache_lines_for(bytes) + static_cast<std::size_t>(p) - 1) /
                         static_cast<std::size_t>(p),
                     p};
  auto chunks_of = [&](std::size_t lines) { return (lines + chunk - 1) / chunk; };

  // --- scatter: binary recursive tree, one-sided inbox pushes -------------
  self.set_stage("1s-s-ag:scatter");
  {
    int lo = 0;
    int hi = p;
    while (hi - lo > 1) {
      const int mid = lo + (hi - lo) / 2;
      if (rel < mid) {
        if (rel == lo && map.range_lines(mid, hi) > 0) {
          co_await push_range(self, absolute(mid), offset + map.begin_offset(mid),
                              map.range_lines(mid, hi));
        }
        hi = mid;
      } else {
        if (rel == mid && map.range_lines(mid, hi) > 0) {
          co_await drain_range(self, absolute(lo), offset + map.begin_offset(mid),
                               map.range_lines(mid, hi));
        }
        lo = mid;
      }
    }
  }

  // --- allgather: one-sided shift ring -------------------------------------
  // Round t (1..P-1): serve slice (rel+t-1) by staging it from memory into
  // the own MPB (the slice landed in memory one round earlier, so these
  // reads are cache hits), while the left neighbour pulls the chunks
  // straight into its private memory. Stage and consume interleave per
  // chunk so each dependency spans two ring neighbours only.
  const CoreId right = absolute((rel + 1) % p);
  self.set_stage("1s-s-ag:allgather");

  auto stage_parity = [](std::uint64_t stage_number) {
    return (stage_number - 1) % 2;  // stage numbers are 1-based
  };

  for (int t = 1; t < p; ++t) {
    const int out_slice = (rel + t - 1) % p;
    const int in_slice = (rel + t) % p;
    const std::size_t out_lines = map.lines_of(out_slice);
    const std::size_t in_lines = map.lines_of(in_slice);
    const std::size_t out_off = offset + map.begin_offset(out_slice);
    const std::size_t in_off = offset + map.begin_offset(in_slice);
    const std::size_t steps = std::max(chunks_of(out_lines), chunks_of(in_lines));
    for (std::size_t c = 0; c < steps; ++c) {
      if (c < chunks_of(out_lines)) {
        const std::size_t n = std::min(chunk, out_lines - c * chunk);
        const std::uint64_t mine = staged_[static_cast<std::size_t>(me)] + 1;
        if (mine > 2) {
          // The staging slot is reused once the left neighbour consumed the
          // chunk staged there two stages ago.
          co_await rma::wait_flag_at_least(self, rma::MpbAddr{me, stage_done_line()},
                                           mine - 2);
        }
        co_await rma::put_mem_to_mpb(
            self, rma::MpbAddr{me, stage_line(stage_parity(mine))},
            out_off + c * chunk * kCacheLineBytes, n);
        staged_[static_cast<std::size_t>(me)] = mine;
        co_await self.busy(self.chip().config().o_put_mpb);
        rma::note_flag_release(self, rma::MpbAddr{me, stage_ready_line()}, mine);
        co_await self.mpb_write_line(me, stage_ready_line(), rma::encode_flag(mine));
      }
      if (c < chunks_of(in_lines)) {
        const std::size_t n = std::min(chunk, in_lines - c * chunk);
        const std::uint64_t theirs =
            ++consumed_from_right_[static_cast<std::size_t>(me)];
        // Remote poll of the right neighbour's staging announcement, then a
        // direct MPB-to-memory pull — the received slice never needs a
        // staging copy on the receiving side.
        co_await rma::wait_flag_at_least(
            self, rma::MpbAddr{right, stage_ready_line()}, theirs);
        co_await rma::get_mpb_to_mem(self, in_off + c * chunk * kCacheLineBytes,
                                     rma::MpbAddr{right, stage_line(stage_parity(theirs))},
                                     n);
        co_await rma::set_flag(self, rma::MpbAddr{right, stage_done_line()}, theirs);
      }
    }
  }
}

}  // namespace ocb::core
