// What the pipelined-tree family shares besides its chunk protocol: one MPB
// layout and one per-core record of the calls made so far. The family is
// OC-Bcast over the k-ary or the die-aware tree (core/ocbcast.h), FT-OC-Bcast
// (core/ft_ocbcast.h) and OC-Reduce (core/ocreduce.h); the one-sided
// scatter-allgather uses the root-change fence alone.
//
// MPB layout per core (§5.1) with base b, D done slots, B buffers of m lines,
// S staged lines (B for FT-OC-Bcast, else 0) and R = ceil(log2 parties):
//
//   b+0                    notifyFlag  (OC-Reduce: consumedFlag)
//   b+1     .. b+D         doneFlag[D] (OC-Reduce: readyFlag[D]); D = k, or
//                          k + die_k over the die-aware tree
//   b+D+1   .. b+D+S       staged line per buffer: (seq, checksum)
//   b+D+S+1 .. +B*m        buffer 0 [, buffer 1]
//   then R lines           root-change fence (dissemination rounds)
//
// Flag values are absolute chunk sequence numbers, monotone across calls, so
// back-to-back calls with the SAME root cannot race: a wait for sequence s
// can only be satisfied by this call's writes, because each flag line keeps
// a fixed writer. When the ROOT changes, the tree changes and so do the
// writers — a straggler still in the previous call could then mistake a
// fast core's next-call flag for its own missing one. Every member
// therefore fences with a dissemination barrier, whose flag lines have
// root-independent writers, whenever the root differs from its previous
// call's. Same-root sequences never fence.
#pragma once

#include <cstdint>
#include <vector>

#include "coll/collective.h"
#include "rma/barrier.h"
#include "scc/chip.h"

namespace ocb::core {

/// One instance's MPB layout (see the header comment for the picture).
struct TreeLayout {
  std::size_t base = 0;         ///< b: first line (Params::mpb_base_line)
  int done_slots = 0;           ///< D
  std::size_t buffers = 2;      ///< B: 2 with double buffering (§4.2), else 1
  bool staged = false;          ///< S = B staged lines (FT-OC-Bcast)
  std::size_t chunk_lines = 0;  ///< m
  int fence_rounds = 0;         ///< R

  /// The layout of `p` with `done_slots` done slots: B from
  /// double_buffering, m = chunk_lines, R from parties.
  static TreeLayout of(const coll::Params& p, int done_slots,
                       bool staged = false);

  std::size_t notify_line() const { return base; }
  std::size_t done_line(int slot) const;
  std::size_t staged_line(std::uint64_t parity) const;
  std::size_t buffer_line(std::uint64_t parity) const;
  std::size_t fence_line() const;
  /// Lines from base through the last fence line; with m = 0, every line
  /// that is not payload.
  std::size_t lines() const;
  /// Whether the layout ends inside the 256-line MPB.
  bool fits() const { return base + lines() <= kMpbCacheLines; }
};

/// Per-core call record of one instance: the chunks each core has moved so
/// far (the absolute sequence base, identical on every core because
/// collective calls match), the root of its previous call, and the
/// root-change fence.
class CallSequence {
 public:
  /// Cores 0..parties-1 fence on lines [fence_line, fence_line + R) of
  /// their MPBs.
  CallSequence(scc::SccChip& chip, std::size_t fence_line, int parties);

  /// Claims `chunks` sequence numbers for `me`'s call and returns the count
  /// claimed before it: the call's chunks are base+1 .. base+chunks.
  std::uint64_t claim(CoreId me, std::size_t chunks);

  /// Records `root` for `me`'s call. True when `me`'s previous call had a
  /// different root: the caller must then co_await fence() before its
  /// first flag access.
  bool root_changed(CoreId me, CoreId root);

  sim::Task<void> fence(scc::Core& self) { return barrier_.wait(self); }

 private:
  rma::FlagBarrier barrier_;
  std::vector<std::uint64_t> chunks_;
  std::vector<CoreId> last_root_;
};

}  // namespace ocb::core
