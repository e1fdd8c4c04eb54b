// One-sided scatter-allgather broadcast — the alternative RMA design the
// paper's §5.4 sketches ("a good example of another possible broadcast
// implementation is adapting the two-sided scatter-allgather algorithm to
// use the one-sided primitives").
//
// Same two phases as the RCCE_comm baseline, but every transfer is a
// direct one-sided operation on MPBs instead of a rendezvous through the
// receiver's buffer:
//
//  * scatter — the binary recursive tree, with the parent *pushing* each
//    chunk straight into the child's MPB inbox (put) and the child
//    draining it to memory (get); flags carry (parent, sequence) values.
//
//  * allgather — the shift ring, one-sided: each round a core *stages*
//    the slice it is serving in its own MPB (double-buffered, read from
//    memory — a cache hit, because the slice arrived there one round
//    earlier: the §5.2.2 effect) and the left neighbour *gets* chunks
//    straight from the staging buffer into its private memory. Stage and
//    consume steps interleave per chunk, so each chunk's dependency spans
//    only two ring neighbours and the pipeline never serializes around
//    the ring. (A first design kept received chunks staged in the MPB to
//    skip the memory read entirely; that couples three consecutive cores
//    per chunk and collapses into one full ring traversal per round —
//    documented in EXPERIMENTS.md as a negative result.)
//
// The allgather ring's flag writers are root-independent (absolute ring
// neighbours), but the SCATTER tree's are not: run() takes the pipelined-
// tree family's root-change fence (core/pipeline.h describes the hazard).
//
// MPB layout per core (chunk_lines = 82 so that inbox + two staging
// buffers + 4 flag lines + 6 fence lines fill the 256-line MPB):
//
//   line 0            stage_ready  (written locally; polled by the left
//                                   neighbour — value: absolute count of
//                                   chunks this core has ever staged)
//   line 1            stage_done   (written by the left neighbour — count
//                                   of this core's stages it consumed)
//   line 2            inbox_ready  (written by the scatter parent)
//   line 3            inbox_done   (written locally after draining; polled
//                                   remotely by the scatter parent)
//   lines 4..85       scatter inbox
//   lines 86..167     staging buffer S0
//   lines 168..249    staging buffer S1
//   lines 250..255    fence barrier flags
//
// Monotone absolute counters make back-to-back broadcasts and root
// changes safe, exactly as in OcBcast: every core can compute every other
// core's staging schedule from the (message size, parties) pair alone.
#pragma once

#include <array>

#include "coll/collective.h"
#include "core/pipeline.h"
#include "rma/flags.h"
#include "scc/chip.h"

namespace ocb::core {

/// Honors parties and mpb_base_line; the chunk is fixed at kChunkLines.
class OneSidedScatterAllgather final : public coll::Collective {
 public:
  /// The largest chunk whose layout (above) fits the MPB from line 0.
  static constexpr std::size_t kChunkLines = 82;

  OneSidedScatterAllgather(scc::SccChip& chip, const coll::Params& params = {});

  std::string name() const override { return "one-sided scatter-allgather"; }
  int parties() const override { return parties_; }
  sim::Task<void> run(scc::Core& self, CoreId root, std::size_t offset,
                      std::size_t bytes) override;

  // Layout (exposed for tests).
  std::size_t stage_ready_line() const { return base_; }
  std::size_t stage_done_line() const { return base_ + 1; }
  std::size_t inbox_ready_line() const { return base_ + 2; }
  std::size_t inbox_done_line() const { return base_ + 3; }
  std::size_t inbox_line() const { return base_ + 4; }
  std::size_t stage_line(std::uint64_t parity) const;
  std::size_t fence_line() const;

 private:
  struct SliceMap;

  /// Scatter-phase push of `lines` lines at `mem_offset` to `child`.
  sim::Task<void> push_range(scc::Core& self, CoreId child, std::size_t mem_offset,
                             std::size_t lines);
  /// Scatter-phase drain of `lines` lines from the inbox into memory.
  sim::Task<void> drain_range(scc::Core& self, CoreId parent, std::size_t mem_offset,
                              std::size_t lines);

  std::uint64_t& pair_seq(CoreId parent, CoreId child);

  scc::SccChip* chip_;
  int parties_;
  std::size_t base_;  ///< first MPB line of the layout
  CallSequence calls_;  ///< the root-change fence only
  int n_;  ///< chip core count (pair-table stride)
  // Absolute chunk counters (each entry only ever touched by that core's
  // own coroutine; the engine is single-threaded).
  std::vector<std::uint64_t> staged_;
  std::vector<std::uint64_t> consumed_from_right_;
  // Scatter (parent, child) sequence counters, advanced by the parent and
  // mirrored by the child (matched calls see identical schedules).
  std::vector<std::uint64_t> push_seq_;
  std::vector<std::uint64_t> drain_seq_;
};

}  // namespace ocb::core
