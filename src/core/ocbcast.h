// OC-Bcast: pipelined k-ary tree broadcast on one-sided RMA (paper §4).
//
// Data moves down a k-ary propagation tree: each parent stages a chunk in
// its own MPB and its k children *get* it in parallel (k chosen below the
// ~24-accessor MPB contention threshold of §3.3). Children learn of a new
// chunk through a binary notification tree inside each {parent, children}
// group, and report consumption through per-child doneFlags in the
// parent's MPB. Messages larger than a chunk are pipelined; with double
// buffering (two half-MPB buffers of 96 lines, §4.2) a parent refills one
// buffer while children drain the other.
//
// MPB layout per core (k + 1 flags, then the payload buffers — §5.1,
// plus up to 6 fence-barrier lines at the end):
//
//   line 0            notifyFlag   (written by the notify-parent)
//   lines 1..k        doneFlag[j]  (written by child at position j+1)
//   lines k+1..       buffer 0, buffer 1 (chunk_lines each)
//   then              fence barrier flags (dissemination rounds)
//
// Flag values are absolute chunk sequence numbers (monotone across
// broadcasts), so back-to-back broadcasts with the SAME root cannot race:
// a wait for sequence s can only be satisfied by this broadcast's writes,
// because each flag line keeps a fixed writer. When the ROOT changes, the
// tree changes and so do the writers — a straggler still in the previous
// broadcast could then mistake a fast core's next-call flag for its own
// missing one. run() therefore fences with an internal dissemination
// barrier whenever the root differs from the previous call's (the
// barrier's own flag lines have root-independent writers).
#pragma once

#include <cstdint>
#include <vector>

#include "coll/collective.h"
#include "core/tree.h"
#include "rma/barrier.h"
#include "rma/flags.h"
#include "scc/chip.h"

namespace ocb::core {

/// Honors every coll::Params field except die_k, observed_fault_rate and
/// adaptive_table_json.
class OcBcast final : public coll::Collective {
 public:
  OcBcast(scc::SccChip& chip, const coll::Params& params = {});

  std::string name() const override;
  int parties() const override { return params_.parties; }
  sim::Task<void> run(scc::Core& self, CoreId root, std::size_t offset,
                      std::size_t bytes) override;

  // MPB layout (exposed for tests).
  std::size_t notify_line() const { return params_.mpb_base_line; }
  std::size_t done_line(int child_slot) const;
  std::size_t buffer_line(std::uint64_t parity) const;
  std::size_t fence_line() const;
  /// Total MPB lines the layout occupies starting at mpb_base_line.
  std::size_t layout_lines() const;

 private:
  sim::Task<void> wait_children_done(scc::Core& self,
                                     const std::vector<CoreId>& children,
                                     std::uint64_t minimum);

  scc::SccChip* chip_;
  coll::Params params_;
  std::size_t buffer_count_;
  rma::FlagBarrier fence_;
  /// Per-core count of chunks broadcast so far (the absolute sequence
  /// numbering); identical on every core because collective calls match.
  std::vector<std::uint64_t> chunks_so_far_;
  /// Previous call's root per core (-1 before the first call).
  std::vector<CoreId> last_root_;
};

}  // namespace ocb::core
