// Hierarchical OC-Bcast for multi-die chips ("hier-ocbcast").
//
// On a single-die mesh every MPB-to-MPB hop costs the same per router, so
// the flat k-ary OC-Bcast tree is oblivious to placement. On a multi-die
// topology (noc::Topology with dies_x*dies_y > 1) links that cross a die
// boundary ride the interposer and pay extra latency and occupancy per
// packet — a flat tree scatters die crossings over arbitrary parent/child
// pairs and pays the interposer toll many times per chunk.
//
// HierarchicalBcast restructures propagation around the die boundary:
//
//   * one designated *leader* per participating die (the broadcast root in
//     its own die, the lowest participating core id elsewhere);
//   * leaders form a small k-ary relay tree over the dies — the only edges
//     that cross the interposer, one get per (die, chunk);
//   * inside each die the leader re-broadcasts over a die-local k-ary
//     OC-Bcast tree whose every edge stays on-die.
//
// The per-chunk protocol is OC-Bcast's (stage in own MPB, children get in
// parallel, doneFlags for buffer reuse, absolute-sequence flags, root-change
// fence), with one simplification: parents notify their children directly
// (sequential notification) rather than through the binary in-group
// notification tree — fan-outs here are small (intra-die trees span one die;
// the die tree spans the die count) so the latency argument of §4.1 carries
// little weight, and the uniform structure keeps slot assignment trivial.
//
// MPB layout per core (base b, intra fan-out k, die fan-out dk, B buffers
// of m lines):
//
//   b+0                       notifyFlag
//   b+1       .. b+k          intra-die doneFlag[k]
//   b+k+1     .. b+k+dk       die-leader doneFlag[dk]
//   b+k+dk+1  .. +B*m         buffer 0 [, buffer 1]
//   then                      fence barrier lines (root changes)
//
// On a single-die topology the die tree is empty and this degrades to plain
// OC-Bcast with sequential notification (plus dk idle flag lines).
#pragma once

#include <cstdint>
#include <vector>

#include "coll/collective.h"
#include "rma/barrier.h"
#include "scc/chip.h"

namespace ocb::core {

/// Honors parties, k (intra-die fan-out), die_k, chunk_lines,
/// double_buffering and mpb_base_line.
class HierarchicalBcast final : public coll::Collective {
 public:
  HierarchicalBcast(scc::SccChip& chip, const coll::Params& params = {});

  std::string name() const override;
  int parties() const override { return params_.parties; }
  sim::Task<void> run(scc::Core& self, CoreId root, std::size_t offset,
                      std::size_t bytes) override;

  // MPB layout (exposed for tests).
  std::size_t notify_line() const { return params_.mpb_base_line; }
  /// Done-flag line for slot in [0, k + die_k): intra-die children occupy
  /// slots 0..k-1, die-child leaders k..k+die_k-1.
  std::size_t done_line(int slot) const;
  std::size_t buffer_line(std::uint64_t parity) const;
  std::size_t fence_line() const;
  std::size_t layout_lines() const;

  // Per-broadcast tree plan (exposed for tests).
  /// Per-core view of the two-level tree for one (root, parties) instance.
  struct Plan {
    CoreId parent = -1;  ///< get/done peer (-1 at the global root)
    int my_slot = -1;    ///< done-flag slot in parent's MPB
    std::vector<CoreId> children;  ///< slot order = child_slots order
    std::vector<int> child_slots;  ///< done-flag slot in OWN MPB per child
  };
  /// Participant `me`'s plan under `root`, rebuilt on every run() call in
  /// O(dies + fan-out + log cores) from the topology's die table (no scan
  /// of the chip), so planning a broadcast on every core is linear in the
  /// chip.
  Plan plan_for(CoreId me, CoreId root) const;

 private:
  sim::Task<void> wait_children_done(scc::Core& self, const Plan& plan,
                                     std::uint64_t minimum);

  scc::SccChip* chip_;
  coll::Params params_;
  std::size_t buffer_count_;
  rma::FlagBarrier fence_;
  std::vector<std::uint64_t> chunks_so_far_;
  std::vector<CoreId> last_root_;
};

}  // namespace ocb::core
