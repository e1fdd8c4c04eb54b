// Parallel inter-core-interrupt notification (paper §7's MPMD direction).
//
// In the MPMD setting, cores run unrelated work and cannot poll MPB flags
// for collective announcements. The paper's stated plan is to use
// *parallel inter-core interrupts* instead: the initiator interrupts two
// cores, each interrupted core forwards two more — the same binary-tree
// reasoning as OC-Bcast's notification tree (§4.1), so all P cores are in
// their handlers after ~log2(P) interrupt hops.
//
// IpiNotifier is that primitive: `notify(root)` kicks off the tree;
// `await(me, root)` is what a worker runs (typically between compute
// quanta via Core::poll_interrupt inside) — it returns once this core has
// taken the interrupt AND forwarded the wake-up to its subtree, after
// which the worker can join the actual collective (whose flags are by then
// already flowing).
#pragma once

#include "core/tree.h"
#include "scc/chip.h"

namespace ocb::core {

class IpiNotifier {
 public:
  /// Wakes cores 0..parties-1 of `chip`, 0 meaning every core of the chip.
  explicit IpiNotifier(const scc::SccChip& chip, int parties = 0);

  int parties() const { return parties_; }

  /// Initiator side: interrupt the (up to two) tree children. The root
  /// does not interrupt itself.
  sim::Task<void> notify(scc::Core& root);

  /// Worker side: wait for the wake-up interrupt (a blocking
  /// wait_interrupt) and forward it down the tree rooted at `root`.
  sim::Task<void> await(scc::Core& self, CoreId root);

  /// Worker side for compute loops: consume a pending wake-up if one has
  /// arrived (Core::poll_interrupt cost model); on success forwards to the
  /// subtree and returns true.
  sim::Task<bool> try_await(scc::Core& self, CoreId root);

 private:
  sim::Task<void> forward(scc::Core& self, CoreId root);

  int parties_;
};

}  // namespace ocb::core
