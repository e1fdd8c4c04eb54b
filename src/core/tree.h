// OC-Bcast tree structure (paper §4.1, Figure 5).
//
// Message propagation uses a k-ary tree over the P participating cores,
// built from core ids: with root s, the children of the node with
// root-relative index i are the indices i*k+1 .. i*k+k (< P); index x maps
// to core (s + x) mod P.
//
// Notification uses a *binary* tree inside each group {parent, its k
// children}: the parent notifies child positions 1 and 2, and the child at
// position j notifies positions 2j+1 and 2j+2 — so the deepest child of a
// full group is ceil(log2(k+1)) flag hops from the parent. (The paper notes
// a binary fan-out is latency-optimal for the notification tree.)
//
// This file is pure structure — no timing, no simulator — shared by the
// algorithm implementation (core/ocbcast.*) and the analytical model
// (model/broadcast_model.*). TreePlan is one core's part of any broadcast
// tree the OC-Bcast chunk loop runs over: plan_kary() reads it off a
// KaryTree, plan_die_aware() (core/hier_bcast.h) off the die-aware tree.
#pragma once

#include <vector>

#include "common/types.h"

namespace ocb::core {

class KaryTree {
 public:
  /// Tree over cores 0..parties-1 rooted at `root` with fan-out `k`.
  KaryTree(int parties, int k, CoreId root);

  int parties() const { return parties_; }
  int fanout() const { return k_; }
  CoreId root() const { return root_; }

  /// Root-relative index of a core / core of an index.
  int index_of(CoreId core) const;
  CoreId core_at(int index) const;

  /// Propagation parent (root has none: returns -1).
  CoreId parent_of(CoreId core) const;

  /// Propagation children, in position order (positions 1..k).
  std::vector<CoreId> children_of(CoreId core) const;
  int child_count(CoreId core) const;

  /// 1-based position of `core` among its parent's children (root: 0).
  int child_position(CoreId core) const;

  /// Level in the propagation tree (root: 0).
  int depth_of(CoreId core) const;
  /// Maximum level over all cores.
  int max_depth() const;

  /// Cores this core must notify *within its parent's group* immediately
  /// after detecting its own notification (step (i) of §4.1): the children
  /// of its position in the group's binary notification tree.
  std::vector<CoreId> notify_forward_targets(CoreId core) const;

  /// Cores this core notifies to kick off *its own* group's notification
  /// tree (step (iv)): its first min(2, #children) propagation children.
  std::vector<CoreId> notify_own_targets(CoreId core) const;

  /// Flag hops from the group parent to `core` inside the group's binary
  /// notification tree (position 1 or 2: 1 hop; root: 0).
  int notify_depth(CoreId core) const;

 private:
  int require_index(CoreId core) const;

  int parties_;
  int k_;
  CoreId root_;
};

/// One core's part of a broadcast tree for one (root, parties) instance.
struct TreePlan {
  CoreId parent = -1;            ///< get/done peer (-1 at the root)
  int my_slot = -1;              ///< done slot in the parent's MPB
  std::vector<CoreId> children;  ///< in child_slots order
  std::vector<int> child_slots;  ///< done slot in the OWN MPB per child
  std::vector<CoreId> forward;   ///< notified right after detecting (step i)
  std::vector<CoreId> own;       ///< notified to start the own group (step iv)
};

/// `me`'s plan in `tree`: child j reports in done slot j. With
/// `sequential_notification` the parent notifies all of its children itself
/// (no forwarding) instead of through the binary notification tree.
TreePlan plan_kary(const KaryTree& tree, CoreId me,
                   bool sequential_notification);

}  // namespace ocb::core
