#include "core/tree.h"

#include "common/require.h"

namespace ocb::core {

KaryTree::KaryTree(int parties, int k, CoreId root)
    : parties_(parties), k_(k), root_(root) {
  OCB_REQUIRE(parties >= 1, "tree needs at least one core");
  OCB_REQUIRE(k >= 1, "tree fan-out must be at least 1");
  OCB_REQUIRE(root >= 0 && root < parties, "root outside the participant set");
}

int KaryTree::require_index(CoreId core) const {
  OCB_REQUIRE(core >= 0 && core < parties_, "core outside the participant set");
  return (core - root_ + parties_) % parties_;
}

int KaryTree::index_of(CoreId core) const { return require_index(core); }

CoreId KaryTree::core_at(int index) const {
  OCB_REQUIRE(index >= 0 && index < parties_, "tree index out of range");
  return (root_ + index) % parties_;
}

CoreId KaryTree::parent_of(CoreId core) const {
  const int idx = require_index(core);
  if (idx == 0) return -1;
  return core_at((idx - 1) / k_);
}

int KaryTree::child_count(CoreId core) const {
  const int idx = require_index(core);
  const long first = static_cast<long>(idx) * k_ + 1;
  if (first >= parties_) return 0;
  const long last = std::min<long>(first + k_ - 1, parties_ - 1);
  return static_cast<int>(last - first + 1);
}

std::vector<CoreId> KaryTree::children_of(CoreId core) const {
  const int idx = require_index(core);
  std::vector<CoreId> out;
  const long first = static_cast<long>(idx) * k_ + 1;
  for (long c = first; c < first + k_ && c < parties_; ++c) {
    out.push_back(core_at(static_cast<int>(c)));
  }
  return out;
}

int KaryTree::child_position(CoreId core) const {
  const int idx = require_index(core);
  if (idx == 0) return 0;
  return (idx - 1) % k_ + 1;
}

int KaryTree::depth_of(CoreId core) const {
  int idx = require_index(core);
  int depth = 0;
  while (idx != 0) {
    idx = (idx - 1) / k_;
    ++depth;
  }
  return depth;
}

int KaryTree::max_depth() const { return depth_of(core_at(parties_ - 1)); }

std::vector<CoreId> KaryTree::notify_forward_targets(CoreId core) const {
  const int idx = require_index(core);
  std::vector<CoreId> out;
  if (idx == 0) return out;  // the root forwards nothing; it originates
  const int j = child_position(core);
  const int parent_idx = (idx - 1) / k_;
  const int parent_first = parent_idx * k_ + 1;  // index of position 1
  const int group_children = child_count(core_at(parent_idx));
  for (int target_pos : {2 * j + 1, 2 * j + 2}) {
    if (target_pos <= group_children) {
      out.push_back(core_at(parent_first + target_pos - 1));
    }
  }
  return out;
}

std::vector<CoreId> KaryTree::notify_own_targets(CoreId core) const {
  std::vector<CoreId> children = children_of(core);
  if (children.size() > 2) children.resize(2);
  return children;
}

int KaryTree::notify_depth(CoreId core) const {
  int j = child_position(core);
  int hops = 0;
  while (j >= 1) {
    ++hops;
    j = j <= 2 ? 0 : (j - 1) / 2;
  }
  return hops;
}

TreePlan plan_kary(const KaryTree& tree, CoreId me,
                   bool sequential_notification) {
  TreePlan plan;
  plan.parent = tree.parent_of(me);
  plan.my_slot = tree.child_position(me) - 1;
  plan.children = tree.children_of(me);
  for (std::size_t j = 0; j < plan.children.size(); ++j) {
    plan.child_slots.push_back(static_cast<int>(j));
  }
  if (sequential_notification) {
    plan.own = plan.children;
  } else {
    plan.forward = tree.notify_forward_targets(me);
    plan.own = tree.notify_own_targets(me);
  }
  return plan;
}

}  // namespace ocb::core
