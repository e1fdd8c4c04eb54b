#include "core/hier_bcast.h"

#include <algorithm>
#include <span>

namespace ocb::core {

namespace {

/// Clamped fan-out for a subtree over `nodes` members (KaryTree requires
/// k <= parties - 1; callers guarantee nodes >= 2).
int subtree_fanout(int requested, int nodes) {
  return std::min(requested, nodes - 1);
}

}  // namespace

TreePlan plan_die_aware(const noc::Topology& topo, int parties, int k,
                        int die_k, CoreId me, CoreId root) {
  TreePlan plan;

  // Participating dies in die-index order, each with its leader: the global
  // root in the root's die, the lowest participating id elsewhere. A die's
  // ids ascend, so it participates when its lowest id does, and my die's
  // members are the prefix of its ids below `parties`.
  std::vector<int> part_dies;
  std::vector<CoreId> leaders;
  const int root_die = topo.die_of_core(root);
  const int my_die = topo.die_of_core(me);
  for (int d = 0; d < topo.num_dies(); ++d) {
    const CoreId lowest = topo.die_leader(d);
    if (lowest >= parties) continue;
    part_dies.push_back(d);
    leaders.push_back(d == root_die ? root : lowest);
  }
  const std::span<const CoreId> die_ids = topo.cores_of_die(my_die);
  const std::span<const CoreId> my_members =
      die_ids.first(static_cast<std::size_t>(
          std::lower_bound(die_ids.begin(), die_ids.end(), parties) -
          die_ids.begin()));
  const int num_part = static_cast<int>(part_dies.size());
  const auto die_pos = [&](int die) {
    return static_cast<int>(std::lower_bound(part_dies.begin(),
                                             part_dies.end(), die) -
                            part_dies.begin());
  };
  const int my_pos = die_pos(my_die);
  const CoreId my_leader = leaders[static_cast<std::size_t>(my_pos)];

  // Intra-die tree over the die's members (local ranks), rooted at the
  // leader's local rank; every edge stays on-die.
  const int m = static_cast<int>(my_members.size());
  const auto local_rank = [&](CoreId c) {
    return static_cast<int>(std::lower_bound(my_members.begin(),
                                             my_members.end(), c) -
                            my_members.begin());
  };
  if (m > 1) {
    const KaryTree intra(m, subtree_fanout(k, m), local_rank(my_leader));
    const int my_rank = local_rank(me);
    const CoreId parent_rank = intra.parent_of(my_rank);
    if (parent_rank != -1) {
      plan.parent = my_members[static_cast<std::size_t>(parent_rank)];
      plan.my_slot = intra.child_position(my_rank) - 1;
    }
    for (CoreId child_rank : intra.children_of(my_rank)) {
      plan.children.push_back(
          my_members[static_cast<std::size_t>(child_rank)]);
      plan.child_slots.push_back(static_cast<int>(plan.children.size()) - 1);
    }
  }

  // Relay tree over die leaders: the only interposer-crossing edges.
  // Slots k..k+die_k-1 keep leader done-flags apart from intra ones.
  if (me == my_leader && num_part > 1) {
    const KaryTree relay(num_part, subtree_fanout(die_k, num_part),
                         die_pos(root_die));
    const CoreId parent_pos = relay.parent_of(my_pos);
    if (parent_pos != -1) {
      plan.parent = leaders[static_cast<std::size_t>(parent_pos)];
      plan.my_slot = k + relay.child_position(my_pos) - 1;
    }
    for (CoreId child_pos : relay.children_of(my_pos)) {
      plan.children.push_back(leaders[static_cast<std::size_t>(child_pos)]);
      plan.child_slots.push_back(k + relay.child_position(child_pos) - 1);
    }
  }
  // Sequential notification: a parent notifies every child itself.
  plan.own = plan.children;
  return plan;
}

}  // namespace ocb::core
