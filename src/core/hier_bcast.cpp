#include "core/hier_bcast.h"

#include <algorithm>
#include <span>
#include <sstream>

#include "common/require.h"
#include "core/tree.h"
#include "noc/topology.h"
#include "rma/flags.h"
#include "rma/rma.h"

namespace ocb::core {

namespace {

/// Clamped fan-out for a subtree over `nodes` members (KaryTree requires
/// k <= parties - 1; callers guarantee nodes >= 2).
int subtree_fanout(int requested, int nodes) {
  return std::min(requested, nodes - 1);
}

}  // namespace

HierarchicalBcast::HierarchicalBcast(scc::SccChip& chip,
                                     const coll::Params& params)
    : chip_(&chip),
      params_(params),
      buffer_count_(params.double_buffering ? 2 : 1),
      fence_(chip,
             [&] {
               OCB_REQUIRE(params_.parties >= 2 &&
                               params_.parties <= chip.topology().num_cores(),
                           "party count out of range");
               OCB_REQUIRE(params_.k >= 1, "intra-die fan-out must be >= 1");
               OCB_REQUIRE(params_.die_k >= 1, "die fan-out must be >= 1");
               OCB_REQUIRE(params_.chunk_lines >= 1,
                           "chunk must be at least one line");
               return params_.mpb_base_line + 1 +
                      static_cast<std::size_t>(params_.k + params_.die_k) +
                      buffer_count_ * params_.chunk_lines;
             }(),
             params_.parties) {
  const auto n = static_cast<std::size_t>(chip.topology().num_cores());
  chunks_so_far_.assign(n, 0);
  last_root_.assign(n, -1);
  OCB_REQUIRE(params_.mpb_base_line + layout_lines() <= kMpbCacheLines,
              "hier-ocbcast layout (k+die_k+1 flags + buffers + fence) "
              "exceeds the 256-line MPB");
}

std::size_t HierarchicalBcast::done_line(int slot) const {
  OCB_REQUIRE(slot >= 0 && slot < params_.k + params_.die_k,
              "done slot out of range");
  return params_.mpb_base_line + 1 + static_cast<std::size_t>(slot);
}

std::size_t HierarchicalBcast::buffer_line(std::uint64_t parity) const {
  OCB_REQUIRE(parity < buffer_count_, "buffer parity out of range");
  return params_.mpb_base_line + 1 +
         static_cast<std::size_t>(params_.k + params_.die_k) +
         parity * params_.chunk_lines;
}

std::size_t HierarchicalBcast::fence_line() const {
  return params_.mpb_base_line + 1 +
         static_cast<std::size_t>(params_.k + params_.die_k) +
         buffer_count_ * params_.chunk_lines;
}

std::size_t HierarchicalBcast::layout_lines() const {
  return 1 + static_cast<std::size_t>(params_.k + params_.die_k) +
         buffer_count_ * params_.chunk_lines +
         static_cast<std::size_t>(fence_.rounds());
}

std::string HierarchicalBcast::name() const {
  std::ostringstream os;
  os << "hier-ocbcast k=" << params_.k << " die-k=" << params_.die_k;
  if (!params_.double_buffering) os << " single-buffer";
  return os.str();
}

HierarchicalBcast::Plan HierarchicalBcast::plan_for(CoreId me,
                                                    CoreId root) const {
  const noc::Topology& topo = chip_->topology();
  Plan plan;

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
    if (lowest >= params_.parties) continue;
    part_dies.push_back(d);
    leaders.push_back(d == root_die ? root : lowest);
  }
  const std::span<const CoreId> die_ids = topo.cores_of_die(my_die);
  const std::span<const CoreId> my_members =
      die_ids.first(static_cast<std::size_t>(
          std::lower_bound(die_ids.begin(), die_ids.end(), params_.parties) -
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
    const KaryTree intra(m, subtree_fanout(params_.k, m),
                         local_rank(my_leader));
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
    const KaryTree relay(num_part, subtree_fanout(params_.die_k, num_part),
                         die_pos(root_die));
    const CoreId parent_pos = relay.parent_of(my_pos);
    if (parent_pos != -1) {
      plan.parent = leaders[static_cast<std::size_t>(parent_pos)];
      plan.my_slot = params_.k + relay.child_position(my_pos) - 1;
    }
    for (CoreId child_pos : relay.children_of(my_pos)) {
      plan.children.push_back(leaders[static_cast<std::size_t>(child_pos)]);
      plan.child_slots.push_back(params_.k + relay.child_position(child_pos) -
                                 1);
    }
  }
  return plan;
}

sim::Task<void> HierarchicalBcast::wait_children_done(scc::Core& self,
                                                      const Plan& plan,
                                                      std::uint64_t minimum) {
  for (std::size_t j = 0; j < plan.children.size(); ++j) {
    co_await rma::wait_flag_at_least(
        self, rma::MpbAddr{self.id(), done_line(plan.child_slots[j])},
        minimum);
  }
}

sim::Task<void> HierarchicalBcast::run(scc::Core& self, CoreId root,
                                       std::size_t offset, std::size_t bytes) {
  OCB_REQUIRE(self.id() < params_.parties, "core is not a participant");
  OCB_REQUIRE(root >= 0 && root < params_.parties,
              "root is not a participant");
  OCB_REQUIRE(bytes > 0, "empty broadcast");

  const CoreId me = self.id();
  const Plan plan = plan_for(me, root);

  const std::size_t m_lines = cache_lines_for(bytes);
  const std::size_t chunk = params_.chunk_lines;
  const std::size_t n_chunks = (m_lines + chunk - 1) / chunk;
  const std::uint64_t base = chunks_so_far_[static_cast<std::size_t>(me)];
  chunks_so_far_[static_cast<std::size_t>(me)] += n_chunks;

  // Root changes rebuild both trees and reassign every flag line's writer;
  // fence exactly as plain OC-Bcast does (see core/ocbcast.h).
  const CoreId prev_root = last_root_[static_cast<std::size_t>(me)];
  last_root_[static_cast<std::size_t>(me)] = root;
  if (prev_root != -1 && prev_root != root) {
    co_await fence_.wait(self);
  }

  for (std::size_t c = 0; c < n_chunks; ++c) {
    const std::uint64_t seq = base + c + 1;
    const std::uint64_t parity = (base + c) % buffer_count_;
    const std::size_t lines =
        c + 1 < n_chunks ? chunk : m_lines - (n_chunks - 1) * chunk;
    const std::size_t mem_off = offset + c * chunk * kCacheLineBytes;
    const std::uint64_t reuse_min =
        c >= buffer_count_ ? seq - buffer_count_ : 0;

    if (me == root) {
      self.set_stage("hier:root-stage");
      co_await wait_children_done(self, plan, reuse_min);
      co_await rma::put_mem_to_mpb(self, rma::MpbAddr{me, buffer_line(parity)},
                                   mem_off, lines);
      for (CoreId target : plan.children) {
        co_await rma::set_flag(self, rma::MpbAddr{target, notify_line()}, seq);
      }
      continue;
    }

    self.set_stage("hier:detect");
    co_await rma::wait_flag_at_least(self, rma::MpbAddr{me, notify_line()},
                                     seq);
    co_await wait_children_done(self, plan, reuse_min);
    self.set_stage("hier:relay");
    // Get from the parent's staged buffer — the mesh charges the interposer
    // toll automatically when parent and self sit on different dies (die
    // leaders are the only cores for which that happens).
    co_await rma::get_mpb_to_mpb(self, buffer_line(parity),
                                 rma::MpbAddr{plan.parent, buffer_line(parity)},
                                 lines);
    co_await rma::set_flag(
        self, rma::MpbAddr{plan.parent, done_line(plan.my_slot)}, seq);
    for (CoreId target : plan.children) {
      co_await rma::set_flag(self, rma::MpbAddr{target, notify_line()}, seq);
    }
    co_await rma::get_mpb_to_mem(self, mem_off,
                                 rma::MpbAddr{me, buffer_line(parity)}, lines);
  }

  self.set_stage("hier:drain");
  co_await wait_children_done(self, plan, base + n_chunks);
}

}  // namespace ocb::core
