#include "core/ocbcast.h"

#include <sstream>

#include "common/require.h"
#include "core/hier_bcast.h"
#include "rma/flags.h"
#include "rma/rma.h"

namespace ocb::core {

namespace {

TreeLayout checked_layout(const coll::Params& p, OcBcast::Tree tree) {
  if (tree == OcBcast::Tree::kDieAware) {
    OCB_REQUIRE(p.k >= 1, "intra-die fan-out must be >= 1");
    OCB_REQUIRE(p.die_k >= 1, "die fan-out must be >= 1");
  } else {
    OCB_REQUIRE(p.k >= 1 && p.k <= p.parties - 1,
                "fan-out must be in [1, parties-1]");
  }
  OCB_REQUIRE(p.chunk_lines >= 1, "chunk must be at least one line");
  const TreeLayout layout = TreeLayout::of(
      p, p.k + (tree == OcBcast::Tree::kDieAware ? p.die_k : 0));
  OCB_REQUIRE(layout.fits(),
              "OC-Bcast layout (flags + buffers + fence) exceeds the "
              "256-line MPB");
  return layout;
}

}  // namespace

OcBcast::OcBcast(scc::SccChip& chip, const coll::Params& params, Tree tree)
    : chip_(&chip),
      params_(coll::resolved(params, chip)),
      tree_(tree),
      layout_(checked_layout(params_, tree)),
      calls_(chip, layout_.fence_line(), params_.parties) {}

std::string OcBcast::name() const {
  std::ostringstream os;
  if (tree_ == Tree::kDieAware) {
    os << "hier-ocbcast k=" << params_.k << " die-k=" << params_.die_k;
  } else {
    os << "oc-bcast k=" << params_.k;
  }
  if (!params_.double_buffering) os << " single-buffer";
  if (params_.leaf_direct_to_memory) os << " leaf-direct";
  if (tree_ == Tree::kKary && params_.sequential_notification) {
    os << " seq-notify";
  }
  return os.str();
}

TreePlan OcBcast::plan_for(CoreId me, CoreId root) const {
  if (tree_ == Tree::kDieAware) {
    return plan_die_aware(chip_->topology(), params_.parties, params_.k,
                          params_.die_k, me, root);
  }
  return plan_kary(KaryTree(params_.parties, params_.k, root), me,
                   params_.sequential_notification);
}

sim::Task<void> OcBcast::wait_children_done(scc::Core& self,
                                            const TreePlan& plan,
                                            std::uint64_t minimum) {
  // doneFlags live in self's MPB, one line per child slot; poll each.
  for (std::size_t j = 0; j < plan.children.size(); ++j) {
    co_await rma::wait_flag_at_least(
        self, rma::MpbAddr{self.id(), layout_.done_line(plan.child_slots[j])},
        minimum);
  }
}

sim::Task<void> OcBcast::run(scc::Core& self, CoreId root, std::size_t offset,
                             std::size_t bytes) {
  OCB_REQUIRE(self.id() < params_.parties, "core is not a participant");
  OCB_REQUIRE(root >= 0 && root < params_.parties, "root is not a participant");
  OCB_REQUIRE(bytes > 0, "empty broadcast");

  const CoreId me = self.id();
  const TreePlan plan = plan_for(me, root);
  const std::size_t notify = layout_.notify_line();

  const std::size_t m_lines = cache_lines_for(bytes);
  const std::size_t chunk = params_.chunk_lines;
  const std::size_t n_chunks = (m_lines + chunk - 1) / chunk;
  const std::uint64_t base = calls_.claim(me, n_chunks);
  // A root change rebuilds the tree and reassigns every flag line's writer
  // (core/pipeline.h).
  if (calls_.root_changed(me, root)) co_await calls_.fence(self);

  const std::size_t buffer_count = layout_.buffers;
  const bool leaf_direct =
      plan.children.empty() && params_.leaf_direct_to_memory;

  for (std::size_t c = 0; c < n_chunks; ++c) {
    const std::uint64_t seq = base + c + 1;
    const std::uint64_t parity = (base + c) % buffer_count;
    const std::size_t buffer = layout_.buffer_line(parity);
    const std::size_t lines = c + 1 < n_chunks ? chunk : m_lines - (n_chunks - 1) * chunk;
    const std::size_t mem_off = offset + c * chunk * kCacheLineBytes;
    // Buffer-slot reuse: safe once every child consumed the chunk written
    // `buffer_count` chunks ago. For this message's first chunks there is
    // nothing to wait for — the previous broadcast's end-wait already
    // proved every buffer free, and the doneFlag slots may belong to
    // different cores now (the tree changes with the root), so a non-zero
    // threshold could reference values never written.
    const std::uint64_t reuse_min = c >= buffer_count ? seq - buffer_count : 0;

    if (me == root) {
      self.set_stage("oc-bcast:root-stage");
      co_await wait_children_done(self, plan, reuse_min);
      co_await rma::put_mem_to_mpb(self, rma::MpbAddr{me, buffer}, mem_off,
                                   lines);
      for (CoreId target : plan.own) {
        co_await rma::set_flag(self, rma::MpbAddr{target, notify}, seq);
      }
      continue;
    }

    // Detect the chunk announcement...
    self.set_stage("oc-bcast:detect");
    co_await rma::wait_flag_at_least(self, rma::MpbAddr{me, notify}, seq);
    // (i) ...and forward it within the parent's group first, so deeper
    // siblings start their gets as early as possible.
    for (CoreId target : plan.forward) {
      co_await rma::set_flag(self, rma::MpbAddr{target, notify}, seq);
    }
    if (!plan.children.empty()) {
      co_await wait_children_done(self, plan, reuse_min);
    }
    self.set_stage("oc-bcast:relay");
    // The mesh charges the interposer toll when parent and self sit on
    // different dies (over the die-aware tree only die leaders do).
    const rma::MpbAddr done{plan.parent, layout_.done_line(plan.my_slot)};
    if (leaf_direct) {
      // §5.4: a leaf needs no staging copy — straight to private memory.
      co_await rma::get_mpb_to_mem(self, mem_off,
                                   rma::MpbAddr{plan.parent, buffer}, lines);
      co_await rma::set_flag(self, done, seq);
      continue;
    }
    // (ii) copy the chunk from the parent's MPB into the own MPB.
    co_await rma::get_mpb_to_mpb(self, buffer,
                                 rma::MpbAddr{plan.parent, buffer}, lines);
    // (iii) tell the parent this chunk was consumed.
    co_await rma::set_flag(self, done, seq);
    // (iv) announce to the own group's notification tree.
    for (CoreId target : plan.own) {
      co_await rma::set_flag(self, rma::MpbAddr{target, notify}, seq);
    }
    // (v) land the chunk in private memory.
    co_await rma::get_mpb_to_mem(self, mem_off, rma::MpbAddr{me, buffer},
                                 lines);
  }

  // Free-MPB guarantee before returning: all children consumed every chunk
  // (for the root with k = P-1 this is the "47 flags to poll" of §5.2.3).
  self.set_stage("oc-bcast:drain");
  co_await wait_children_done(self, plan, base + n_chunks);
}

}  // namespace ocb::core
