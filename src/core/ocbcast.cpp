#include "core/ocbcast.h"

#include <sstream>

#include "common/require.h"
#include "rma/rma.h"

namespace ocb::core {

OcBcast::OcBcast(scc::SccChip& chip, const coll::Params& params)
    : chip_(&chip),
      params_(params),
      buffer_count_(params.double_buffering ? 2 : 1),
      fence_(chip,
             [&] {
               OCB_REQUIRE(params.parties >= 2 &&
                               params.parties <= chip.topology().num_cores(),
                           "party count out of range");
               OCB_REQUIRE(params.k >= 1 && params.k <= params.parties - 1,
                           "fan-out must be in [1, parties-1]");
               OCB_REQUIRE(params.chunk_lines >= 1,
                           "chunk must be at least one line");
               const std::size_t fence_base =
                   params.mpb_base_line + 1 + static_cast<std::size_t>(params.k) +
                   (params.double_buffering ? 2 : 1) * params.chunk_lines;
               OCB_REQUIRE(fence_base <= kMpbCacheLines,
                           "OC-Bcast layout (k+1 flags + buffers) exceeds the "
                           "256-line MPB");
               return fence_base;
             }(),
             params.parties) {
  const auto n = static_cast<std::size_t>(chip.topology().num_cores());
  chunks_so_far_.assign(n, 0);
  last_root_.assign(n, -1);
  const std::size_t end = params_.mpb_base_line + layout_lines();
  OCB_REQUIRE(end <= kMpbCacheLines,
              "OC-Bcast layout (k+1 flags + buffers + fence) exceeds the "
              "256-line MPB");
}

std::size_t OcBcast::fence_line() const {
  return params_.mpb_base_line + 1 + static_cast<std::size_t>(params_.k) +
         buffer_count_ * params_.chunk_lines;
}

std::size_t OcBcast::layout_lines() const {
  return 1 + static_cast<std::size_t>(params_.k) +
         buffer_count_ * params_.chunk_lines +
         static_cast<std::size_t>(fence_.rounds());
}

std::string OcBcast::name() const {
  std::ostringstream os;
  os << "oc-bcast k=" << params_.k;
  if (!params_.double_buffering) os << " single-buffer";
  if (params_.leaf_direct_to_memory) os << " leaf-direct";
  if (params_.sequential_notification) os << " seq-notify";
  return os.str();
}

std::size_t OcBcast::done_line(int child_slot) const {
  OCB_REQUIRE(child_slot >= 0 && child_slot < params_.k, "child slot out of range");
  return params_.mpb_base_line + 1 + static_cast<std::size_t>(child_slot);
}

std::size_t OcBcast::buffer_line(std::uint64_t parity) const {
  OCB_REQUIRE(parity < buffer_count_, "buffer parity out of range");
  return params_.mpb_base_line + 1 + static_cast<std::size_t>(params_.k) +
         parity * params_.chunk_lines;
}

sim::Task<void> OcBcast::wait_children_done(scc::Core& self,
                                            const std::vector<CoreId>& children,
                                            std::uint64_t minimum) {
  // doneFlags live in self's MPB, one line per child slot; poll each.
  for (std::size_t j = 0; j < children.size(); ++j) {
    co_await rma::wait_flag_at_least(
        self, rma::MpbAddr{self.id(), done_line(static_cast<int>(j))}, minimum);
  }
}

sim::Task<void> OcBcast::run(scc::Core& self, CoreId root, std::size_t offset,
                             std::size_t bytes) {
  OCB_REQUIRE(self.id() < params_.parties, "core is not a participant");
  OCB_REQUIRE(root >= 0 && root < params_.parties, "root is not a participant");
  OCB_REQUIRE(bytes > 0, "empty broadcast");

  const KaryTree tree(params_.parties, params_.k, root);
  const CoreId me = self.id();
  const CoreId parent = tree.parent_of(me);
  const std::vector<CoreId> children = tree.children_of(me);
  const std::vector<CoreId> forward = params_.sequential_notification
                                          ? std::vector<CoreId>{}
                                          : tree.notify_forward_targets(me);
  const std::vector<CoreId> own = params_.sequential_notification
                                      ? children
                                      : tree.notify_own_targets(me);
  const int my_slot = tree.child_position(me) - 1;  // slot in parent's doneFlags

  const std::size_t m_lines = cache_lines_for(bytes);
  const std::size_t chunk = params_.chunk_lines;
  const std::size_t n_chunks = (m_lines + chunk - 1) / chunk;
  const std::uint64_t base = chunks_so_far_[static_cast<std::size_t>(me)];
  chunks_so_far_[static_cast<std::size_t>(me)] += n_chunks;

  // A root change rebuilds the tree and reassigns every flag line's
  // writer; fence so no straggler can confuse this call's flags with the
  // previous call's (see the header). Same-root sequences never fence.
  const CoreId prev_root = last_root_[static_cast<std::size_t>(me)];
  last_root_[static_cast<std::size_t>(me)] = root;
  if (prev_root != -1 && prev_root != root) {
    co_await fence_.wait(self);
  }

  const bool leaf_direct = children.empty() && params_.leaf_direct_to_memory;

  for (std::size_t c = 0; c < n_chunks; ++c) {
    const std::uint64_t seq = base + c + 1;
    const std::uint64_t parity = (base + c) % buffer_count_;
    const std::size_t lines = c + 1 < n_chunks ? chunk : m_lines - (n_chunks - 1) * chunk;
    const std::size_t mem_off = offset + c * chunk * kCacheLineBytes;
    // Buffer-slot reuse: safe once every child consumed the chunk written
    // `buffer_count_` chunks ago. For this message's first chunks there is
    // nothing to wait for — the previous broadcast's end-wait already
    // proved every buffer free, and the doneFlag slots may belong to
    // different cores now (the tree changes with the root), so a non-zero
    // threshold could reference values never written.
    const std::uint64_t reuse_min = c >= buffer_count_ ? seq - buffer_count_ : 0;

    if (me == root) {
      self.set_stage("oc-bcast:root-stage");
      co_await wait_children_done(self, children, reuse_min);
      co_await rma::put_mem_to_mpb(self, rma::MpbAddr{me, buffer_line(parity)},
                                   mem_off, lines);
      for (CoreId target : own) {
        co_await rma::set_flag(self, rma::MpbAddr{target, notify_line()}, seq);
      }
      continue;
    }

    // Detect the chunk announcement...
    self.set_stage("oc-bcast:detect");
    co_await rma::wait_flag_at_least(self, rma::MpbAddr{me, notify_line()}, seq);
    // (i) ...and forward it within the parent's group first, so deeper
    // siblings start their gets as early as possible.
    for (CoreId target : forward) {
      co_await rma::set_flag(self, rma::MpbAddr{target, notify_line()}, seq);
    }
    if (!children.empty()) {
      co_await wait_children_done(self, children, reuse_min);
    }
    self.set_stage("oc-bcast:relay");
    if (leaf_direct) {
      // §5.4: a leaf needs no staging copy — straight to private memory.
      co_await rma::get_mpb_to_mem(self, mem_off,
                                   rma::MpbAddr{parent, buffer_line(parity)}, lines);
      co_await rma::set_flag(self, rma::MpbAddr{parent, done_line(my_slot)}, seq);
      continue;
    }
    // (ii) copy the chunk from the parent's MPB into the own MPB.
    co_await rma::get_mpb_to_mpb(self, buffer_line(parity),
                                 rma::MpbAddr{parent, buffer_line(parity)}, lines);
    // (iii) tell the parent this chunk was consumed.
    co_await rma::set_flag(self, rma::MpbAddr{parent, done_line(my_slot)}, seq);
    // (iv) announce to the own group's notification tree.
    for (CoreId target : own) {
      co_await rma::set_flag(self, rma::MpbAddr{target, notify_line()}, seq);
    }
    // (v) land the chunk in private memory.
    co_await rma::get_mpb_to_mem(self, mem_off, rma::MpbAddr{me, buffer_line(parity)},
                                 lines);
  }

  // Free-MPB guarantee before returning: all children consumed every chunk
  // (for the root with k = P-1 this is the "47 flags to poll" of §5.2.3).
  self.set_stage("oc-bcast:drain");
  co_await wait_children_done(self, children, base + n_chunks);
}

}  // namespace ocb::core
