#include "core/pipeline.h"

#include "common/require.h"

namespace ocb::core {

TreeLayout TreeLayout::of(const coll::Params& p, int done_slots, bool staged) {
  return TreeLayout{.base = p.mpb_base_line,
                    .done_slots = done_slots,
                    .buffers = p.double_buffering ? 2u : 1u,
                    .staged = staged,
                    .chunk_lines = p.chunk_lines,
                    .fence_rounds = rma::FlagBarrier::rounds_for(p.parties)};
}

std::size_t TreeLayout::done_line(int slot) const {
  OCB_REQUIRE(slot >= 0 && slot < done_slots, "done slot out of range");
  return base + 1 + static_cast<std::size_t>(slot);
}

std::size_t TreeLayout::staged_line(std::uint64_t parity) const {
  OCB_REQUIRE(staged && parity < buffers, "staged line out of range");
  return base + 1 + static_cast<std::size_t>(done_slots) + parity;
}

std::size_t TreeLayout::buffer_line(std::uint64_t parity) const {
  OCB_REQUIRE(parity < buffers, "buffer parity out of range");
  return base + 1 + static_cast<std::size_t>(done_slots) +
         (staged ? buffers : 0) + parity * chunk_lines;
}

std::size_t TreeLayout::fence_line() const {
  return buffer_line(0) + buffers * chunk_lines;
}

std::size_t TreeLayout::lines() const {
  return fence_line() - base + static_cast<std::size_t>(fence_rounds);
}

CallSequence::CallSequence(scc::SccChip& chip, std::size_t fence_line,
                           int parties)
    : barrier_(chip, fence_line, parties) {
  const auto n = static_cast<std::size_t>(chip.topology().num_cores());
  chunks_.assign(n, 0);
  last_root_.assign(n, -1);
}

std::uint64_t CallSequence::claim(CoreId me, std::size_t chunks) {
  std::uint64_t& so_far = chunks_[static_cast<std::size_t>(me)];
  const std::uint64_t base = so_far;
  so_far += chunks;
  return base;
}

bool CallSequence::root_changed(CoreId me, CoreId root) {
  CoreId& last = last_root_[static_cast<std::size_t>(me)];
  const bool changed = last != -1 && last != root;
  last = root;
  return changed;
}

}  // namespace ocb::core
