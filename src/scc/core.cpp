#include "scc/core.h"

#include <utility>

#include "common/require.h"
#include "scc/chip.h"

namespace ocb::scc {

bool DataCache::cached(std::size_t line) const {
  const std::size_t page = line / kPageLines;
  return page < pages_.size() && pages_[page] &&
         pages_[page]->links[line % kPageLines].prev != kAbsent;
}

DataCache::Page& DataCache::page_for(std::uint32_t line) {
  const std::size_t index = line / kPageLines;
  if (index >= pages_.size()) pages_.resize(index + 1);
  std::unique_ptr<Page>& page = pages_[index];
  if (!page) {
    if (spare_.empty()) {
      page = std::make_unique<Page>();
    } else {
      page = std::move(spare_.back());
      spare_.pop_back();
    }
  }
  return *page;
}

void DataCache::touch(std::uint32_t line) {
  if (head_ != line) {
    lru_detach(line);
    lru_push_front(line);
  }
}

void DataCache::lru_detach(std::uint32_t line) {
  const std::uint32_t p = at(line).prev;
  const std::uint32_t n = at(line).next;
  if (p != kNil) at(p).next = n; else head_ = n;
  if (n != kNil) at(n).prev = p; else tail_ = p;
}

void DataCache::lru_push_front(std::uint32_t line) {
  at(line).prev = kNil;
  at(line).next = head_;
  if (head_ != kNil) at(head_).prev = line;
  head_ = line;
  if (tail_ == kNil) tail_ = line;
}

void DataCache::evict(std::uint32_t line) {
  lru_detach(line);
  at(line).prev = kAbsent;
  --size_;
  std::unique_ptr<Page>& page = pages_[line / kPageLines];
  if (--page->live == 0) spare_.push_back(std::move(page));
}

bool DataCache::lookup(std::size_t offset) {
  OCB_REQUIRE(offset % kCacheLineBytes == 0, "unaligned data-cache lookup");
  const std::size_t line = offset / kCacheLineBytes;
  if (!cached(line)) return false;
  touch(static_cast<std::uint32_t>(line));
  return true;
}

void DataCache::insert(std::size_t offset) {
  OCB_REQUIRE(offset % kCacheLineBytes == 0, "unaligned data-cache insert");
  const std::size_t line = offset / kCacheLineBytes;
  OCB_REQUIRE(line < kMaxLines, "data-cache line beyond the 32-bit line index");
  if (capacity_ == 0) return;  // degenerate: everything evicts immediately
  const auto l = static_cast<std::uint32_t>(line);
  if (cached(line)) {  // refresh, not duplicate
    touch(l);
    return;
  }
  // Evict first, so a page the eviction empties serves the new line.
  if (size_ == capacity_) evict(tail_);
  ++page_for(l).live;
  ++size_;
  lru_push_front(l);
}

void DataCache::clear() {
  while (head_ != kNil) evict(head_);
}

Core::Core(SccChip& chip, CoreId id)
    : chip_(&chip),
      id_(id),
      tile_(chip.topology().tile_of_core(id)),
      mc_tile_(chip.topology().mc_tile_for_core(id)),
      mc_index_(chip.topology().mc_index_for_core(id)),
      mem_distance_(chip.topology().mem_distance(id)),
      cache_(chip.config().cache_capacity_lines),
      rng_(SplitMix64(chip.config().seed + 0x9e37u * static_cast<std::uint64_t>(id))
               .next()),
      irq_trigger_(chip.engine()) {}

int Core::mpb_distance(CoreId other) const {
  return noc::Topology::routers_traversed(tile_,
                                          chip_->topology().tile_of_core(other));
}

sim::Time Core::now() const { return chip_->engine().now(); }

std::string Core::wait_note() const {
  std::string note = wait_what_;
  if (wait_owner_ >= 0) {
    note += " mpb[" + std::to_string(wait_owner_) + "]";
    if (wait_line_ >= 0) note += ":" + std::to_string(wait_line_);
  }
  return note;
}

sim::Task<void> Core::observer_gate() {
  const bool dead = chip_->observer_crashed(id_, now());
  if (dead) {
    set_wait_note("halted (fail-stop)");
    co_await sim::Engine::halt_forever();
  }
  const sim::Duration stall = chip_->observer_stall(id_, now());
  if (stall > 0) co_await chip_->engine().sleep(stall);
}

sim::Duration Core::jittered(sim::Duration d) {
  const sim::Duration j = chip_->config().jitter;
  if (j == 0) return d;
  return d + rng_.next_below(j + 1);
}

sim::Task<void> Core::busy(sim::Duration d) {
  if (chip_->observing()) co_await observer_gate();
  const sim::Time t0 = now();
  co_await chip_->engine().sleep(jittered(d));
  if (chip_->observing()) {
    chip_->observe_complete({TraceOp::kBusy, id_, id_, 0, t0, now()});
  }
}

sim::Task<void> Core::mpb_read_line(CoreId owner, std::size_t line, CacheLine& out,
                                    std::uint64_t* epoch_out) {
  const SccConfig& cfg = chip_->config();
  const noc::TileCoord owner_tile = chip_->topology().tile_of_core(owner);
  if (epoch_out != nullptr) {
    *epoch_out = chip_->mpb(owner).line_trigger(line).epoch();
  }
  if (chip_->observing()) co_await observer_gate();
  const sim::Time t0 = now();
  co_await core_overhead(cfg.o_mpb_core);
  // Request packet to the owner's router (d = manhattan + 1 router hops for
  // the round trip is split as: d hops there, d hops back; the MPB port
  // service sits in between).
  co_await chip_->mesh().traverse(tile_, owner_tile);
  if (owner == id_ && !cfg.local_mpb_uses_port) {
    // Own MPB: same latency, but no arbitration against remote requesters.
    co_await chip_->engine().sleep(cfg.t_mpb_port);
  } else {
    co_await chip_->mpb_port(chip_->topology().tile_index_of_core(owner))
        .use(cfg.t_mpb_port, /*priority=*/id_);
  }
  out = chip_->mpb(owner).load(line);
  if (chip_->observing()) {
    chip_->observe_read({TraceOp::kMpbRead, id_, owner, line, now()}, out);
  }
  co_await chip_->mesh().traverse(owner_tile, tile_);
  if (chip_->observing()) {
    chip_->observe_complete({TraceOp::kMpbRead, id_, owner, line, t0, now()});
  }
}

sim::Task<void> Core::mpb_write_line(CoreId owner, std::size_t line, CacheLine value) {
  const SccConfig& cfg = chip_->config();
  const noc::TileCoord owner_tile = chip_->topology().tile_of_core(owner);
  if (chip_->observing()) co_await observer_gate();
  const sim::Time t0 = now();
  co_await core_overhead(cfg.o_mpb_core);
  co_await chip_->mesh().traverse(tile_, owner_tile);
  if (owner == id_ && !cfg.local_mpb_uses_port) {
    co_await chip_->engine().sleep(cfg.t_mpb_port);
  } else {
    co_await chip_->mpb_port(chip_->topology().tile_index_of_core(owner))
        .use(cfg.t_mpb_port, /*priority=*/id_);
  }
  // The line becomes visible (and its trigger fires) here — before the
  // acknowledgment returns to the writer, which is what makes the model's
  // write latency (Formula 1) one mesh traversal shorter than its
  // completion time (Formula 2).
  bool commit = true;
  if (chip_->observing()) {
    commit = chip_->observe_write({TraceOp::kMpbWrite, id_, owner, line, now()},
                                  value);
  }
  if (commit) chip_->mpb(owner).store(line, value);
  co_await chip_->mesh().traverse(owner_tile, tile_);
  if (chip_->observing()) {
    chip_->observe_complete({TraceOp::kMpbWrite, id_, owner, line, t0, now()});
  }
}

sim::Task<void> Core::mem_read_line(std::size_t offset, CacheLine& out) {
  const SccConfig& cfg = chip_->config();
  if (chip_->observing()) co_await observer_gate();
  const sim::Time t0 = now();
  if (cfg.cache_enabled && cache_.lookup(offset)) {
    co_await core_overhead(cfg.o_cache_hit);
    out = chip_->memory(id_).load(offset);
    if (chip_->observing()) {
      chip_->observe_read({TraceOp::kCacheHit, id_, id_, offset, now()}, out);
      chip_->observe_complete({TraceOp::kCacheHit, id_, id_, offset, t0, now()});
    }
    co_return;
  }
  co_await core_overhead(cfg.o_mem_core_read);
  co_await chip_->mesh().traverse(tile_, mc_tile_);
  co_await chip_->mc_port(mc_index_).use(cfg.t_mc_port, id_);
  out = chip_->memory(id_).load(offset);
  if (chip_->observing()) {
    chip_->observe_read({TraceOp::kMemRead, id_, id_, offset, now()}, out);
  }
  if (cfg.cache_enabled) cache_.insert(offset);
  co_await chip_->mesh().traverse(mc_tile_, tile_);
  if (chip_->observing()) {
    chip_->observe_complete({TraceOp::kMemRead, id_, id_, offset, t0, now()});
  }
}

sim::Task<void> Core::mem_write_line(std::size_t offset, CacheLine value) {
  const SccConfig& cfg = chip_->config();
  if (chip_->observing()) co_await observer_gate();
  const sim::Time t0 = now();
  // Write-through with allocate: the written line is warm afterwards (the
  // §5.2.2 "resend from cache" effect) but the off-chip cost is always paid.
  co_await core_overhead(cfg.o_mem_core_write);
  co_await chip_->mesh().traverse(tile_, mc_tile_);
  co_await chip_->mc_port(mc_index_).use(cfg.t_mc_port, id_);
  bool commit = true;
  if (chip_->observing()) {
    commit = chip_->observe_write({TraceOp::kMemWrite, id_, id_, offset, now()},
                                  value);
  }
  if (commit) chip_->memory(id_).store(offset, value);
  if (cfg.cache_enabled) cache_.insert(offset);
  co_await chip_->mesh().traverse(mc_tile_, tile_);
  if (chip_->observing()) {
    chip_->observe_complete({TraceOp::kMemWrite, id_, id_, offset, t0, now()});
  }
}

// Internal overhead sleep: jittered like busy(), but not traced (the
// enclosing transaction reports the whole interval).
sim::Task<void> Core::core_overhead(sim::Duration d) {
  co_await chip_->engine().sleep(jittered(d));
}

sim::Task<void> Core::send_interrupt(CoreId target) {
  chip_->topology().require_core(target);
  const SccConfig& cfg = chip_->config();
  if (chip_->observing()) co_await observer_gate();
  co_await core_overhead(cfg.o_ipi_send);
  co_await chip_->mesh().traverse(tile_, chip_->topology().tile_of_core(target));
  co_await chip_->engine().sleep(cfg.t_ipi_service);
  if (chip_->observing()) {
    chip_->observe_sync({SyncOp::kIpiSend, id_, target, 0, 0, now()});
  }
  chip_->core(target).raise_interrupt();
  co_await chip_->mesh().traverse(chip_->topology().tile_of_core(target), tile_);
}

sim::Task<void> Core::wait_interrupt() {
  if (chip_->observing()) co_await observer_gate();
  set_wait_note("irq-wait");
  while (irq_pending_ == 0) {
    co_await irq_trigger_.wait();
  }
  set_wait_note("running");
  --irq_pending_;
  if (chip_->observing()) {
    chip_->observe_sync({SyncOp::kIpiConsume, id_, id_, 0, 0, now()});
  }
  co_await core_overhead(chip_->config().o_irq_entry);
}

sim::Task<bool> Core::poll_interrupt() {
  if (chip_->observing()) co_await observer_gate();
  co_await core_overhead(chip_->config().o_irq_check);
  if (irq_pending_ == 0) co_return false;
  --irq_pending_;
  if (chip_->observing()) {
    chip_->observe_sync({SyncOp::kIpiConsume, id_, id_, 0, 0, now()});
  }
  co_await core_overhead(chip_->config().o_irq_entry);
  co_return true;
}

}  // namespace ocb::scc
