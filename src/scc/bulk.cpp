#include "scc/bulk.h"

#include "common/require.h"
#include "mem/mpb.h"
#include "mem/private_memory.h"
#include "noc/mesh.h"
#include "scc/chip.h"
#include "scc/core.h"
#include "sim/resource.h"

namespace ocb::scc {

BulkOp::BulkOp(Core& self)
    : self_(&self),
      chip_(&self.chip()),
      id_(self.id()),
      tile_(self.tile()),
      mc_tile_(self.mc_tile()) {
  const SccConfig& cfg = chip_->config();
  l_hop_ = cfg.l_hop;
  t_mpb_port_ = cfg.t_mpb_port;
  t_mc_port_ = cfg.t_mc_port;
  o_mpb_core_ = cfg.o_mpb_core;
  o_mem_core_read_ = cfg.o_mem_core_read;
  o_mem_core_write_ = cfg.o_mem_core_write;
  o_cache_hit_ = cfg.o_cache_hit;
  cache_enabled_ = cfg.cache_enabled;
  local_mpb_uses_port_ = cfg.local_mpb_uses_port;
  mc_server_ = &chip_->mc_port(chip_->topology().mc_index_for_core(id_));
  memory_ = &chip_->memory(id_);
  mc_cross_ = !(mc_tile_ == tile_);
}

BulkOp::Half BulkOp::mpb_half(CoreId owner, std::size_t first_line,
                              bool write) const {
  Half h;
  h.mem = false;
  h.write = write;
  h.base = first_line;
  h.stride = 1;
  h.mpb = &chip_->mpb(owner);
  h.ported = owner != id_ || local_mpb_uses_port_;
  h.dst_tile = chip_->topology().tile_of_core(owner);
  h.cross = !(h.dst_tile == tile_);
  h.server =
      h.ported ? &chip_->mpb_port(chip_->topology().tile_index_of_core(owner))
               : nullptr;
  h.overhead = o_mpb_core_;
  h.service = t_mpb_port_;
  h.target = owner;
  h.op = write ? TraceOp::kMpbWrite : TraceOp::kMpbRead;
  return h;
}

BulkOp::Half BulkOp::mem_half(std::size_t offset, bool write) const {
  Half h;
  h.mem = true;
  h.write = write;
  h.base = offset;
  h.stride = kCacheLineBytes;
  h.ported = true;
  h.dst_tile = mc_tile_;
  h.cross = mc_cross_;
  h.server = mc_server_;
  h.overhead = write ? o_mem_core_write_ : o_mem_core_read_;
  h.service = t_mc_port_;
  h.target = id_;
  h.op = write ? TraceOp::kMemWrite : TraceOp::kMemRead;
  return h;
}

BulkOp::Awaiter BulkOp::run(BulkKind kind, sim::Duration op_overhead,
                            CoreId mpb_owner, std::size_t mpb_line,
                            std::size_t local_index, std::size_t lines,
                            std::uint64_t* sum) {
  op_overhead_ = op_overhead;
  lines_ = lines;
  sum_ = sum;
  switch (kind) {
    case BulkKind::kPutMpbToMpb:
      half_[0] = mpb_half(id_, local_index, /*write=*/false);
      half_[1] = mpb_half(mpb_owner, mpb_line, /*write=*/true);
      break;
    case BulkKind::kPutMemToMpb:
      half_[0] = mem_half(local_index, /*write=*/false);
      half_[1] = mpb_half(mpb_owner, mpb_line, /*write=*/true);
      break;
    case BulkKind::kGetMpbToMpb:
      half_[0] = mpb_half(mpb_owner, mpb_line, /*write=*/false);
      half_[1] = mpb_half(id_, local_index, /*write=*/true);
      break;
    case BulkKind::kGetMpbToMem:
      half_[0] = mpb_half(mpb_owner, mpb_line, /*write=*/false);
      half_[1] = mem_half(local_index, /*write=*/true);
      break;
  }
  return Awaiter{this};
}

void BulkOp::launch() {
  OCB_ENSURE(!in_flight_, "BulkOp reused while an op is in flight");
  in_flight_ = true;
  line_ = 0;
  half_idx_ = 0;
  observing_ = chip_->observing();
  issue_ = chip_->engine().now();
  // The per-line path pays the op's software overhead via busy(); with zero
  // jitter that delay is exact arithmetic either way.
  const sim::Time start = issue_ + op_overhead_;
  if (try_closed_form(start)) {
    chip_->note_bulk_op(observing_, /*quiescent=*/true);
    return;
  }
  chip_->note_bulk_op(observing_, /*quiescent=*/false);
  // Busy chip: run the event-parity chain. The kickoff event stands in for
  // the busy() sleep and, like it, is scheduled from the caller's event.
  chip_->engine().schedule_fn(start, &start_tramp, this);
}

// Closed-form path: with an empty event queue nothing can run between now
// and the op's completion event, so resource bookings made eagerly (in
// strictly nondecreasing simulated-time order, exactly the order the
// per-line path would make them) land on identical Timeline/server state,
// and loads/stores are unobservable until the completion event anyway.
// Timed waiters always hold a timeout event in the queue, so they are
// excluded by the queue check; untimed waiters parked on a written MPB
// line's trigger are the one hazard, checked explicitly.
bool BulkOp::try_closed_form(sim::Time start) {
  if (chip_->engine().queue_size() != 0) return false;
  for (const Half& h : half_) {
    if (h.mem || !h.write) continue;
    for (std::size_t i = 0; i < lines_; ++i) {
      if (h.mpb->line_has_waiters(h.base + i)) return false;
    }
  }
  // Observation: the per-line callbacks go inline to the whole chain,
  // stamped with the computed reference instants.
  if (observing_) {
    // The per-line path's busy(op_overhead) kickoff completion.
    chip_->observe_complete({TraceOp::kBusy, id_, id_, 0, issue_, start});
  }
  noc::Mesh& mesh = chip_->mesh();
  sim::Time t = start;
  for (line_ = 0; line_ < lines_; ++line_) {
    for (half_idx_ = 0; half_idx_ < 2; ++half_idx_) {
      const Half& h = half_[half_idx_];
      const sim::Time begin = t;
      const std::size_t index = h.base + line_ * h.stride;
      if (h.mem && !h.write && cache_enabled_ && self_->cache().lookup(index)) {
        value_ = memory_->load(index);
        t += o_cache_hit_;
        if (observing_) {
          chip_->observe_read({TraceOp::kCacheHit, id_, id_, index, t}, value_);
          chip_->observe_complete(
              {TraceOp::kCacheHit, id_, id_, index, begin, t});
        }
        fold_read();
        continue;
      }
      const sim::Time dep = t + h.overhead;
      const sim::Time arrival =
          h.cross ? mesh.reserve_path(dep, tile_, h.dst_tile) : dep + l_hop_;
      const sim::Time done = arrival + h.service;  // idle server: no queueing
      if (h.ported) h.server->book_uncontended(h.service);
      do_access(done);
      t = h.cross ? mesh.reserve_path(done, h.dst_tile, tile_) : done + l_hop_;
      if (observing_) {
        chip_->observe_complete({h.op, id_, h.target, index, begin, t});
      }
    }
  }
  // The op's effects are fully booked; only the caller's resume remains.
  in_flight_ = false;
  chip_->engine().schedule(t, cont_);
  return true;
}

// ---- Event-parity chain (busy chip) ----------------------------------
//
// One event per reference-path event, at the same instant, SCHEDULED from
// an event at the same instant the reference schedules its counterpart —
// see bulk.h for why the scheduling instants (not just the firing
// instants) are load-bearing. Within each handler, shared-state actions
// and schedule calls happen in the reference's order.

// Segment kickoff, called inside an event at the segment's start instant
// (the reference calls cache lookup / core_overhead at this instant).
// Under observation the chain dispatches the reference's per-line
// callbacks live to the full chain at the same instants, in the same
// intra-event order; the gates the reference would consult between them
// are guaranteed identity by the acquisition-time bulk_window_clear check
// and cost zero engine events either way, so parity is unaffected.
void BulkOp::start_segment() {
  const Half& h = half_[half_idx_];
  const sim::Time now = chip_->engine().now();
  seg_start_ = now;
  if (h.mem && !h.write && cache_enabled_ &&
      self_->cache().lookup(h.base + line_ * h.stride)) {
    // Cache hit: single event, like the reference's o_cache_hit sleep.
    chip_->engine().schedule_fn(now + o_cache_hit_, &hit_tramp, this);
    return;
  }
  chip_->engine().schedule_fn(now + h.overhead, &dep_tramp, this);
}

// Advance to the next segment (or finish), called inside the event at the
// previous segment's end instant — the reference's traverse-back resume.
void BulkOp::advance() {
  if (half_idx_ == 0) {
    half_idx_ = 1;
    start_segment();
    return;
  }
  half_idx_ = 0;
  if (++line_ < lines_) {
    start_segment();
    return;
  }
  // Op complete. The reference resumes the caller inline from this event
  // (co_return chains through the coroutine frames, no extra event). Clear
  // in_flight first: the resumed caller may start this core's next op.
  in_flight_ = false;
  cont_.resume();
}

void BulkOp::on_start() {
  if (observing_) {
    // The reference's busy(op_overhead) completes at this instant, inside
    // this resumption event, before the first line sub-op begins.
    chip_->observe_complete(
        {TraceOp::kBusy, id_, id_, 0, issue_, chip_->engine().now()});
  }
  start_segment();
}

void BulkOp::on_seg() {
  if (observing_) {
    const Half& h = half_[half_idx_];
    chip_->observe_complete({h.op, id_, h.target,
                             h.base + line_ * h.stride, seg_start_,
                             chip_->engine().now()});
  }
  advance();
}

void BulkOp::on_hit() {
  const Half& h = half_[half_idx_];
  const std::size_t index = h.base + line_ * h.stride;
  value_ = memory_->load(index);
  if (observing_) {
    const sim::Time now = chip_->engine().now();
    chip_->observe_read({TraceOp::kCacheHit, id_, id_, index, now}, value_);
    chip_->observe_complete(
        {TraceOp::kCacheHit, id_, id_, index, seg_start_, now});
  }
  fold_read();
  advance();
}

void BulkOp::on_departure() {
  const Half& h = half_[half_idx_];
  sim::Engine& engine = chip_->engine();
  const sim::Time arrival =
      h.cross ? chip_->mesh().reserve_path(engine.now(), tile_, h.dst_tile)
              : engine.now() + l_hop_;
  engine.schedule_fn(arrival, &arrival_tramp, this);
}

void BulkOp::on_arrival() {
  const Half& h = half_[half_idx_];
  if (h.ported) {
    // Join the port queue at the exact arrival instant; the server invokes
    // complete_tramp at service completion.
    h.server->acquire(h.service, /*priority=*/id_, &complete_tramp, this);
  } else {
    // Own unported MPB: the per-line path sleeps t_mpb_port, then accesses.
    chip_->engine().schedule_fn(chip_->engine().now() + h.service,
                                &complete_tramp, this);
  }
}

void BulkOp::on_complete() {
  sim::Engine& engine = chip_->engine();
  do_access(engine.now());
  const Half& h = half_[half_idx_];
  const sim::Time seg_end =
      h.cross ? chip_->mesh().reserve_path(engine.now(), h.dst_tile, tile_)
              : engine.now() + l_hop_;
  engine.schedule_fn(seg_end, &seg_tramp, this);
}

// Loads/stores and their read/write observations, in the reference's
// order: MPB read = load, observe, fold; MPB/mem write = observe, store
// iff the chain commits (mem writes still insert into the cache model
// either way); mem read = load, observe, fold, insert.
void BulkOp::do_access(sim::Time now) {
  const Half& h = half_[half_idx_];
  const std::size_t index = h.base + line_ * h.stride;
  if (h.write) {
    bool commit = true;
    if (observing_) {
      commit = chip_->observe_write({h.op, id_, h.target, index, now}, value_);
    }
    if (h.mem) {
      if (commit) memory_->store(index, value_);
      if (cache_enabled_) self_->cache().insert(index);
    } else if (commit) {
      h.mpb->store(index, value_);
    }
    return;
  }
  value_ = h.mem ? memory_->load(index) : h.mpb->load(index);
  if (observing_) {
    chip_->observe_read({h.op, id_, h.target, index, now}, value_);
  }
  fold_read();
  if (h.mem && cache_enabled_) self_->cache().insert(index);
}

}  // namespace ocb::scc
