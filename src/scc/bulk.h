// Coalesced multi-line RMA fast path.
//
// The per-line path (rma/rma.cpp over scc/core.h) simulates an N-line
// transfer as N round trips through coroutine frames: every line costs two
// Task frames, a chain of awaiter suspensions, and 8 engine events for a
// remote get. The timestamps those events produce are nevertheless fully
// determined by the Fig. 2 cost model the moment the op starts. BulkOp
// replays the exact same cost arithmetic without any per-line coroutine
// machinery, in one of two regimes:
//
// 1. QUIESCENT (empty event queue, no coroutine parked on any MPB line the
//    op writes): nothing can interleave with the op, so the whole transfer
//    is computed closed-form — resources are booked immediately in time
//    order and a single completion event resumes the caller. This is the
//    microbenchmark regime (rma_test, Fig. 3 latency probes, warm-up
//    loops), and it collapses ~8 events/line to 1 per op.
//
// 2. BUSY (anything else): a flat event chain with *event parity* — one
//    lean function-pointer event per reference-path event. Parity, not
//    fewer events, is required for exactness here, and the reason is
//    subtle: the engine breaks same-instant ties by insertion order, and an
//    event takes its place in that order when it is SCHEDULED. Two packets
//    reserving the same link at the same instant, or two cores grabbing an
//    idle port at the same instant, are ordered by insertion, and the
//    reference schedules them at specific instants (a traversal's arrival
//    event is scheduled at its departure instant, a departure event at the
//    previous segment's end, ...). Dropping an intermediate event shifts
//    the scheduling instant of every event scheduled "through" it, which
//    can flip a same-instant race somewhere else on the chip and drift the
//    timeline (observed: ~0.1% latency drift on OC-Bcast when the chain
//    skipped the segment-boundary events). So the busy-chip chain keeps
//    every instant: kickoff (the busy() sleep), departure (link
//    reservation), arrival (port enqueue), completion (access + return
//    reservation), segment end (advance), and a single event for a cache
//    hit — and resumes the caller inline from the final segment-end event,
//    exactly like the reference's co_return chain. The win in this regime
//    is constant-factor only: no coroutine frames, no awaiter chains, no
//    nested Task resume cascades — just trampolines on a reusable object.
//
// BulkOp is only used when SccChip::coalescing_active() — zero jitter,
// config.coalescing on, and every installed observer bulk-capable (see
// scc/observer.h). Both regimes hand the chain the per-line stream, in the
// reference order and with the reference timestamps:
//
//   * On the parity chain, the callbacks are dispatched live at the exact
//     reference instants (the kickoff event delivers the kBusy completion,
//     the access happens inside the port-completion event, the
//     segment-end event delivers the line's completion) — and because a
//     clear bulk window guarantees the gates are identity (no crash, zero
//     stall) and gates cost zero engine events either way (symmetric
//     transfer), the chain stays event-for-event and seq-for-seq
//     identical to the observed reference path.
//   * On the closed-form path, the same callbacks go inline during
//     booking, stamped with the computed reference instants. Nothing else
//     can run before the op's completion event, and a bulk-capable
//     observer reads time only from the txn, so it cannot tell the two
//     apart.
//
// Checksums ride along: run()'s optional `sum` folds each source line as
// this core observed it — after on_read, so injected read corruption is
// in the fold — at the point the per-line loop folds, in both regimes and
// on cache hits. FT-OC-Bcast's verified transfers are plain rma/rma.h
// operations with a `sum`, so its payload coalesces like any other op.
//
// The equivalence is asserted by tests/coalescing_equivalence_test.cpp and
// tests/observer_fastpath_test.cpp, and discussed in DESIGN.md ("Fast-path
// transaction coalescing", "One observer stream").
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>

#include "common/types.h"
#include "noc/topology.h"
#include "scc/trace.h"
#include "sim/time.h"

namespace ocb::sim {
class ArbitratedServer;
}

namespace ocb::mem {
class MpbStorage;
class PrivateMemory;
}  // namespace ocb::mem

namespace ocb::scc {

class Core;
class SccChip;

/// The four rma/rma.h operations. "local_index" in BulkOp::run() is the
/// local-MPB first line for the *MpbToMpb kinds and the private-memory byte
/// offset for the *Mem kinds.
enum class BulkKind {
  kPutMpbToMpb,  ///< local MPB lines -> remote MPB lines
  kPutMemToMpb,  ///< private memory  -> remote MPB lines
  kGetMpbToMpb,  ///< remote MPB lines -> local MPB lines
  kGetMpbToMem,  ///< remote MPB lines -> private memory
};

/// Reusable per-core fast-path engine (a core runs one RMA op at a time;
/// SccChip keeps one BulkOp per core, created on first use).
class BulkOp {
 public:
  explicit BulkOp(Core& self);

  BulkOp(const BulkOp&) = delete;
  BulkOp& operator=(const BulkOp&) = delete;

  class Awaiter {
   public:
    explicit Awaiter(BulkOp* op) : op_(op) {}
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      op_->cont_ = h;
      op_->launch();
    }
    void await_resume() const noexcept {}

   private:
    BulkOp* op_;
  };

  /// One coalesced `lines`-line operation starting now. The awaiting
  /// coroutine resumes at exactly the completion time the per-line path
  /// would produce. `op_overhead` is the per-operation software cost
  /// (o_put_mpb et al.) the per-line path pays via busy(). Caller has
  /// already validated ranges (rma.cpp does) and checked in_flight().
  /// A non-null `sum` accumulates fold_line over each source line as this
  /// core observed it (after on_read), in line order, in both regimes —
  /// the per-line loop's fold point.
  Awaiter run(BulkKind kind, sim::Duration op_overhead, CoreId mpb_owner,
              std::size_t mpb_line, std::size_t local_index, std::size_t lines,
              std::uint64_t* sum = nullptr);

  /// True while an op is running on this core's BulkOp. A plain core has at
  /// most one RMA op in flight, but the broadcast service (svc/) multiplexes
  /// several collective participations onto one core as interleaved
  /// coroutines; rma.cpp routes any op that finds the BulkOp busy through
  /// the per-line reference path instead (identical timing by construction).
  bool in_flight() const { return in_flight_; }

 private:
  /// Immutable description of one half of every line transfer: half 0 reads
  /// the source, half 1 writes the destination. Only the line/offset varies
  /// across the op's lines (by `stride`).
  struct Half {
    bool mem = false;     ///< private-memory half (else an MPB half)
    bool write = false;
    bool ported = false;  ///< goes through an ArbitratedServer
    bool cross = false;   ///< destination tile != self tile (links involved)
    std::size_t base = 0;    ///< first MPB line / first memory byte offset
    std::size_t stride = 0;  ///< 1 line or kCacheLineBytes per line
    mem::MpbStorage* mpb = nullptr;  ///< MPB halves (hot path: no id lookup)
    sim::ArbitratedServer* server = nullptr;
    noc::TileCoord dst_tile{};
    sim::Duration overhead = 0;  ///< core-side cost before the packet departs
    sim::Duration service = 0;   ///< port/bank hold (or unported access time)
    CoreId target = 0;  ///< MPB owner / self for mem halves (observation)
    TraceOp op = TraceOp::kBusy;  ///< the half's per-line transaction kind
  };

  Half mpb_half(CoreId owner, std::size_t first_line, bool write) const;
  Half mem_half(std::size_t offset, bool write) const;

  void launch();
  bool try_closed_form(sim::Time start);
  void start_segment();
  void advance();
  void on_start();
  void on_seg();
  void on_hit();
  void on_departure();
  void on_arrival();
  void on_complete();
  /// Performs the current line-half's load/store at instant `now`,
  /// dispatching on_read/on_write in the reference order.
  void do_access(sim::Time now);
  /// Folds the line just read (value_, as observed) into the op's sum.
  void fold_read() {
    if (sum_ != nullptr) *sum_ = fold_line(*sum_, value_);
  }

  static void start_tramp(void* op) { static_cast<BulkOp*>(op)->on_start(); }
  static void seg_tramp(void* op) { static_cast<BulkOp*>(op)->on_seg(); }
  static void hit_tramp(void* op) { static_cast<BulkOp*>(op)->on_hit(); }
  static void dep_tramp(void* op) {
    static_cast<BulkOp*>(op)->on_departure();
  }
  static void arrival_tramp(void* op) {
    static_cast<BulkOp*>(op)->on_arrival();
  }
  static void complete_tramp(void* op) {
    static_cast<BulkOp*>(op)->on_complete();
  }

  Core* self_;
  SccChip* chip_;
  CoreId id_;
  noc::TileCoord tile_;

  // Cached immutable configuration/geometry.
  sim::Duration l_hop_;
  sim::Duration t_mpb_port_;
  sim::Duration t_mc_port_;
  sim::Duration o_mpb_core_;
  sim::Duration o_mem_core_read_;
  sim::Duration o_mem_core_write_;
  sim::Duration o_cache_hit_;
  bool cache_enabled_;
  bool local_mpb_uses_port_;
  sim::ArbitratedServer* mc_server_;
  mem::PrivateMemory* memory_;
  noc::TileCoord mc_tile_;
  bool mc_cross_;

  // Per-op state.
  Half half_[2];
  sim::Duration op_overhead_ = 0;
  std::size_t lines_ = 0;
  std::size_t line_ = 0;
  int half_idx_ = 0;
  bool in_flight_ = false;
  bool observing_ = false;   ///< chain non-empty at launch
  sim::Time issue_ = 0;      ///< op issue instant (before op_overhead_)
  sim::Time seg_start_ = 0;  ///< parity chain: current segment's start
  std::coroutine_handle<> cont_{};
  CacheLine value_{};
  std::uint64_t* sum_ = nullptr;  ///< run()'s `sum`, in the suspended caller
};

}  // namespace ocb::scc
