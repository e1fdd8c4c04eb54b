// The unified Core instrumentation surface.
//
// Every single-cache-line transaction a core executes — MPB reads/writes,
// private-memory reads/writes, busy intervals — flows past a chain of
// TransactionObservers installed on the chip. The chain subsumes what used
// to be two hard-coded seams (the fault-injection hook and the trace sink)
// and adds a third consumer, the happens-before race checker (check/).
//
// An observer sees a transaction up to three times:
//   * crashed()/stall() — the pre-transaction gate (fail-stop, freezes);
//   * on_read()/on_write() — at the instant the line access happens,
//     with mutable access to the observed/stored value (fault injection);
//   * on_complete() — at the transaction's completion, with the full
//     [start, end) interval (tracing).
// In addition, the synchronization layer (rma/flags.h and the raw flag
// sites in the collectives) reports flag semantics via on_sync(): which
// line transactions are releases/acquires of which value, so an observer
// can reconstruct the happens-before order without guessing at payloads.
//
// Observers are non-owning and must outlive the simulation; all callbacks
// run synchronously inside the event loop and must not re-enter it. With
// an empty chain a transaction costs one branch, and multi-line RMA ops
// may take the coalesced BulkOp fast path (SccChip::coalescing_active).
//
// Capability model (batched observation). By default an observer keeps
// today's semantics: installing it turns the coalesced fast path off and
// every line transaction is dispatched individually. An observer may opt
// in by overriding supports_bulk() (or is_passive(), which implies it);
// coalescing then stays on when *every* chain member is bulk-capable, and
// multi-line RMA ops observe in one of two regimes:
//
//   * Busy chip (event-parity chain): the op's per-line callbacks are
//     dispatched live, at the exact reference instants, to the full chain
//     — capability flags do not change what a busy-chip op delivers.
//   * Quiescent chip (closed-form booking): callbacks the observer said
//     it needs per line (needs_per_line_reads/writes/completes) are
//     dispatched inline during booking with the computed reference
//     timestamps; an observer that needs none of them instead receives a
//     single on_bulk(BulkTxn) whose default implementation synthesizes
//     the per-line stream (so opting out of per-line delivery without
//     overriding on_bulk is still lossless).
//
// The contract a bulk-capable observer signs:
//   * needs_per_line_writes() == false promises its on_write neither
//     mutates the value nor vetoes the commit;
//   * needs_per_line_reads() == false promises its on_read does not
//     mutate the observed value;
//   * bulk_window_clear(core, now) == true promises its gate callbacks
//     (crashed/stall) are identity for `core` for the whole op — a false
//     return routes that one op through the per-line reference path.
// Everything observable must come out bit-identical either way; the
// fast-path-on-vs-off equivalence is asserted by observer_fastpath_test.
#pragma once

#include "common/types.h"
#include "scc/trace.h"
#include "sim/time.h"

namespace ocb::scc {

class SccChip;

/// One line transaction as seen at the access instant (op kinds reuse
/// TraceOp; kBusy never reaches on_read/on_write).
struct LineTxn {
  TraceOp op;
  CoreId core;        ///< the core executing the transaction
  CoreId target;      ///< MPB owner for kMpb*, otherwise == core
  std::size_t index;  ///< MPB line or memory byte offset
  sim::Time now;
};

/// Flag-semantics events reported by the synchronization layer.
enum class SyncOp : std::uint8_t {
  kHostInit,    ///< host-side flag initialization (no simulated transaction)
  kWaitBegin,   ///< a core starts polling the line as a flag
  kRelease,     ///< the next write of this line publishes `value`
  kAcquire,     ///< a read of this line observed `value`
  kIpiSend,     ///< inter-core interrupt raised at core `owner`
  kIpiConsume,  ///< pending interrupt consumed by `core`
  /// `core` enters a validated-read (seqlock-style) section: its line reads
  /// are deliberately unsynchronized and checked by the protocol itself
  /// (checksum match or discard+retry), so they do not participate in
  /// data-race detection. Writes remain fully checked.
  kOptimisticBegin,
  kOptimisticEnd,  ///< leaves the validated-read section
};

struct SyncEvent {
  SyncOp op;
  CoreId core;        ///< the core performing the sync operation (-1 = host)
  CoreId owner;       ///< flag line's MPB owner / interrupt target
  std::size_t line;   ///< flag's MPB line (0 for IPI events)
  std::uint64_t value;
  sim::Time now;
};

/// Immutable description of one half of a coalesced RMA op: half 0 reads
/// the source, half 1 writes the destination; only the line/offset varies
/// across the op's lines (by `stride`).
struct BulkHalfDesc {
  TraceOp op;          ///< kMpbRead/kMpbWrite/kMemRead/kMemWrite
  CoreId target;       ///< MPB owner for MPB halves, == issuing core for mem
  bool mem = false;    ///< private-memory half (else an MPB half)
  std::size_t base = 0;    ///< first MPB line / first memory byte offset
  std::size_t stride = 0;  ///< 1 line or kCacheLineBytes per line
};

/// The reference-path timestamps of one line-half of a coalesced op, as
/// the per-line path would have produced them.
struct BulkHalfTimes {
  sim::Time begin = 0;   ///< per-line transaction start
  sim::Time access = 0;  ///< the load/store instant (on_read/on_write time)
  sim::Time end = 0;     ///< per-line completion (after the return traverse)
  bool cache_hit = false;  ///< mem-read half satisfied by the cache model
};

/// One coalesced multi-line RMA op, delivered to observers that opted out
/// of per-line callbacks on the quiescent fast path. `schedule` holds
/// lines*2 entries in access order (line-major, half 0 before half 1).
struct BulkTxn {
  CoreId core = 0;
  std::size_t lines = 0;
  sim::Time issue = 0;    ///< op issue instant (before software overhead)
  sim::Time kickoff = 0;  ///< issue + op overhead (end of the busy() span)
  sim::Time end = 0;      ///< caller-resume instant
  BulkHalfDesc half[2];
  const BulkHalfTimes* schedule = nullptr;
  SccChip* chip = nullptr;  ///< post-op storage, for value recovery
};

class TransactionObserver {
 public:
  virtual ~TransactionObserver() = default;

  /// Fail-stop check, consulted at every transaction boundary; returning
  /// true parks the core's process forever (it counts as stalled).
  virtual bool crashed(CoreId /*core*/, sim::Time /*now*/) { return false; }

  /// Extra stall charged to `core` before its next transaction (0 = none).
  virtual sim::Duration stall(CoreId /*core*/, sim::Time /*now*/) { return 0; }

  /// May mutate the value a read observes; the backing storage keeps the
  /// original bytes.
  virtual void on_read(const LineTxn& /*txn*/, CacheLine& /*value*/) {}

  /// May mutate the value about to be stored, or suppress the store by
  /// returning false (a lost write / stuck line). Every observer in the
  /// chain is consulted; the store commits only if all agree.
  virtual bool on_write(const LineTxn& /*txn*/, CacheLine& /*value*/) {
    return true;
  }

  /// Transaction completed; `event` carries the full [start, end) interval.
  virtual void on_complete(const TraceEvent& /*event*/) {}

  /// Flag/interrupt semantics from the synchronization layer.
  virtual void on_sync(const SyncEvent& /*event*/) {}

  /// Broadcast once per core, the first time any observer in the chain
  /// reports it crashed() — lets passive observers (the race checker)
  /// retire the core's recorded accesses under fail-stop semantics.
  virtual void on_crash(CoreId /*core*/, sim::Time /*now*/) {}

  // --- capability model (coalesced/batched observation; see file header) --

  /// A passive observer never mutates values, never vetoes a commit, and
  /// never gates a core (crashed/stall are identity). Implies
  /// supports_bulk().
  virtual bool is_passive() const { return false; }

  /// Whether multi-line RMA ops may stay coalesced with this observer
  /// installed. Coalescing requires every chain member to agree.
  virtual bool supports_bulk() const { return is_passive(); }

  /// Per-line callback needs on the quiescent fast path (ignored on the
  /// busy-chip parity chain, which always dispatches the full stream).
  /// Returning false is a promise of no per-line effect — see the header.
  virtual bool needs_per_line_reads() const { return true; }
  virtual bool needs_per_line_writes() const { return true; }
  virtual bool needs_per_line_completes() const { return true; }

  /// Per-op gate check: true promises crashed()/stall() are identity for
  /// `core` for the whole op starting at `now`. A false return routes this
  /// one op through the per-line reference path (gates consulted as usual).
  virtual bool bulk_window_clear(CoreId /*core*/, sim::Time /*now*/) {
    return true;
  }

  /// One batched notification per quiescent coalesced op, delivered only
  /// to observers whose needs_per_line_*() are all false. The default
  /// implementation synthesizes exactly the per-line callback stream the
  /// reference path would have delivered (values re-read from post-op
  /// storage — exact, since every needs-free observer left them alone).
  virtual void on_bulk(const BulkTxn& txn);
};

}  // namespace ocb::scc
