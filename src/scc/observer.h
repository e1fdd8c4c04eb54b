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
// One observer stream. Whatever path a multi-line RMA op takes, an
// observer sees the same per-line callbacks in the same order with the
// same timestamps: the per-line coroutine path and the busy-chip parity
// chain deliver them live at the reference instants, and the quiescent
// closed form delivers them inline while it books the op, stamped with
// the computed reference instants (scc/bulk.h).
//
// Capabilities. By default installing an observer turns the coalesced
// fast path off chip-wide. An observer opts in with supports_bulk();
// coalescing stays on when every chain member opts in. The contract a
// bulk-capable observer signs:
//   * its callbacks read time only from the txn or event they are handed,
//     never from the chip: the closed form calls them while the engine
//     clock still reads the op's issue instant;
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

  // --- capabilities (the coalesced fast path; see the file header) --------

  /// Whether multi-line RMA ops may stay coalesced with this observer
  /// installed. Coalescing requires every chain member to agree.
  virtual bool supports_bulk() const { return false; }

  /// Per-op gate check: true promises crashed()/stall() are identity for
  /// `core` for the whole op starting at `now`. A false return routes this
  /// one op through the per-line reference path (gates consulted as usual).
  virtual bool bulk_window_clear(CoreId /*core*/, sim::Time /*now*/) {
    return true;
  }
};

}  // namespace ocb::scc
