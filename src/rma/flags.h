// Cache-line flags for inter-core synchronization.
//
// The SCC guarantees read/write atomicity at 32-byte cache-line granularity
// (paper §5.1), so one whole line per flag gives race-free flags with no
// locks. A flag's value is a 64-bit integer stored in the line's first
// eight bytes; the remaining bytes are free for the caller.
//
// Waiting models a poll loop without simulating every iteration: the waiter
// does one line read per wake-up, parks on the line's store trigger between
// unsuccessful checks, and pays a fresh read when the line changes — so the
// observed set-to-detect latency is one local (or remote) line read, which
// is the paper's "no time elapses between setting the flag and checking
// that the flag is set" plus the physically required read.
#pragma once

#include <cstring>

#include "rma/rma.h"
#include "scc/chip.h"

namespace ocb::rma {

using FlagValue = std::uint64_t;

/// Serializes a flag value into a cache line (little-endian, first 8 bytes).
inline CacheLine encode_flag(FlagValue v) {
  CacheLine cl{};
  std::memcpy(cl.bytes.data(), &v, sizeof v);
  return cl;
}

/// Reads the flag value out of a cache line.
inline FlagValue decode_flag(const CacheLine& cl) {
  FlagValue v;
  std::memcpy(&v, cl.bytes.data(), sizeof v);
  return v;
}

/// Packs (writer id, sequence) into a flag value; used by protocols whose
/// flag lines see different writers over time.
inline FlagValue pack_flag(CoreId writer, std::uint64_t seq) {
  return (static_cast<FlagValue>(writer + 1) << 40) | (seq & ((1ULL << 40) - 1));
}

// --- sync annotations for the observer chain -------------------------------
//
// The flag helpers below report their release/acquire semantics to the
// chip's TransactionObserver chain (scc/observer.h), keyed by the flag
// VALUE: "the next write of this line publishes v" / "this read observed
// v". Value keying is what keeps the happens-before reconstruction honest
// under fault injection — a suppressed or corrupted write must not donate
// an ordering edge it never delivered. Protocols that write or poll flag
// lines with raw Core transactions (twosided recv's ready line, the
// FT staged lines, ...) call these at their raw sites.

/// "The next write of `flag` publishes `value`" — call immediately before
/// the raw flag write.
inline void note_flag_release(scc::Core& self, MpbAddr flag, FlagValue value) {
  scc::SccChip& chip = self.chip();
  if (chip.observing()) {
    chip.observe_sync({scc::SyncOp::kRelease, self.id(), flag.owner, flag.line,
                       value, self.now()});
  }
}

/// "A read of `flag` observed `value`" — call once the protocol accepts a
/// polled value.
inline void note_flag_acquire(scc::Core& self, MpbAddr flag, FlagValue value) {
  scc::SccChip& chip = self.chip();
  if (chip.observing()) {
    chip.observe_sync({scc::SyncOp::kAcquire, self.id(), flag.owner, flag.line,
                       value, self.now()});
  }
}

/// "`self` is about to start polling `flag` as a flag" — marks the line as
/// a synchronization line before its first read.
inline void note_flag_wait(scc::Core& self, MpbAddr flag) {
  scc::SccChip& chip = self.chip();
  if (chip.observing()) {
    chip.observe_sync(
        {scc::SyncOp::kWaitBegin, self.id(), flag.owner, flag.line, 0, self.now()});
  }
}

/// "`self`'s reads until the matching end are checksum-validated optimistic
/// reads" — seqlock-style sections (e.g. FT-OC-Bcast's re-routed fetches,
/// which race with the source's buffer reuse by design and discard any
/// read whose payload fails validation).
inline void note_optimistic_begin(scc::Core& self) {
  scc::SccChip& chip = self.chip();
  if (chip.observing()) {
    chip.observe_sync(
        {scc::SyncOp::kOptimisticBegin, self.id(), self.id(), 0, 0, self.now()});
  }
}

inline void note_optimistic_end(scc::Core& self) {
  scc::SccChip& chip = self.chip();
  if (chip.observing()) {
    chip.observe_sync(
        {scc::SyncOp::kOptimisticEnd, self.id(), self.id(), 0, 0, self.now()});
  }
}

/// Writes `value` into a flag line of (possibly remote) core `flag.owner`.
/// The value comes from a register, so this is a write-only single-line put
/// (per-op overhead + one line write).
sim::Task<void> set_flag(scc::Core& self, MpbAddr flag, FlagValue value);

/// Reads a flag line (local or remote; full line-read cost either way).
sim::Task<FlagValue> read_flag(scc::Core& self, MpbAddr flag);

/// Polls a flag line until `pred(value)` holds; returns the accepted value.
///
/// The epoch capture (mpb_read_line's `epoch_out`) closes the
/// read-response window: the line's value is sampled at the owner's MPB,
/// but the poller only learns it one mesh traversal later — a store
/// landing in between must not be lost.
template <typename Pred>
sim::Task<FlagValue> wait_flag(scc::Core& self, MpbAddr flag, Pred pred) {
  note_flag_wait(self, flag);
  for (;;) {
    std::uint64_t epoch = 0;
    CacheLine cl;
    co_await self.mpb_read_line(flag.owner, flag.line, cl, &epoch);
    const FlagValue v = decode_flag(cl);
    if (pred(v)) {
      note_flag_acquire(self, flag, v);
      co_return v;
    }
    sim::Trigger& trigger = self.chip().mpb(flag.owner).line_trigger(flag.line);
    co_await trigger.wait_unless_changed(epoch);
  }
}

/// Polls until the flag value is exactly `expected`.
sim::Task<FlagValue> wait_flag_equal(scc::Core& self, MpbAddr flag, FlagValue expected);

/// Polls until the flag value is >= `minimum` (monotone protocols).
sim::Task<FlagValue> wait_flag_at_least(scc::Core& self, MpbAddr flag, FlagValue minimum);

/// Host-side (zero simulated cost) flag initialization, for pre-run setup.
void host_init_flag(scc::SccChip& chip, MpbAddr flag, FlagValue value);

}  // namespace ocb::rma
