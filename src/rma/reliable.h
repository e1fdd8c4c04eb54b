// Watchdog waits and reliable flag writes — the recovery primitives under
// the fault-tolerant collectives (core/ft_ocbcast.h).
//
// wait_flag_watchdog is rma::wait_flag with a deadline: instead of parking
// forever on a flag that will never be set (stuck line, crashed writer), the
// waiter arms a simulated timer (sim::Trigger::wait_for) and reports the
// timeout to its caller, which decides whether to retry, probe, or route
// around the silent peer.
//
// set_flag_reliable closes the stuck-write window: write, read back, and if
// the line does not hold an acceptable value, back off (doubling) and write
// again, up to a bound. Against the fault model's transient stuck intervals
// this converges; a permanently stuck line surfaces as `false`.
#pragma once

#include <optional>

#include "rma/flags.h"

namespace ocb::rma {

struct WatchdogPolicy {
  /// How long a flag wait may sit without progress before reporting.
  sim::Duration timeout = 150 * sim::kMicrosecond;
  /// Write-verify attempts before set_flag_reliable gives up.
  int write_retries = 6;
  /// Backoff before the first rewrite; doubles per attempt.
  sim::Duration write_backoff = 2 * sim::kMicrosecond;
};

/// wait_flag with a deadline, reading the line through `decode`
/// (decode_flag, or decode_checked_flag for checked lines). Returns the
/// accepted value, or nullopt if `timeout` of simulated time elapsed
/// without `pred` holding (after one final re-read, so a set that raced
/// the timer is not missed).
template <typename Decode, typename Pred>
sim::Task<std::optional<FlagValue>> wait_flag_watchdog(scc::Core& self,
                                                       MpbAddr flag,
                                                       Decode decode, Pred pred,
                                                       sim::Duration timeout) {
  note_flag_wait(self, flag);
  const sim::Time deadline = self.now() + timeout;
  for (;;) {
    std::uint64_t epoch = 0;
    CacheLine cl;
    co_await self.mpb_read_line(flag.owner, flag.line, cl, &epoch);
    const FlagValue v = decode(cl);
    if (pred(v)) {
      note_flag_acquire(self, flag, v);
      co_return v;
    }
    const sim::Time now = self.now();
    if (now >= deadline) co_return std::nullopt;
    self.set_wait_note("flag-watchdog", flag.owner, static_cast<int>(flag.line));
    // Trigger reference taken after the read (see rma::wait_flag).
    sim::Trigger& trigger = self.chip().mpb(flag.owner).line_trigger(flag.line);
    const bool woken = co_await trigger.wait_for(deadline - now, epoch);
    self.set_wait_note("running");
    if (woken) continue;
    // Timer fired: one last read in case the store landed after our sample
    // but before the trigger registered our wait.
    CacheLine last;
    co_await self.mpb_read_line(flag.owner, flag.line, last);
    const FlagValue lv = decode(last);
    if (pred(lv)) {
      note_flag_acquire(self, flag, lv);
      co_return lv;
    }
    co_return std::nullopt;
  }
}

/// wait_flag_at_least with a deadline.
sim::Task<std::optional<FlagValue>> wait_flag_at_least_watchdog(
    scc::Core& self, MpbAddr flag, FlagValue minimum, sim::Duration timeout);

/// Writes `value` and verifies it took hold, retrying with doubling backoff
/// per `policy`. `accepted` decides what a read-back must satisfy (exact
/// equality, or >= for monotone protocols). Returns false if every
/// attempt read back an unacceptable value.
template <typename Accept>
sim::Task<bool> set_flag_reliable(scc::Core& self, MpbAddr flag, FlagValue value,
                                  const WatchdogPolicy& policy, Accept accepted) {
  sim::Duration backoff = policy.write_backoff;
  for (int attempt = 0;; ++attempt) {
    co_await set_flag(self, flag, value);
    const FlagValue back = co_await read_flag(self, flag);
    const bool ok = accepted(back);
    if (ok) co_return true;
    if (attempt >= policy.write_retries) co_return false;
    co_await self.busy(backoff);
    backoff *= 2;
  }
}

// --- Self-validating ("checked") flags ------------------------------------
//
// A checked flag line carries its value plus an FNV-1a tag over the value
// bytes. A reader validates the tag before trusting the value, so a
// transiently corrupted *read* of the line decodes as "no value" (treated
// as flag value 0 — no progress) instead of a lie: a single bit flip can
// never fake an acknowledgement that was not written. The fault-tolerant
// collectives use these for their load-bearing flags (done/ack lines); a
// zero-initialized line deliberately fails validation and reads as 0.

/// FNV-1a over the eight value bytes.
inline std::uint64_t checked_flag_tag(FlagValue v) {
  std::uint64_t h = kFnvOffsetBasis;
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= kFnvPrime;
  }
  return h;
}

inline CacheLine encode_checked_flag(FlagValue v) {
  CacheLine cl{};
  const std::uint64_t tag = checked_flag_tag(v);
  std::memcpy(cl.bytes.data(), &v, sizeof v);
  std::memcpy(cl.bytes.data() + sizeof v, &tag, sizeof tag);
  return cl;
}

/// The stored value if the tag validates, else 0 ("no progress").
inline FlagValue decode_checked_flag(const CacheLine& cl) {
  FlagValue v;
  std::uint64_t tag;
  std::memcpy(&v, cl.bytes.data(), sizeof v);
  std::memcpy(&tag, cl.bytes.data() + sizeof v, sizeof tag);
  return tag == checked_flag_tag(v) ? v : 0;
}

/// wait_flag_at_least_watchdog over a checked flag line: corrupted reads
/// count as no progress and are simply re-polled.
sim::Task<std::optional<FlagValue>> wait_checked_flag_at_least_watchdog(
    scc::Core& self, MpbAddr flag, FlagValue minimum, sim::Duration timeout);

/// set_flag_reliable for a checked flag line; a read-back is acceptable
/// when it validates and is >= `value` (monotone protocols).
sim::Task<bool> set_checked_flag_reliable(scc::Core& self, MpbAddr flag,
                                          FlagValue value,
                                          const WatchdogPolicy& policy);

}  // namespace ocb::rma
