#include "rma/reliable.h"

namespace ocb::rma {

sim::Task<std::optional<FlagValue>> wait_flag_at_least_watchdog(
    scc::Core& self, MpbAddr flag, FlagValue minimum, sim::Duration timeout) {
  auto at_least = [minimum](FlagValue v) { return v >= minimum; };
  const std::optional<FlagValue> got =
      co_await wait_flag_watchdog(self, flag, at_least, timeout);
  co_return got;
}

sim::Task<bool> set_flag_reliable(scc::Core& self, MpbAddr flag, FlagValue value,
                                  const WatchdogPolicy& policy) {
  auto equals = [value](FlagValue v) { return v == value; };
  const bool ok = co_await set_flag_reliable(self, flag, value, policy, equals);
  co_return ok;
}

sim::Task<std::optional<FlagValue>> wait_checked_flag_at_least_watchdog(
    scc::Core& self, MpbAddr flag, FlagValue minimum, sim::Duration timeout) {
  note_flag_wait(self, flag);
  const sim::Time deadline = self.now() + timeout;
  for (;;) {
    std::uint64_t epoch = 0;
    CacheLine cl;
    co_await self.mpb_read_line(flag.owner, flag.line, cl, &epoch);
    const FlagValue v = decode_checked_flag(cl);
    if (v >= minimum) {
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
    CacheLine last;
    co_await self.mpb_read_line(flag.owner, flag.line, last);
    const FlagValue lv = decode_checked_flag(last);
    if (lv >= minimum) {
      note_flag_acquire(self, flag, lv);
      co_return lv;
    }
    co_return std::nullopt;
  }
}

sim::Task<bool> set_checked_flag_reliable(scc::Core& self, MpbAddr flag,
                                          FlagValue value,
                                          const WatchdogPolicy& policy) {
  const CacheLine want = encode_checked_flag(value);
  sim::Duration backoff = policy.write_backoff;
  for (int attempt = 0;; ++attempt) {
    co_await self.busy(self.chip().config().o_put_mpb);
    note_flag_release(self, flag, value);
    co_await self.mpb_write_line(flag.owner, flag.line, want);
    CacheLine back;
    co_await self.mpb_read_line(flag.owner, flag.line, back);
    const bool ok = decode_checked_flag(back) >= value;
    if (ok) co_return true;
    if (attempt >= policy.write_retries) co_return false;
    co_await self.busy(backoff);
    backoff *= 2;
  }
}

}  // namespace ocb::rma
