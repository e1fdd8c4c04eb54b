#include "rma/reliable.h"

namespace ocb::rma {

sim::Task<std::optional<FlagValue>> wait_flag_at_least_watchdog(
    scc::Core& self, MpbAddr flag, FlagValue minimum, sim::Duration timeout) {
  return wait_flag_watchdog(
      self, flag, decode_flag, [minimum](FlagValue v) { return v >= minimum; },
      timeout);
}

sim::Task<std::optional<FlagValue>> wait_checked_flag_at_least_watchdog(
    scc::Core& self, MpbAddr flag, FlagValue minimum, sim::Duration timeout) {
  return wait_flag_watchdog(
      self, flag, decode_checked_flag,
      [minimum](FlagValue v) { return v >= minimum; }, timeout);
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
