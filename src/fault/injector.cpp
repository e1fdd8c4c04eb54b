#include "fault/injector.h"

#include "common/require.h"
#include "scc/chip.h"

namespace ocb::fault {

FaultInjector::FaultInjector(const scc::SccChip& chip, FaultPlan plan)
    : plan_(std::move(plan)),
      rng_(SplitMix64(plan_.seed ^ 0xFA17B0A7ULL).next()),
      stall_applied_(plan_.stalls.size(), false),
      crash_reported_(plan_.crashes.size(), false),
      timing_faults_(static_cast<std::size_t>(chip.num_cores()), false) {
  // Pre-sample the plan's per-core gate effects once (the plan is
  // immutable for the injector's lifetime; see injector.h).
  for (const StallInterval& s : plan_.stalls) {
    OCB_REQUIRE(s.core >= 0 && s.core < chip.num_cores(),
                "fault plan stall core is not on the chip");
    timing_faults_[static_cast<std::size_t>(s.core)] = true;
  }
  for (const FailStop& f : plan_.crashes) {
    OCB_REQUIRE(f.core >= 0 && f.core < chip.num_cores(),
                "fault plan crash core is not on the chip");
    timing_faults_[static_cast<std::size_t>(f.core)] = true;
  }
}

bool FaultInjector::crashed(CoreId core, sim::Time now) {
  for (std::size_t i = 0; i < plan_.crashes.size(); ++i) {
    const FailStop& f = plan_.crashes[i];
    if (f.core != core || now < f.at) continue;
    if (!crash_reported_[i]) {
      crash_reported_[i] = true;
      ++stats_.crashes_applied;
    }
    return true;
  }
  return false;
}

sim::Duration FaultInjector::stall(CoreId core, sim::Time now) {
  for (std::size_t i = 0; i < plan_.stalls.size(); ++i) {
    const StallInterval& s = plan_.stalls[i];
    if (s.core != core || now < s.at || stall_applied_[i]) continue;
    stall_applied_[i] = true;
    ++stats_.stalls_applied;
    return s.duration;
  }
  return 0;
}

double FaultInjector::rate_for(scc::TraceOp op) const {
  switch (op) {
    case scc::TraceOp::kMpbRead:
      return plan_.rates.mpb_read;
    case scc::TraceOp::kMpbWrite:
      return plan_.rates.mpb_write;
    case scc::TraceOp::kMemRead:
    case scc::TraceOp::kCacheHit:
      return plan_.rates.mem_read;
    case scc::TraceOp::kMemWrite:
      return plan_.rates.mem_write;
    default:
      return 0.0;
  }
}

void FaultInjector::corrupt(CacheLine& value) {
  const std::uint64_t pick = rng_.next_below(kCacheLineBytes * 8);
  const std::size_t byte = static_cast<std::size_t>(pick / 8);
  const unsigned bit = static_cast<unsigned>(pick % 8);
  value.bytes[byte] ^= static_cast<std::byte>(1u << bit);
}

void FaultInjector::on_read(const scc::LineTxn& site, CacheLine& value) {
  const double rate = rate_for(site.op);
  if (rate <= 0.0) return;
  // One rng draw per at-risk transaction keeps the stream aligned with the
  // deterministic transaction order regardless of outcome.
  const double u = rng_.next_double();
  if (u >= rate) return;
  corrupt(value);
  ++stats_.reads_corrupted;
}

bool FaultInjector::on_write(const scc::LineTxn& site, CacheLine& value) {
  if (site.op == scc::TraceOp::kMpbWrite) {
    for (const StuckLine& s : plan_.stuck_lines) {
      const bool match = s.owner == site.target && s.line == site.index;
      const bool active = site.now >= s.from && site.now < s.until;
      if (match && active) {
        ++stats_.writes_suppressed;
        return false;
      }
    }
  }
  const double rate = rate_for(site.op);
  if (rate > 0.0) {
    const double u = rng_.next_double();
    if (u < rate) {
      corrupt(value);
      ++stats_.writes_corrupted;
    }
  }
  return true;
}

}  // namespace ocb::fault
