// Host-side counters of a simulated run: coroutine-frame allocations and
// the coalesced-RMA (scc::BulkOp) path's hits and fallbacks. They describe
// how the simulator did its work, not what the simulated chip did, so they
// move with the coalescing configuration and never with simulated time.
//
// Always compiled in. sim::FramePool and scc::SccChip increment them;
// sim::RunResult, harness::BcastRunResult, harness::FaultRunOutcome and
// svc::ServiceMetrics carry one Counters value each: one run's deltas.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace ocb::sim {

struct Counters {
  /// Coroutine frames taken from the system allocator vs. recycled through
  /// the sim::FramePool free lists.
  std::uint64_t frame_allocs = 0;
  std::uint64_t frame_reuses = 0;
  /// Multi-line RMA ops that took the coalesced fast path, how many of
  /// those ran with observers installed, and how many booked closed-form
  /// on a quiescent chip.
  std::uint64_t bulk_ops = 0;
  std::uint64_t bulk_ops_observed = 0;
  std::uint64_t bulk_quiescent_ops = 0;
  /// Ops denied the fast path at acquisition (an observer's bulk window
  /// was closed, or the core's BulkOp pool was exhausted) and the lines
  /// they replayed through the per-line path.
  std::uint64_t bulk_fallback_ops = 0;
  std::uint64_t bulk_fallback_lines = 0;

  Counters& operator+=(const Counters& other);
  /// Field by field: a later reading minus an earlier one is the delta.
  friend Counters operator-(Counters later, const Counters& earlier);

  /// The counters as JSON object members, `"name": value` in declaration
  /// order, joined by `separator`; the caller writes the enclosing braces.
  std::string to_json(std::string_view separator) const;
};

}  // namespace ocb::sim
