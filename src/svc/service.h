// ocb::svc — a multi-root broadcast service over leased MPB slots.
//
// The rest of the repo runs ONE collective at a time: every core calls
// run() on the same instance and the whole 256-line MPB belongs to it.
// BroadcastService instead accepts a stream of timestamped broadcast
// requests (svc/traffic.h) with mixed roots and sizes and executes several
// of them CONCURRENTLY on one chip:
//
//   * an MPB slot allocator (mem/mpb_slots.h) partitions each core's MPB
//     into fixed-size slots; a request runs entirely inside its leased
//     slot, so in-flight collectives never overlap buffers or flags;
//   * an admission controller queues requests while all slots are busy
//     (bounded queue; beyond the bound a request is REJECTED and counted)
//     and a scheduling policy picks the next grant — arrival order (kFifo)
//     or smallest-message-first (kSmallestFirst, the classic tail-latency
//     trade: small requests overtake bulk transfers);
//   * an SLO metrics layer records every request's arrival -> dispatch ->
//     completion span into log-scale latency histograms
//     (common/stats.h LatencyHistogram: p50/p99/p999 without storing
//     samples) and can export each request as a span in the Chrome-trace
//     timeline (scc/trace_json.h).
//
// Cores MULTIPLEX: a core participates in every in-flight collective at
// once, as independent coroutines on the simulated core. The per-core
// coalesced-RMA fast path detects this (BulkOp::in_flight) and falls back
// to the per-line reference path, so multiplexed timing stays exact.
//
// Determinism: arrivals, sizes, and roots come from the seeded generator;
// the engine's time-then-insertion order does the rest. Same spec + seed =>
// bit-identical metrics, asserted by tests/service_test.cpp.
//
// Correctness under recycling: a slot's new occupant REALLY does follow
// its previous occupant (every participant of the old collective returned
// before release()), but the race checker cannot see that from line
// transactions alone — the service therefore reports the handoff to
// on_sync() as a release/acquire pair on a reserved per-slot "handoff
// line", keyed by the slot generation (see service.cpp). Genuine overlap
// (two collectives sharing lines, as in the no-allocator gate test) is
// still flagged.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "mem/mpb_slots.h"
#include "scc/config.h"
#include "sim/counters.h"
#include "sim/task.h"
#include "sim/time.h"
#include "svc/traffic.h"

namespace ocb::scc {
class Core;
class SccChip;
class JsonTraceCollector;
}  // namespace ocb::scc

namespace ocb::check {
class RaceChecker;
}  // namespace ocb::check

namespace ocb::coll {
class Collective;
}  // namespace ocb::coll

namespace ocb::svc {

enum class SchedPolicy : std::uint8_t {
  kFifo,           ///< strict arrival order
  kSmallestFirst,  ///< fewest bytes first (ties: arrival order)
};

const char* sched_policy_name(SchedPolicy policy);

struct ServiceConfig {
  /// Registry name; must honor coll::Params::mpb_base_line and fit a slot
  /// ("ocbcast" or "ft-ocbcast").
  std::string algorithm = "ocbcast";
  int parties = 0;  ///< cores 0..parties-1; 0 = every core of `chip`
  int k = 7;
  bool double_buffering = true;
  /// Concurrent collectives = slots; each leases `slot_lines` MPB lines on
  /// every core. The chunk size is derived: whatever of the slot remains
  /// after the algorithm's flags and fence lines (core/pipeline.h), split
  /// across buffers.
  int slots = 2;
  std::size_t slot_lines = 120;
  SchedPolicy policy = SchedPolicy::kFifo;
  /// Admission bound: requests arriving with this many already queued are
  /// rejected (slots in service do not count toward the depth).
  std::size_t max_queue = 64;
  /// Install an ocb::check::RaceChecker for the whole run. OCB_CHECK (any
  /// value but "0") installs one too and makes run() throw on a race.
  bool check = false;
  scc::SccConfig chip{};
};

/// Per-request ledger entry (rejected requests have only arrival set).
struct RequestOutcome {
  int id = -1;
  CoreId root = 0;
  std::size_t bytes = 0;
  sim::Time arrival = 0;
  sim::Time start = 0;       ///< slot granted, participants spawned
  sim::Time completion = 0;  ///< last participant returned
  int slot = -1;
  bool rejected = false;
  bool content_ok = true;
};

/// Aggregate SLO metrics of one run. All times are integer nanoseconds
/// derived from the picosecond simulation clock, so the whole struct is
/// bit-reproducible for a given spec + seed.
struct ServiceMetrics {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  std::size_t max_queue_depth = 0;
  std::uint64_t delivered_bytes = 0;  ///< sum of completed message sizes
  sim::Time makespan = 0;             ///< first arrival -> queue drained
  bool content_ok = true;
  std::uint64_t race_violations = 0;
  LatencyHistogram latency_ns;     ///< arrival -> completion
  LatencyHistogram queue_wait_ns;  ///< arrival -> dispatch
  LatencyHistogram service_ns;     ///< dispatch -> completion
  /// Simulator-side counters (sim::RunResult), for the speed bench.
  std::uint64_t engine_events = 0;
  std::uint64_t engine_max_queue_depth = 0;
  /// Host-side counters of the run (sim/counters.h). They depend on the
  /// coalescing configuration, so — unlike everything above — they are
  /// deliberately NOT part of to_json(), which must stay bit-identical
  /// with the fast path on or off.
  sim::Counters counters;

  /// Goodput over the run: delivered_bytes / makespan.
  double throughput_mbps() const;

  /// Self-contained JSON object ("ocb-service-metrics-v1"); callers embed
  /// it next to their own config echo.
  std::string to_json() const;
};

/// Single-use service run: construct, submit(), run() once, read metrics.
class BroadcastService {
 public:
  explicit BroadcastService(const ServiceConfig& config);
  ~BroadcastService();

  BroadcastService(const BroadcastService&) = delete;
  BroadcastService& operator=(const BroadcastService&) = delete;

  /// Queues a request for the run; all submissions precede run().
  void submit(const Request& request);
  void submit(const std::vector<Request>& requests);

  /// Executes every submitted request to completion (or rejection) and
  /// returns the aggregate metrics. Call exactly once.
  ServiceMetrics run();

  /// Per-request ledger, in arrival order, valid after run().
  const std::vector<RequestOutcome>& outcomes() const { return outcomes_; }

  scc::SccChip& chip() { return *chip_; }
  /// The installed race checker, or nullptr when checking is off.
  check::RaceChecker* checker() { return checker_.get(); }
  const mem::MpbSlotAllocator& allocator() const { return allocator_; }

  /// When set (before run()), every completed request is emitted as a
  /// "service" span (arrival -> completion, on the root's timeline) into
  /// the collector, overlaying the per-transaction rows.
  void set_trace(scc::JsonTraceCollector* trace) { trace_ = trace; }

  /// Derived per-request chunk size (lines) inside a slot.
  std::size_t chunk_lines() const { return chunk_lines_; }
  /// Reserved MPB line (core 0) carrying slot `slot`'s handoff edge.
  std::size_t handoff_line(int slot) const {
    return allocator_.end_line() + static_cast<std::size_t>(slot);
  }

 private:
  struct Pending;  ///< a submitted request plus its memory placement
  struct Active;   ///< an in-service request (lease + collective instance)

  sim::Task<void> dispatcher();
  sim::Task<void> participant(scc::Core& me, Active* active);
  void on_arrival(std::size_t index);
  void try_dispatch();
  void start_request(std::size_t index);
  void complete(Active* active);

  ServiceConfig config_;
  std::unique_ptr<scc::SccChip> chip_;
  std::unique_ptr<check::RaceChecker> checker_;
  mem::MpbSlotAllocator allocator_;
  std::size_t chunk_lines_ = 0;
  scc::JsonTraceCollector* trace_ = nullptr;

  std::vector<Pending> requests_;
  std::vector<RequestOutcome> outcomes_;
  std::vector<std::unique_ptr<Active>> active_;  ///< kept for the whole run
  std::vector<std::size_t> queue_;               ///< pending indices
  std::size_t next_offset_ = 0;  ///< private-memory placement cursor
  std::size_t max_queue_depth_ = 0;
  std::uint64_t rejected_ = 0;
  bool ran_ = false;
};

/// Generates spec's traffic, runs it through a fresh service, returns the
/// metrics (the one-call form used by benches and the smoke test).
ServiceMetrics run_service(const ServiceConfig& config,
                           const TrafficSpec& traffic);

}  // namespace ocb::svc
