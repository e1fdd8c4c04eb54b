#include "svc/service.h"

#include <algorithm>
#include <cstdio>

#include "check/checker.h"
#include "coll/registry.h"
#include "common/require.h"
#include "common/rng.h"
#include "core/pipeline.h"
#include "scc/chip.h"
#include "scc/trace_json.h"

namespace ocb::svc {

namespace {

std::size_t derive_chunk_lines(const ServiceConfig& c) {
  OCB_REQUIRE(c.algorithm == "ocbcast" || c.algorithm == "ft-ocbcast",
              "service algorithm must be slot-aware (ocbcast or ft-ocbcast)");
  OCB_REQUIRE(c.k >= 1 && c.k <= c.parties - 1, "fan-out must be in [1, parties-1]");
  OCB_REQUIRE(c.slots >= 1, "need at least one MPB slot");
  const std::size_t buffers = c.double_buffering ? 2 : 1;
  // Every line of the algorithm's layout that is not payload buffer.
  const std::size_t fixed =
      core::TreeLayout::of({.parties = c.parties,
                            .k = c.k,
                            .chunk_lines = 0,
                            .double_buffering = c.double_buffering},
                           c.k, /*staged=*/c.algorithm == "ft-ocbcast")
          .lines();
  OCB_REQUIRE(c.slot_lines > fixed + buffers - 1,
              "slot too small for the algorithm's flags and fence lines");
  // One handoff line per slot sits after the partition.
  OCB_REQUIRE(c.slot_lines * static_cast<std::size_t>(c.slots) +
                      static_cast<std::size_t>(c.slots) <=
                  kMpbCacheLines,
              "slot partition + handoff lines exceed the 256-line MPB");
  return (c.slot_lines - fixed) / buffers;
}

void append_u64(std::string& out, const char* key, std::uint64_t v) {
  out += '"';
  out += key;
  out += "\":";
  out += std::to_string(v);
}

void append_histogram(std::string& out, const char* key,
                      const LatencyHistogram& h) {
  char buf[64];
  out += '"';
  out += key;
  out += "\":{";
  append_u64(out, "count", h.count());
  out += ',';
  append_u64(out, "min_ns", h.min());
  out += ',';
  append_u64(out, "max_ns", h.max());
  out += ",\"mean_ns\":";
  std::snprintf(buf, sizeof buf, "%.3f", h.count() ? h.mean() : 0.0);
  out += buf;
  out += ',';
  append_u64(out, "p50_ns", h.count() ? h.p50() : 0);
  out += ',';
  append_u64(out, "p99_ns", h.count() ? h.p99() : 0);
  out += ',';
  append_u64(out, "p999_ns", h.count() ? h.p999() : 0);
  out += '}';
}

}  // namespace

const char* sched_policy_name(SchedPolicy policy) {
  switch (policy) {
    case SchedPolicy::kFifo:
      return "fifo";
    case SchedPolicy::kSmallestFirst:
      return "smallest-first";
  }
  return "?";
}

double ServiceMetrics::throughput_mbps() const {
  if (makespan == 0) return 0.0;
  return static_cast<double>(delivered_bytes) / sim::to_us(makespan);
}

std::string ServiceMetrics::to_json() const {
  std::string out = "{\"schema\":\"ocb-service-metrics-v1\",";
  append_u64(out, "submitted", submitted);
  out += ',';
  append_u64(out, "completed", completed);
  out += ',';
  append_u64(out, "rejected", rejected);
  out += ',';
  append_u64(out, "max_queue_depth", max_queue_depth);
  out += ',';
  append_u64(out, "delivered_bytes", delivered_bytes);
  out += ',';
  append_u64(out, "makespan_ns", makespan / sim::kNanosecond);
  out += ",\"throughput_mbps\":";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f", throughput_mbps());
  out += buf;
  out += ",\"content_ok\":";
  out += content_ok ? "true" : "false";
  out += ',';
  append_u64(out, "race_violations", race_violations);
  out += ',';
  append_histogram(out, "latency", latency_ns);
  out += ',';
  append_histogram(out, "queue_wait", queue_wait_ns);
  out += ',';
  append_histogram(out, "service", service_ns);
  out += '}';
  return out;
}

struct BroadcastService::Pending {
  Request req;
  std::size_t offset = 0;  ///< private-memory placement (same on all cores)
};

struct BroadcastService::Active {
  std::size_t index = 0;  ///< into requests_ / outcomes_
  mem::MpbLease lease;
  std::unique_ptr<coll::Collective> coll;
  int remaining = 0;  ///< participants not yet returned
};

BroadcastService::BroadcastService(const ServiceConfig& config)
    : config_(config),
      chip_(std::make_unique<scc::SccChip>(config.chip)),
      allocator_(0, config.slot_lines, config.slots) {
  config_.parties = chip_->resolve_parties(config.parties);
  chunk_lines_ = derive_chunk_lines(config_);
  if (config_.check || check::requested_by_env()) {
    checker_ = std::make_unique<check::RaceChecker>(*chip_);
    chip_->add_observer(checker_.get());
  }
}

BroadcastService::~BroadcastService() = default;

void BroadcastService::submit(const Request& request) {
  OCB_REQUIRE(!ran_, "submit() after run()");
  OCB_REQUIRE(request.bytes > 0, "empty broadcast request");
  OCB_REQUIRE(request.root >= 0 && request.root < config_.parties,
              "request root is not a participant");
  Pending p;
  p.req = request;
  p.offset = next_offset_;
  next_offset_ += cache_lines_for(request.bytes) * kCacheLineBytes;
  OCB_REQUIRE(next_offset_ <= config_.chip.private_memory_limit / 4 * 3,
              "request stream exceeds the private-memory budget; "
              "fewer or smaller requests");
  requests_.push_back(p);
}

void BroadcastService::submit(const std::vector<Request>& requests) {
  for (const Request& r : requests) submit(r);
}

sim::Task<void> BroadcastService::dispatcher() {
  for (std::size_t i = 0; i < requests_.size(); ++i) {
    const sim::Time at = requests_[i].req.arrival;
    if (at > chip_->now()) {
      co_await chip_->engine().sleep(at - chip_->now());
    }
    on_arrival(i);
  }
}

void BroadcastService::on_arrival(std::size_t index) {
  RequestOutcome& out = outcomes_[index];
  if (queue_.size() >= config_.max_queue) {
    out.rejected = true;
    ++rejected_;
    return;
  }
  queue_.push_back(index);
  max_queue_depth_ = std::max(max_queue_depth_, queue_.size());
  try_dispatch();
}

void BroadcastService::try_dispatch() {
  while (!queue_.empty() && allocator_.slots_free() > 0) {
    std::size_t best = 0;  // kFifo: the queue is already in arrival order
    if (config_.policy == SchedPolicy::kSmallestFirst) {
      for (std::size_t i = 1; i < queue_.size(); ++i) {
        if (requests_[queue_[i]].req.bytes < requests_[queue_[best]].req.bytes) {
          best = i;
        }
      }
    }
    const std::size_t index = queue_[best];
    queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(best));
    start_request(index);
  }
}

void BroadcastService::start_request(std::size_t index) {
  const mem::MpbLease lease = *allocator_.acquire();
  // Scrub the slot on every core: the new collective restarts its flag
  // sequence numbering at 1, and a stale higher value from the previous
  // occupant would satisfy its waits early. Host-side, so no triggers fire
  // and the checker does not see it (the handoff edge below covers the
  // ordering instead). Safe: every previous participant returned before
  // release(), so nothing is parked on these lines.
  for (CoreId c = 0; c < config_.parties; ++c) {
    chip_->mpb(c).host_clear_lines(lease.base_line, lease.lines);
  }

  RequestOutcome& out = outcomes_[index];
  out.start = chip_->now();
  out.slot = lease.slot;

  coll::Params params;
  params.parties = config_.parties;
  params.k = config_.k;
  params.chunk_lines = chunk_lines_;
  params.double_buffering = config_.double_buffering;
  params.mpb_base_line = lease.base_line;

  auto active = std::make_unique<Active>();
  active->index = index;
  active->lease = lease;
  active->coll = coll::make(config_.algorithm, *chip_, params);
  active->remaining = config_.parties;
  Active* a = active.get();
  active_.push_back(std::move(active));

  for (CoreId c = 0; c < config_.parties; ++c) {
    chip_->spawn(c, [this, a](scc::Core& me) { return participant(me, a); });
  }
}

sim::Task<void> BroadcastService::participant(scc::Core& me, Active* a) {
  // Handoff edge, acquire side: this occupant causally follows everything
  // the slot's previous occupants did (release() came after all of their
  // participants returned). Reported on the slot's reserved handoff line,
  // keyed by generation, so the race checker orders recycled-slot accesses
  // without blessing genuine overlap.
  if (a->lease.generation > 0 && chip_->observing()) {
    chip_->observe_sync({scc::SyncOp::kAcquire, me.id(), 0,
                         handoff_line(a->lease.slot), a->lease.generation,
                         me.now()});
  }
  const Pending& p = requests_[a->index];
  co_await a->coll->run(me, p.req.root, p.offset, p.req.bytes);
  if (chip_->observing()) {
    chip_->observe_sync({scc::SyncOp::kRelease, me.id(), 0,
                         handoff_line(a->lease.slot), a->lease.generation + 1,
                         me.now()});
  }
  if (--a->remaining == 0) complete(a);
}

void BroadcastService::complete(Active* a) {
  const Pending& p = requests_[a->index];
  RequestOutcome& out = outcomes_[a->index];
  out.completion = chip_->now();

  const auto root_bytes =
      chip_->memory(p.req.root).host_bytes(p.offset, p.req.bytes);
  for (CoreId c = 0; c < config_.parties; ++c) {
    if (c == p.req.root) continue;
    const auto got = chip_->memory(c).host_bytes(p.offset, p.req.bytes);
    if (!std::equal(root_bytes.begin(), root_bytes.end(), got.begin())) {
      out.content_ok = false;
    }
  }

  if (trace_ != nullptr) {
    scc::JsonTraceCollector::Span span;
    span.name = "req " + std::to_string(out.id);
    span.category = "service";
    span.core = out.root;
    span.start = out.arrival;
    span.end = out.completion;
    span.args_json = "\"bytes\":" + std::to_string(out.bytes) +
                     ",\"slot\":" + std::to_string(out.slot) +
                     ",\"queue_ns\":" +
                     std::to_string((out.start - out.arrival) / sim::kNanosecond);
    trace_->add_span(std::move(span));
  }

  allocator_.release(a->lease);
  try_dispatch();
}

ServiceMetrics BroadcastService::run() {
  OCB_REQUIRE(!ran_, "BroadcastService::run() is single-use");
  OCB_REQUIRE(!requests_.empty(), "no requests submitted");
  ran_ = true;

  std::stable_sort(requests_.begin(), requests_.end(),
                   [](const Pending& a, const Pending& b) {
                     return a.req.arrival != b.req.arrival
                                ? a.req.arrival < b.req.arrival
                                : a.req.id < b.req.id;
                   });

  outcomes_.assign(requests_.size(), RequestOutcome{});
  for (std::size_t i = 0; i < requests_.size(); ++i) {
    const Request& r = requests_[i].req;
    outcomes_[i].id = r.id;
    outcomes_[i].root = r.root;
    outcomes_[i].bytes = r.bytes;
    outcomes_[i].arrival = r.arrival;
    fill_pattern(
        chip_->memory(r.root).host_bytes(requests_[i].offset, r.bytes),
        0x5eedf00dULL + static_cast<std::uint64_t>(r.id));
  }

  chip_->engine().spawn(dispatcher());
  const sim::RunResult rr = chip_->run();
  OCB_ENSURE(rr.completed(),
             "service deadlocked: " + std::to_string(rr.stalled_processes) +
                 " processes never returned");

  ServiceMetrics m;
  m.submitted = outcomes_.size();
  m.rejected = rejected_;
  m.max_queue_depth = max_queue_depth_;
  m.makespan = rr.end_time;
  m.engine_events = rr.events_processed;
  m.engine_max_queue_depth = rr.max_queue_depth;
  m.counters = rr.counters;
  for (const RequestOutcome& out : outcomes_) {
    if (out.rejected) continue;
    ++m.completed;
    m.delivered_bytes += out.bytes;
    m.content_ok = m.content_ok && out.content_ok;
    m.latency_ns.add((out.completion - out.arrival) / sim::kNanosecond);
    m.queue_wait_ns.add((out.start - out.arrival) / sim::kNanosecond);
    m.service_ns.add((out.completion - out.start) / sim::kNanosecond);
  }
  if (checker_ != nullptr) {
    m.race_violations = checker_->total_detected();
    // An OCB_CHECK-installed checker gates the run; config.check reports.
    OCB_ENSURE(config_.check || m.race_violations == 0, checker_->report());
  }
  return m;
}

ServiceMetrics run_service(const ServiceConfig& config,
                           const TrafficSpec& traffic) {
  BroadcastService service(config);
  service.submit(generate_requests(traffic));
  return service.run();
}

}  // namespace ocb::svc
