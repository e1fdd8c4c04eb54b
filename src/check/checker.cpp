#include "check/checker.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "scc/chip.h"
#include "scc/trace_json.h"
#include "sim/time.h"

namespace ocb::check {

const char* violation_kind_name(Violation::Kind kind) {
  switch (kind) {
    case Violation::Kind::kPutPut: return "put/put";
    case Violation::Kind::kPutGet: return "put/get";
    case Violation::Kind::kGetPut: return "get/put";
  }
  return "?";
}

namespace {

/// Violations recorded in full; later ones are only counted.
constexpr std::size_t kMaxRecordedViolations = 64;

}  // namespace

RaceChecker::RaceChecker(scc::SccChip& chip)
    : chip_(&chip),
      n_(static_cast<std::size_t>(chip.num_cores())),
      clocks_(n_ * n_, 0),
      ipi_queues_(n_),
      lines_(n_ * kMpbCacheLines),
      crashed_(n_, false),
      optimistic_(n_, false) {
  // DJIT+ epoch initialization: each core's own component starts at 1, so a
  // fresh access (epoch 1) is NOT ordered before a core that has never
  // acquired from it (whose view of that component is still 0). All-zero
  // clocks would make every first access spuriously "ordered" (0 <= 0).
  for (std::size_t c = 0; c < n_; ++c) clocks_[c * n_ + c] = 1;
}

void RaceChecker::join(std::span<std::uint64_t> into,
                       std::span<const std::uint64_t> from) {
  for (std::size_t i = 0; i < from.size(); ++i) {
    into[i] = std::max(into[i], from[i]);
  }
}

bool RaceChecker::ordered_before(const Access& access, CoreId core) const {
  return access.epoch <= clocks_[static_cast<std::size_t>(core) * n_ +
                                 static_cast<std::size_t>(access.core)];
}

void RaceChecker::mark_sync(LineState& ls) {
  if (ls.sync) return;
  // The line is claimed as a flag: from here on the release/acquire
  // bookkeeping is its protocol, and any data accesses recorded before the
  // claim (e.g. polls that raced the claim in host order) are moot.
  ls.sync = true;
  ls.has_write = false;
  ls.reads.clear();
}

RaceChecker::Access RaceChecker::make_access(const scc::LineTxn& txn) {
  Access a;
  a.core = txn.core;
  a.epoch = clock_of(txn.core)[static_cast<std::size_t>(txn.core)];
  a.seq = next_seq_++;
  a.time = txn.now;
  a.op = txn.op;
  a.stage = chip_->core(txn.core).stage();
  return a;
}

void RaceChecker::record(Violation::Kind kind, CoreId owner, std::size_t line,
                         const Access& first, const Access& second) {
  ++total_detected_;
  if (violations_.size() >= kMaxRecordedViolations) return;
  Violation v;
  v.kind = kind;
  v.owner = owner;
  v.line = line;
  v.first_core = first.core;
  v.second_core = second.core;
  v.first_op = first.op;
  v.second_op = second.op;
  v.first_seq = first.seq;
  v.second_seq = second.seq;
  v.first_time = first.time;
  v.second_time = second.time;
  v.first_stage = first.stage;
  v.second_stage = second.stage;
  violations_.push_back(v);
}

void RaceChecker::on_read(const scc::LineTxn& txn, CacheLine& /*value*/) {
  if (txn.op != scc::TraceOp::kMpbRead) return;
  // Validated-read sections: the read may race by design (the protocol
  // discards any payload that fails its checksum), so it neither reports
  // against an unordered write nor joins the read set.
  if (optimistic_[static_cast<std::size_t>(txn.core)]) return;
  LineState& ls = line_state(txn.target, txn.index);
  if (ls.sync) return;
  const Access a = make_access(txn);
  if (ls.has_write && ls.last_write.core != a.core &&
      !crashed_[static_cast<std::size_t>(ls.last_write.core)] &&
      !ordered_before(ls.last_write, a.core)) {
    record(Violation::Kind::kPutGet, txn.target, txn.index, ls.last_write, a);
  }
  // Keep only reads this one does not dominate: a read ordered before `a`
  // is covered by `a` for every future conflict (happens-before is
  // transitive), and same-core reads are covered by program order. The
  // prune is eager because it is semantics-bearing — the surviving set is
  // exactly what a later write reports against — but with the inline
  // ReadSet the scan is allocation-free and usually 0-2 entries.
  ls.reads.erase_if([&](const Access& r) {
    return r.core == a.core || ordered_before(r, a.core);
  });
  ls.reads.push_back(a);
}

bool RaceChecker::on_write(const scc::LineTxn& txn, CacheLine& /*value*/) {
  if (txn.op != scc::TraceOp::kMpbWrite) return true;
  LineState& ls = line_state(txn.target, txn.index);
  if (ls.sync) return true;
  const Access a = make_access(txn);
  if (ls.has_write && ls.last_write.core != a.core &&
      !crashed_[static_cast<std::size_t>(ls.last_write.core)] &&
      !ordered_before(ls.last_write, a.core)) {
    record(Violation::Kind::kPutPut, txn.target, txn.index, ls.last_write, a);
  }
  for (const Access& r : ls.reads) {
    if (r.core == a.core) continue;
    if (crashed_[static_cast<std::size_t>(r.core)]) continue;
    if (ordered_before(r, a.core)) continue;
    record(Violation::Kind::kGetPut, txn.target, txn.index, r, a);
  }
  ls.last_write = a;
  ls.has_write = true;
  ls.reads.clear();
  return true;
}

void RaceChecker::on_sync(const scc::SyncEvent& event) {
  switch (event.op) {
    case scc::SyncOp::kHostInit: {
      LineState& ls = line_state(event.owner, event.line);
      mark_sync(ls);
      // Register the value with the host's (all-zero) clock so acquires of
      // the initial value find an entry and proceed without an edge.
      ls.releases.try_emplace(event.value, n_, 0);
      break;
    }
    case scc::SyncOp::kWaitBegin:
      mark_sync(line_state(event.owner, event.line));
      break;
    case scc::SyncOp::kRelease: {
      LineState& ls = line_state(event.owner, event.line);
      mark_sync(ls);
      const std::span<std::uint64_t> clock = clock_of(event.core);
      join(ls.releases.try_emplace(event.value, n_, 0).first->second, clock);
      ++clock[static_cast<std::size_t>(event.core)];
      break;
    }
    case scc::SyncOp::kAcquire: {
      LineState& ls = line_state(event.owner, event.line);
      mark_sync(ls);
      const auto it = ls.releases.find(event.value);
      if (it != ls.releases.end()) {
        join(clock_of(event.core), it->second);
      }
      break;
    }
    case scc::SyncOp::kIpiSend: {
      const std::span<std::uint64_t> clock = clock_of(event.core);
      ipi_queues_[static_cast<std::size_t>(event.owner)].emplace_back(
          clock.begin(), clock.end());
      ++clock[static_cast<std::size_t>(event.core)];
      break;
    }
    case scc::SyncOp::kIpiConsume: {
      auto& queue = ipi_queues_[static_cast<std::size_t>(event.core)];
      if (!queue.empty()) {
        join(clock_of(event.core), queue.front());
        queue.erase(queue.begin());
      }
      break;
    }
    case scc::SyncOp::kOptimisticBegin:
      optimistic_[static_cast<std::size_t>(event.core)] = true;
      break;
    case scc::SyncOp::kOptimisticEnd:
      optimistic_[static_cast<std::size_t>(event.core)] = false;
      break;
  }
}

void RaceChecker::on_crash(CoreId core, sim::Time /*now*/) {
  // Fail-stop: the dead core makes no further accesses, and the survivors
  // are entitled to recycle whatever it was touching. Its releases stay —
  // edges it published before dying were really delivered.
  crashed_[static_cast<std::size_t>(core)] = true;
  for (LineState& ls : lines_) {
    if (ls.has_write && ls.last_write.core == core) ls.has_write = false;
    ls.reads.erase_if([&](const Access& r) { return r.core == core; });
  }
}

std::string RaceChecker::report() const {
  std::ostringstream os;
  os << "ocb::check: " << total_detected_ << " race violation(s)";
  if (total_detected_ > violations_.size()) {
    os << " (" << violations_.size() << " recorded)";
  }
  os << "\n";
  for (const Violation& v : violations_) {
    os << "  " << violation_kind_name(v.kind) << " on mpb[" << v.owner << "]:"
       << v.line << "\n"
       << "    first : core " << v.first_core << " "
       << scc::trace_op_name(v.first_op) << " seq=" << v.first_seq << " t="
       << sim::to_us(v.first_time) << "us";
    if (v.first_stage[0] != '\0') os << " stage=" << v.first_stage;
    os << "\n"
       << "    second: core " << v.second_core << " "
       << scc::trace_op_name(v.second_op) << " seq=" << v.second_seq << " t="
       << sim::to_us(v.second_time) << "us";
    if (v.second_stage[0] != '\0') os << " stage=" << v.second_stage;
    os << "\n";
  }
  return os.str();
}

void RaceChecker::add_flows_to(scc::JsonTraceCollector& trace) const {
  for (const Violation& v : violations_) {
    std::ostringstream name;
    name << "race:" << violation_kind_name(v.kind) << " mpb[" << v.owner
         << "]:" << v.line;
    trace.add_flow({name.str(), v.first_core, v.first_time, v.second_core,
                    v.second_time});
  }
}

bool requested_by_env() {
  const char* v = std::getenv("OCB_CHECK");
  return v != nullptr && v[0] != '\0' && std::strcmp(v, "0") != 0;
}

}  // namespace ocb::check
