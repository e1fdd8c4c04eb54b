// ocb::check — a happens-before race checker for one-sided RMA.
//
// RaceChecker is a passive scc::TransactionObserver that watches every MPB
// cache-line transaction plus the flag semantics the synchronization layer
// reports via on_sync (rma/flags.h), and reconstructs the happens-before
// order with per-core vector clocks (DJIT+-style epochs):
//
//   * a flag RELEASE of value v joins the writer's clock into the line's
//     per-value release record, then advances the writer's own component;
//   * a flag ACQUIRE of value v joins that record into the reader's clock —
//     keyed by VALUE, so a suppressed or corrupted flag write (fault/) never
//     donates an ordering edge it did not deliver;
//   * an interrupt send queues the sender's clock at the target (FIFO, since
//     interrupts are counted, not coalesced); a consume dequeues and joins.
//
// Any two transactions on the same MPB line, from different cores, at least
// one a write, with neither ordered before the other, is reported as a
// violation (put/put, put/get, or get/put) with full provenance: cores,
// ops, event sequence numbers, simulated times, and the collective stage
// each core had announced (scc::Core::set_stage). Lines the sync layer has
// claimed as flags are exempt from the data checks (their protocol is the
// release/acquire bookkeeping itself), and a crashed core's recorded
// accesses are expunged — under the fail-stop model the survivors are
// allowed to reuse lines a dead core was touching.
//
// Private-memory transactions are ignored by construction: each core's
// off-chip private memory is a single-core address space (mem/), so program
// order alone orders every access to it.
//
//   check::RaceChecker checker(chip);
//   chip.add_observer(&checker);
//   ... run ...
//   if (!checker.violations().empty()) std::cerr << checker.report();
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "scc/observer.h"

namespace ocb::scc {
class SccChip;
class JsonTraceCollector;
}  // namespace ocb::scc

namespace ocb::check {

/// One conflicting unsynchronized pair. `first` is the earlier access in
/// simulated time, `second` the one whose arrival exposed the race.
struct Violation {
  enum class Kind : std::uint8_t { kPutPut, kPutGet, kGetPut };
  Kind kind;
  CoreId owner;        ///< MPB owner of the contested line
  std::size_t line;    ///< contested line index
  CoreId first_core;
  CoreId second_core;
  scc::TraceOp first_op;
  scc::TraceOp second_op;
  std::uint64_t first_seq;   ///< checker event sequence numbers
  std::uint64_t second_seq;
  sim::Time first_time;
  sim::Time second_time;
  const char* first_stage;   ///< scc::Core::stage() at each access
  const char* second_stage;
};

const char* violation_kind_name(Violation::Kind kind);

class RaceChecker final : public scc::TransactionObserver {
 public:
  explicit RaceChecker(scc::SccChip& chip);

  /// Violations recorded so far (the first 64; later races are still
  /// detected and counted in total_detected()).
  const std::vector<Violation>& violations() const { return violations_; }
  /// Total races detected, including ones past the recording cap.
  std::uint64_t total_detected() const { return total_detected_; }

  /// Human-readable multi-line summary of every recorded violation.
  std::string report() const;

  /// Adds one flow arrow per recorded violation to a trace collector, so
  /// the race shows up as a cross-core link in chrome://tracing.
  void add_flows_to(scc::JsonTraceCollector& trace) const;

  // scc::TransactionObserver
  void on_read(const scc::LineTxn& txn, CacheLine& value) override;
  bool on_write(const scc::LineTxn& txn, CacheLine& value) override;
  void on_sync(const scc::SyncEvent& event) override;
  void on_crash(CoreId core, sim::Time now) override;

  // Passive: it never mutates a value, vetoes a commit, or gates a core,
  // and reads time only from the txn, so the coalesced fast path stays on
  // (scc/observer.h).
  bool supports_bulk() const override { return true; }

 private:
  /// One component per core of the chip.
  using VectorClock = std::vector<std::uint64_t>;

  struct Access {
    CoreId core = -1;
    std::uint64_t epoch = 0;  ///< the core's own clock component at access
    std::uint64_t seq = 0;
    sim::Time time = 0;
    scc::TraceOp op{};
    const char* stage = "";
  };

  /// Read sets are almost always tiny — pruning keeps only concurrent
  /// unordered readers — so they live inline until they outgrow kInline,
  /// then spill to the heap (and shrink back when pruned). Preserves
  /// insertion order exactly like the std::vector it replaces.
  class ReadSet {
   public:
    const Access* begin() const {
      return spilled_ ? spill_.data() : inline_.data();
    }
    const Access* end() const { return begin() + size_; }
    bool empty() const { return size_ == 0; }
    void push_back(const Access& a) {
      if (!spilled_) {
        if (size_ < kInline) {
          inline_[size_++] = a;
          return;
        }
        spill_.assign(inline_.begin(), inline_.end());
        spilled_ = true;
      }
      spill_.push_back(a);
      ++size_;
    }
    void clear() {
      size_ = 0;
      if (spilled_) {
        spill_.clear();
        spilled_ = false;
      }
    }
    template <class Pred>
    void erase_if(Pred pred) {
      Access* first = spilled_ ? spill_.data() : inline_.data();
      Access* kept = std::remove_if(first, first + size_, pred);
      size_ = static_cast<std::size_t>(kept - first);
      if (spilled_) {
        spill_.resize(size_);
        if (size_ <= kInline) {
          std::copy(spill_.begin(), spill_.end(), inline_.begin());
          spill_.clear();
          spilled_ = false;
        }
      }
    }

   private:
    static constexpr std::size_t kInline = 4;
    std::array<Access, kInline> inline_{};
    std::vector<Access> spill_;
    std::size_t size_ = 0;
    bool spilled_ = false;
  };

  struct LineState {
    bool sync = false;        ///< claimed as a flag line; data checks off
    bool has_write = false;
    Access last_write;
    ReadSet reads;
    /// Per published value: join of the clocks of every release of it.
    std::unordered_map<std::uint64_t, VectorClock> releases;
  };

  static void join(std::span<std::uint64_t> into,
                   std::span<const std::uint64_t> from);
  /// Core `c`'s vector clock: row c of clocks_.
  std::span<std::uint64_t> clock_of(CoreId c) {
    return {clocks_.data() + static_cast<std::size_t>(c) * n_, n_};
  }
  /// True when `access` happens-before the current instant on `core`.
  bool ordered_before(const Access& access, CoreId core) const;

  LineState& line_state(CoreId owner, std::size_t line) {
    return lines_[static_cast<std::size_t>(owner) * kMpbCacheLines + line];
  }
  void mark_sync(LineState& ls);
  void record(Violation::Kind kind, CoreId owner, std::size_t line,
              const Access& first, const Access& second);
  Access make_access(const scc::LineTxn& txn);

  scc::SccChip* chip_;
  std::size_t n_;  ///< cores of the chip
  /// n_ x n_, row-major: row c is core c's clock.
  std::vector<std::uint64_t> clocks_;
  /// FIFO of sender clocks per interrupt target (sends precede consumes).
  std::vector<std::vector<VectorClock>> ipi_queues_;
  /// Direct-indexed [owner * kMpbCacheLines + line]: the per-access hash
  /// lookup was the hottest single cost in checked runs.
  std::vector<LineState> lines_;
  std::vector<char> crashed_;
  /// Inside a kOptimisticBegin/End section: the core's reads are
  /// protocol-validated (seqlock-style) and exempt from data checks.
  std::vector<char> optimistic_;
  std::vector<Violation> violations_;
  std::uint64_t total_detected_ = 0;
  std::uint64_t next_seq_ = 0;
};

/// True when the OCB_CHECK environment variable asks for checked runs: set,
/// non-empty and not "0". The harness and the service then install a
/// RaceChecker on their chips.
bool requested_by_env();

}  // namespace ocb::check
