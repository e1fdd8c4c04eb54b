// SccChip: the assembled machine (48-core SCC by default).
//
// Owns the event engine, the mesh, per-core MPB storage and private
// memories, per-tile MPB ports, and per-controller banks; creates the Core
// objects and spawns application coroutines onto them. The floorplan comes
// from config().topology (noc/topology.h): the default is the paper's SCC,
// and any N×M mesh or multi-die grid builds the same way with more tiles.
// It also keeps the one observer chain (scc/observer.h), which every RMA
// path, coalesced or not, feeds the same per-line stream.
//
// Typical use:
//
//   scc::SccChip chip;                       // default = paper's SCC
//   for (CoreId c = 0; c < chip.num_cores(); ++c)
//     chip.spawn(c, [&](scc::Core& core) { return my_program(core); });
//   auto result = chip.run();                // drains all events
//
// The chip is single-threaded and deterministic; run() may be called
// repeatedly as more work is spawned.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <vector>

#include "mem/mpb.h"
#include "mem/private_memory.h"
#include "noc/mesh.h"
#include "scc/config.h"
#include "scc/core.h"
#include "scc/observer.h"
#include "scc/trace.h"
#include "sim/counters.h"
#include "sim/engine.h"

namespace ocb::scc {

class BulkOp;

class SccChip {
 public:
  explicit SccChip(const SccConfig& config = SccConfig{});

  /// Convenience: a chip over `topology` with otherwise-default (or given)
  /// timing parameters.
  explicit SccChip(const noc::Topology& topology,
                   SccConfig config = SccConfig{});
  ~SccChip();

  SccChip(const SccChip&) = delete;
  SccChip& operator=(const SccChip&) = delete;

  const SccConfig& config() const { return config_; }
  const noc::Topology& topology() const { return config_.topology; }
  int num_cores() const { return config_.topology.num_cores(); }
  /// The one party-count check, made by every protocol object at
  /// construction: 0 is every core, else [minimum, num_cores()].
  int resolve_parties(int requested, int minimum = 2) const;
  sim::Engine& engine() { return engine_; }
  sim::Time now() const { return engine_.now(); }
  noc::Mesh& mesh() { return *mesh_; }

  Core& core(CoreId id);
  mem::MpbStorage& mpb(CoreId id);
  mem::PrivateMemory& memory(CoreId id);
  sim::ArbitratedServer& mpb_port(int tile_index);
  sim::ArbitratedServer& mc_port(int mc_index);

  /// Spawns `program(core(id))` as a simulated process starting now.
  /// The callable is kept alive for the whole run (lambda captures are
  /// safe).
  void spawn(CoreId id, std::function<sim::Task<void>(Core&)> program);

  /// Runs the event loop to completion; see sim::Engine::run.
  sim::RunResult run(std::uint64_t max_events = UINT64_MAX);

  // --- instrumentation: the TransactionObserver chain ---------------------

  /// Appends an observer to the chain (consulted in installation order at
  /// every line transaction; see scc/observer.h). Non-owning — the observer
  /// must outlive the simulation. Installing an observer that is not
  /// bulk-capable (supports_bulk() == false, the default) disables the
  /// coalesced RMA fast path; bulk-capable chains keep it.
  void add_observer(TransactionObserver* observer);

  /// Removes a previously installed observer (no-op if absent).
  void remove_observer(TransactionObserver* observer);

  /// True when at least one observer is installed (per-transaction dispatch
  /// and the pre-transaction gate are active).
  bool observing() const { return !observers_.empty(); }

  /// Installs (or clears, with an empty function) a per-transaction trace
  /// sink; sugar for an internal observer that forwards on_complete events
  /// (see scc/trace.h). Kept for the common "just give me the events" case.
  /// The sink observer is bulk-capable: coalesced ops deliver the same
  /// per-line event stream as the per-line path.
  void set_trace_sink(TraceSink sink);
  bool tracing() const { return static_cast<bool>(trace_observer_.sink); }

  // Chain dispatch, called by Core and BulkOp (and the rma sync layer for
  // observe_sync). All loops are over the installed observers in order.
  bool observer_crashed(CoreId core, sim::Time now);
  sim::Duration observer_stall(CoreId core, sim::Time now);
  void observe_read(const LineTxn& txn, CacheLine& value) {
    for (TransactionObserver* o : observers_) o->on_read(txn, value);
  }
  bool observe_write(const LineTxn& txn, CacheLine& value) {
    bool commit = true;
    for (TransactionObserver* o : observers_) {
      commit = o->on_write(txn, value) && commit;
    }
    return commit;
  }
  void observe_complete(const TraceEvent& event) {
    for (TransactionObserver* o : observers_) o->on_complete(event);
  }
  void observe_sync(const SyncEvent& event) {
    for (TransactionObserver* o : observers_) o->on_sync(event);
  }

  /// True when multi-line RMA ops may take the coalesced fast path (see
  /// DESIGN.md "Fast-path transaction coalescing" for the bypass
  /// conditions). Requires config.coalescing, zero jitter, and every
  /// installed observer to be bulk-capable (supports_bulk()); re-evaluated
  /// whenever the observer chain changes.
  bool coalescing_active() const { return coalescing_active_; }

  /// Acquires an idle fast-path engine for one multi-line RMA op, or
  /// nullptr when the op must take the per-line reference path instead:
  /// coalescing off, some observer's bulk window not clear for `core`
  /// (a pending fault-plan stall/crash), or every pool slot busy (svc
  /// multiplexing more concurrent ops onto the core than kBulkPoolSize).
  /// `lines` is used only for fallback accounting.
  BulkOp* try_acquire_bulk(CoreId core, std::size_t lines);

  /// Fast-path engines kept per core; svc-multiplexed cores run up to
  /// this many coalesced ops concurrently before spilling per-line.
  static constexpr std::size_t kBulkPoolSize = 4;

  /// AND over the chain's per-op gate promises for `core` at now().
  bool bulk_window_clear(CoreId core);

  /// Bulk-path counters (sim::Counters): BulkOp counts each launch here.
  void note_bulk_op(bool observed, bool quiescent) {
    ++counters_.bulk_ops;
    if (observed) ++counters_.bulk_ops_observed;
    if (quiescent) ++counters_.bulk_quiescent_ops;
  }

 private:
  /// The set_trace_sink sugar: a chain member owned by the chip. Passive,
  /// so it keeps the coalesced fast path on.
  struct TraceSinkObserver final : TransactionObserver {
    TraceSink sink;
    bool supports_bulk() const override { return true; }
    void on_complete(const TraceEvent& event) override { sink(event); }
  };

  static sim::Task<void> invoke_program(
      std::function<sim::Task<void>(Core&)> program, Core& core);
  static std::string describe_core(void* core);

  /// Recomputes the coalescing flag from the current chain (called on
  /// every add/remove).
  void refresh_coalescing();

  SccConfig config_;
  sim::Engine engine_;
  std::unique_ptr<noc::Mesh> mesh_;
  // Sized from config_.topology at construction.
  std::vector<std::unique_ptr<mem::MpbStorage>> mpbs_;
  std::vector<std::unique_ptr<mem::PrivateMemory>> memories_;
  std::vector<std::unique_ptr<sim::ArbitratedServer>> mpb_ports_;
  std::vector<std::unique_ptr<sim::ArbitratedServer>> mc_ports_;
  std::vector<std::unique_ptr<Core>> cores_;
  std::vector<std::vector<std::unique_ptr<BulkOp>>> bulk_pools_;
  std::vector<TransactionObserver*> observers_;
  /// Lifetime bulk-path counters; run() reports per-run deltas.
  sim::Counters counters_;
  TraceSinkObserver trace_observer_;
  std::vector<bool> crash_notified_;
  bool coalescing_active_ = false;
};

}  // namespace ocb::scc
