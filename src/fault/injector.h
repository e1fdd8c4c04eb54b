// FaultInjector: the canonical fault-injecting scc::TransactionObserver.
//
// Replays an ocb::fault::FaultPlan against a simulation. All randomness
// comes from a private xoshiro256** stream seeded from the plan, consulted
// in the (deterministic) order transactions execute — so an identical plan
// against an identical program injects the identical faults, transaction
// for transaction, and the whole run is bit-reproducible.
//
//   fault::FaultPlan plan;
//   plan.seed = 42;
//   plan.rates.mpb_read = 1e-5;
//   plan.crashes.push_back({.core = 5, .at = sim::us(30)});
//   fault::FaultInjector injector(chip, plan);
//   chip.add_observer(&injector);         // non-owning; outlive the run
#pragma once

#include <vector>

#include "common/rng.h"
#include "fault/plan.h"
#include "scc/observer.h"

namespace ocb::scc {
class SccChip;
}  // namespace ocb::scc

namespace ocb::fault {

class FaultInjector final : public scc::TransactionObserver {
 public:
  /// Replays `plan` on `chip`, whose cores bound the ids the plan names.
  FaultInjector(const scc::SccChip& chip, FaultPlan plan);

  const FaultPlan& plan() const { return plan_; }
  const InjectionStats& stats() const { return stats_; }

  // scc::TransactionObserver
  bool crashed(CoreId core, sim::Time now) override;
  sim::Duration stall(CoreId core, sim::Time now) override;
  void on_read(const scc::LineTxn& txn, CacheLine& value) override;
  bool on_write(const scc::LineTxn& txn, CacheLine& value) override;

  // Capability model (scc/observer.h): the injector is bulk-capable. Its
  // per-line needs are pre-sampled from the plan at construction — a plan
  // with no read (write) corruption rates never draws on reads (writes),
  // so skipping those callbacks on the quiescent path leaves the rng
  // stream untouched; any nonzero rate forces per-line replay so draws
  // happen one per at-risk transaction in exact reference order. Cores
  // with a planned stall or crash report their bulk window unclear, which
  // routes exactly the perturbed cores through the gated per-line path.
  bool supports_bulk() const override { return true; }
  bool needs_per_line_reads() const override { return perline_reads_; }
  bool needs_per_line_writes() const override { return perline_writes_; }
  bool needs_per_line_completes() const override { return false; }
  bool bulk_window_clear(CoreId core, sim::Time /*now*/) override {
    return !timing_faults_[static_cast<std::size_t>(core)];
  }
  /// Reached only when every per-line need is false (zero rates, no stuck
  /// lines): a per-line replay would draw and mutate nothing, so the
  /// batched notification is deliberately a no-op.
  void on_bulk(const scc::BulkTxn& /*txn*/) override {}

 private:
  double rate_for(scc::TraceOp op) const;
  /// Flips one random bit of one random byte (never a no-op).
  void corrupt(CacheLine& value);

  FaultPlan plan_;
  Xoshiro256 rng_;
  InjectionStats stats_;
  std::vector<bool> stall_applied_;    // parallel to plan_.stalls
  std::vector<bool> crash_reported_;   // parallel to plan_.crashes
  // Any planned stall/crash, one entry per core of the chip.
  std::vector<bool> timing_faults_;
  bool perline_reads_ = false;   // any read-corruption rate > 0
  bool perline_writes_ = false;  // any write rate > 0 or stuck lines
};

}  // namespace ocb::fault
