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

  // Bulk-capable (scc/observer.h): corruption and stuck lines act through
  // on_read/on_write, which every path delivers per line, and read time
  // only from the txn. Cores with a planned stall or crash report their
  // bulk window unclear, which routes exactly the perturbed cores through
  // the gated per-line path.
  bool supports_bulk() const override { return true; }
  bool bulk_window_clear(CoreId core, sim::Time /*now*/) override {
    return !timing_faults_[static_cast<std::size_t>(core)];
  }

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
};

}  // namespace ocb::fault
