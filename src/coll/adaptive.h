// coll::AdaptiveBcast — the online half of the design-space autotuner.
//
// A Collective that owns no broadcast protocol of its own: each run() call
// looks up (message size, parties, observed fault rate) in a DecisionTable
// and delegates to the best registered algorithm for that band, with the
// tuning knobs (k, chunk_lines, double_buffering) the offline explorer
// found best there. Switching delegates is quiesced: OC-Bcast-family flags
// are absolute monotone sequence numbers, so a new instance must never see
// a predecessor's MPB state — the switch waits until no call is in flight,
// then scrubs every core's MPB before instantiating the replacement.
//
// A registry builtin under the name "adaptive".
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "coll/decision.h"
#include "coll/registry.h"
#include "sim/condition.h"

namespace ocb::scc {
class SccChip;
}  // namespace ocb::scc

namespace ocb::coll {

class AdaptiveBcast final : public Collective {
 public:
  /// One per-round record of what the table picked (pushed by the root's
  /// run() call) — lets tests and benches audit the selection stream.
  struct Selection {
    std::size_t lines = 0;
    Choice choice;
  };

  /// Requires params.mpb_base_line == 0
  /// — the adaptive layer re-derives chunk shapes per band and therefore
  /// owns the whole MPB; it cannot live inside a service slot lease. The
  /// table is params.adaptive_table_json, or the baked-in one when empty.
  AdaptiveBcast(scc::SccChip& chip, const Params& params);

  std::string name() const override { return "adaptive"; }
  int parties() const override { return params_.parties; }

  sim::Task<void> run(scc::Core& self, CoreId root, std::size_t offset,
                      std::size_t bytes) override;

  const DecisionTable& table() const { return table_; }
  const std::vector<Selection>& selections() const { return selections_; }

 private:
  scc::SccChip* chip_;
  Params params_;
  DecisionTable table_;
  std::unique_ptr<Collective> delegate_;
  std::string delegate_key_;
  int active_ = 0;          ///< run() calls inside the current delegate
  sim::Trigger quiesce_;    ///< fired when active_ drops to 0 or on switch
  std::vector<Selection> selections_;
};

}  // namespace ocb::coll
