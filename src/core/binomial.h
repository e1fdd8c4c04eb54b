// RCCE_comm binomial-tree broadcast (two-sided baseline, paper §5.2.2).
//
// Recursive halving over root-relative ranks: the root sends the whole
// message to the "far half", then both halves recurse — MPICH's binomial
// schedule. Every hop is a blocking two-sided send/recv pair through the
// receiver's MPB (rma::TwoSided, 251-line chunks), so each tree level pays
// C_put^mem + C_get^mem per chunk — the cost structure of Formula 14. A
// non-root sender forwards the message it just wrote to memory, so its put
// reads come from the (simulated) data cache, matching the paper's L1
// assumption.
#pragma once

#include <memory>

#include "coll/collective.h"
#include "rma/twosided.h"
#include "scc/chip.h"

namespace ocb::core {

/// Honors parties only; the two-sided channel uses the default
/// rma::TwoSidedLayout (the whole MPB, RCCE's 251-line payload).
class BinomialBcast final : public coll::Collective {
 public:
  BinomialBcast(scc::SccChip& chip, const coll::Params& params = {});

  std::string name() const override { return "binomial"; }
  int parties() const override { return parties_; }
  sim::Task<void> run(scc::Core& self, CoreId root, std::size_t offset,
                      std::size_t bytes) override;

 private:
  int parties_;
  std::unique_ptr<rma::TwoSided> twosided_;
};

}  // namespace ocb::core
