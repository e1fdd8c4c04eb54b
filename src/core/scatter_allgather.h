// RCCE_comm scatter-allgather broadcast (two-sided baseline, paper §5.3.2).
//
// Phase 1 (scatter): a binary recursive tree partitions the message into P
// contiguous slices of ceil(m/P) lines; the holder of a rank range sends
// the upper half-range's slices — one send — to the half's sub-root, so
// the root pushes out P-1 slices total along its log2(P) sends.
//
// Phase 2 (allgather): the Bruck-style shift ring the paper describes —
// P-1 rounds; in round t, rank r sends slice (r+t-1) mod P to rank r-1 and
// receives slice (r+t) mod P from rank r+1. Even ranks send-first, odd
// ranks receive-first, which breaks the rendezvous cycle on the ring.
//
// Empty tail slices (m not divisible by P) are skipped identically on both
// sides, so the pairwise send/recv matching is preserved for any size.
#pragma once

#include <memory>

#include "coll/collective.h"
#include "rma/twosided.h"
#include "scc/chip.h"

namespace ocb::core {

/// Honors parties only; the two-sided channel uses the default
/// rma::TwoSidedLayout (the whole MPB, RCCE's 251-line payload).
class ScatterAllgatherBcast final : public coll::Collective {
 public:
  ScatterAllgatherBcast(scc::SccChip& chip, const coll::Params& params = {});

  std::string name() const override { return "scatter-allgather"; }
  int parties() const override { return parties_; }
  sim::Task<void> run(scc::Core& self, CoreId root, std::size_t offset,
                      std::size_t bytes) override;

 private:
  int parties_;
  std::unique_ptr<rma::TwoSided> twosided_;
};

}  // namespace ocb::core
