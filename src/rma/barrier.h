// Dissemination barrier on MPB flags.
//
// ceil(log2 P) rounds; in round r, ring-member i signals member
// (i + 2^r) mod P and waits for the matching signal from (i - 2^r) mod P.
// Flag values carry the barrier epoch and only grow, and a value may
// overstate the writer's progress without breaking correctness: seeing
// epoch >= e on round r's line still proves the round-r partner reached
// epoch e (it cannot write a later epoch without having passed e).
//
// Each member consumes `rounds()` consecutive MPB lines starting at
// `base_line`; every line has exactly one writer per round, so the
// cache-line atomicity guarantee is all the synchronization needed.
#pragma once

#include <vector>

#include "rma/flags.h"

namespace ocb::rma {

class FlagBarrier {
 public:
  /// Barrier over cores [0, parties), 0 meaning every core of the chip;
  /// flags at lines [base_line, base_line + rounds()) of each member's MPB.
  FlagBarrier(scc::SccChip& chip, std::size_t base_line, int parties = 0);

  /// Blocks `self` until all parties have arrived.
  sim::Task<void> wait(scc::Core& self);

  int rounds() const { return rounds_; }
  int parties() const { return parties_; }

  /// ceil(log2 parties): the rounds, and so the flag lines, of a barrier
  /// over `parties` cores.
  static int rounds_for(int parties);

 private:
  scc::SccChip* chip_;
  std::size_t base_line_;
  int parties_;
  int rounds_;
  std::vector<std::uint64_t> epoch_;  // per member
};

}  // namespace ocb::rma
