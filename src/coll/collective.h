// The collective interface.
//
// MPI-style contract: every participating core calls run() with matching
// arguments (same root, same byte count). For a broadcast the root's
// private memory at [offset, offset+bytes) holds the message and every
// other core's same region receives it; run() returns (per core) when that
// core is done per the algorithm's semantics — the paper's latency is the
// time at which the *last* core returns.
//
// Concrete algorithms (core/) implement this interface, take their whole
// configuration as one Params, and register a factory under a string key in
// coll/registry.h; callers select by name:
//
//   auto bcast = coll::make("ocbcast", chip, {.k = 7});
#pragma once

#include <cstddef>
#include <string>

#include "common/types.h"
#include "sim/task.h"

namespace ocb::scc {
class Core;
class SccChip;
}  // namespace ocb::scc

namespace ocb::coll {

/// The one configuration of every collective; each algorithm reads the
/// fields it honors and ignores the rest.
struct Params {
  /// Participating cores 0..parties-1; the default 0 is every core of the
  /// chip. Each algorithm resolves it at construction
  /// (scc::SccChip::resolve_parties) and reports it as Collective::parties().
  int parties = 0;
  /// Tree fan-out (OC-Bcast family).
  int k = 7;
  /// Fan-out of the relay tree over die leaders ("hier-ocbcast" only; it
  /// adds die_k done lines to the layout).
  int die_k = 4;
  /// M_oc, the pipelining chunk (OC-Bcast family).
  std::size_t chunk_lines = 96;
  /// §4.2; off = one buffer of chunk_lines (ablation).
  bool double_buffering = true;
  /// §5.4: leaves get straight into private memory ("ocbcast" and
  /// "hier-ocbcast", which share one chunk loop; "ft-ocbcast" always does
  /// this).
  bool leaf_direct_to_memory = false;
  /// Ablation of the binary notification tree: the parent sets all k
  /// children's notifyFlags itself, sequentially (what §4.1 argues
  /// against). "ocbcast" only; "hier-ocbcast" always notifies this way.
  bool sequential_notification = false;
  /// First MPB line of the instance's layout. The broadcast service leases
  /// disjoint line ranges (mem/mpb_slots.h) so concurrent collectives never
  /// overlap buffers; honored by the OC-Bcast family and "onesided-sag".
  std::size_t mpb_base_line = 0;
  /// Caller-observed fault rate in [0,1]; "adaptive" uses it as the
  /// decision-table fault coordinate (0 = trust the fault-free bands).
  double observed_fault_rate = 0.0;
  /// Inline "ocb-tune-decision-v1" JSON overriding the baked-in decision
  /// table; empty selects DecisionTable::baked_in(). Only "adaptive" reads
  /// it (see coll/adaptive.h).
  std::string adaptive_table_json{};

  bool operator==(const Params&) const = default;
};

/// `params` with parties resolved by scc::SccChip::resolve_parties.
Params resolved(Params params, const scc::SccChip& chip);

class Collective {
 public:
  virtual ~Collective() = default;

  /// Human-readable name ("oc-bcast k=7", "binomial", ...).
  virtual std::string name() const = 0;

  /// Number of participating cores (ids 0..parties-1), resolved: never 0.
  virtual int parties() const = 0;

  /// The collective call; invoke once per participating core per round.
  virtual sim::Task<void> run(scc::Core& self, CoreId root, std::size_t offset,
                              std::size_t bytes) = 0;
};

}  // namespace ocb::coll
