// String-keyed collective registry.
//
// Decouples algorithm selection from the concrete classes: harnesses,
// examples, and benches name an algorithm ("ocbcast", "binomial", ...) and
// a Params bundle; the registry owns the wiring to the implementation's
// option struct. The shipped algorithms register themselves on first use
// (no static-initializer registrants — those get dead-stripped from static
// archives); projects can add their own with register_collective, which is
// how test-only variants (e.g. the deliberately racy mutation in
// tests/check_test.cpp) slot into name-driven harness grids.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "coll/collective.h"

namespace ocb::scc {
class SccChip;
}  // namespace ocb::scc

namespace ocb::coll {

/// Algorithm-agnostic tuning bundle; each factory picks what it honors.
struct Params {
  /// Participating cores 0..parties-1. The default is the SCC's 48; pass 0
  /// for "all cores of the chip" (make() resolves it from the chip's
  /// topology), or any explicit count up to chip.topology().num_cores().
  int parties = kNumCores;
  /// Tree fan-out (OC-Bcast family).
  int k = 7;
  /// Fan-out of the relay tree over die leaders ("hier-ocbcast" only).
  int die_k = 4;
  std::size_t chunk_lines = 96;
  bool double_buffering = true;
  bool leaf_direct_to_memory = false;
  bool sequential_notification = false;
  /// First MPB line of the instance's layout. The broadcast service leases
  /// disjoint line ranges (mem/mpb_slots.h) so concurrent collectives never
  /// overlap buffers; honored by "ocbcast", "ft-ocbcast", "onesided-sag".
  std::size_t mpb_base_line = 0;
  /// Caller-observed fault rate in [0,1]; "adaptive" uses it as the
  /// decision-table fault coordinate (0 = trust the fault-free bands).
  double observed_fault_rate = 0.0;
  /// Inline "ocb-tune-decision-v1" JSON overriding the baked-in decision
  /// table; empty selects DecisionTable::baked_in(). Only "adaptive" reads
  /// it (see coll/adaptive.h).
  std::string adaptive_table_json{};
};

using Factory =
    std::function<std::unique_ptr<Collective>(scc::SccChip&, const Params&)>;

/// Registers a factory under `name`. Registering a name that already
/// resolves (builtin or runtime) is a precondition error naming the
/// colliding algorithm — a silent last-wins overwrite once cost a test its
/// control arm — unless `allow_override` is passed, which documents the
/// intent to replace the existing factory (e.g. re-registering "adaptive"
/// with a freshly tuned decision table).
void register_collective(const std::string& name, Factory factory,
                         bool allow_override = false);

/// True when `name` resolves (builtin or registered).
bool registered(const std::string& name);

/// Registered names, sorted; builtins are "ocbcast", "binomial",
/// "scatter-allgather", "onesided-sag", "ft-ocbcast", "hier-ocbcast",
/// "adaptive".
std::vector<std::string> names();

/// Instantiates `name` over `chip`. Algorithms own their MPB layout and
/// protocol state starting at params.mpb_base_line; instances with
/// overlapping line ranges must not run concurrently (the broadcast
/// service guarantees disjoint ranges via MPB slot leases). Throws
/// ocb::PreconditionError naming the registered algorithms on an unknown
/// name.
std::unique_ptr<Collective> make(const std::string& name, scc::SccChip& chip,
                                 const Params& params = {});

}  // namespace ocb::coll
