// String-keyed collective registry.
//
// The one way to pick a broadcast: harnesses, examples, and benches name an
// algorithm ("ocbcast", "binomial", ...) and pass a Params bundle
// (coll/collective.h), which every implementation's constructor takes
// as-is. The shipped algorithms register themselves on first use
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

/// Instantiates `name` over `chip` with `params` as given; each algorithm
/// resolves params.parties against the chip. Algorithms own their MPB
/// layout and protocol state starting at params.mpb_base_line; instances
/// with overlapping line ranges must not run concurrently (the broadcast
/// service guarantees disjoint ranges via MPB slot leases). Throws
/// ocb::PreconditionError naming the registered algorithms on an unknown
/// name.
std::unique_ptr<Collective> make(const std::string& name, scc::SccChip& chip,
                                 const Params& params = {});

}  // namespace ocb::coll
