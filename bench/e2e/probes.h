// Host-time microprobes of single simulator layers (sim, noc, scc, rma).
//
// They do not depend on the workload: each builds its own engine or chip,
// drives one layer's public entry point in a tight loop, and reports the
// median over three repetitions. They run only in traced runs and never
// count towards an end-to-end metric.
#pragma once

#include "workloads.h"

namespace ocb::e2e {

/// All probe metrics; `scale` shrinks every loop (1 = full size, about
/// 6 s on a 4-core x86 host).
Metrics run_probes(double scale);

}  // namespace ocb::e2e
