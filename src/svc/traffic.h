// Deterministic broadcast-request traffic generation.
//
// The broadcast service (svc/service.h) consumes a stream of timestamped
// requests; this module synthesizes such streams from a compact spec:
// Poisson-like arrivals (memoryless inter-arrival gaps), a weighted mix of
// message sizes, and roots drawn uniformly (or pinned). Everything is
// driven by one seed through the repo's own Xoshiro256, and the gap
// sampler is pure integer arithmetic (a discretized geometric variate, the
// memoryless distribution on ticks — no libm), so a spec maps to a
// bit-identical request stream on every platform.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "sim/time.h"

namespace ocb::svc {

/// One entry of the message-size mix. Integer weights keep class selection
/// exact: a class is drawn with probability weight / sum(weights).
struct SizeClass {
  std::size_t bytes = kCacheLineBytes;
  std::uint32_t weight = 1;
};

struct TrafficSpec {
  int requests = 32;
  /// Mean inter-arrival gap. Arrivals are memoryless: each gap is a
  /// geometric number of fixed-size ticks (tick = mean/256), the discrete
  /// analogue of an exponential gap, so the stream is Poisson-like with
  /// rate 1/mean_gap_ns.
  std::uint64_t mean_gap_ns = 50'000;
  std::vector<SizeClass> sizes{{kCacheLineBytes, 1}, {4096, 1}, {32768, 1}};
  /// Roots are uniform over [0, parties) unless fixed_root >= 0 pins them.
  /// The generator has no chip: on a chip other than the SCC, set it.
  int parties = kNumCores;
  CoreId fixed_root = -1;
  std::uint64_t seed = 1;
};

/// One broadcast request: at `arrival`, core `root` wants to broadcast
/// `bytes` of its private memory to every participant.
struct Request {
  int id = -1;  ///< dense [0, requests), in arrival order
  sim::Time arrival = 0;
  CoreId root = 0;
  std::size_t bytes = 0;
};

/// Expands a spec into its request stream, sorted by arrival time (a
/// zero-tick gap lands two requests on the same instant; ids order them).
std::vector<Request> generate_requests(const TrafficSpec& spec);

}  // namespace ocb::svc
