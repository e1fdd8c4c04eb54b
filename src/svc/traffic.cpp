#include "svc/traffic.h"

#include "common/require.h"
#include "common/rng.h"

namespace ocb::svc {

namespace {

/// Geometric count of `tick`-sized failures before a success of
/// probability 1/mean_ticks — the memoryless discrete gap. Mean is
/// (mean_ticks - 1) ticks, within one tick of the spec's mean.
std::uint64_t sample_gap_ticks(Xoshiro256& rng, std::uint64_t mean_ticks) {
  std::uint64_t ticks = 0;
  while (rng.next_below(mean_ticks) != 0) ++ticks;
  return ticks;
}

}  // namespace

std::vector<Request> generate_requests(const TrafficSpec& spec) {
  OCB_REQUIRE(spec.requests >= 1, "traffic spec needs at least one request");
  OCB_REQUIRE(spec.mean_gap_ns >= 1, "mean inter-arrival gap must be positive");
  OCB_REQUIRE(!spec.sizes.empty(), "traffic spec needs at least one size class");
  OCB_REQUIRE(spec.parties >= 2, "party count out of range");
  OCB_REQUIRE(spec.fixed_root < spec.parties, "fixed root is not a participant");
  std::uint64_t weight_total = 0;
  for (const SizeClass& sc : spec.sizes) {
    OCB_REQUIRE(sc.bytes > 0, "size class with empty message");
    OCB_REQUIRE(sc.weight > 0, "size class with zero weight");
    weight_total += sc.weight;
  }

  // 256 ticks per mean gap: the sampler costs a constant ~256 draws per
  // request regardless of the configured rate.
  const std::uint64_t tick_ns = spec.mean_gap_ns >= 256 ? spec.mean_gap_ns / 256 : 1;
  const std::uint64_t mean_ticks = (spec.mean_gap_ns + tick_ns - 1) / tick_ns;

  Xoshiro256 rng(spec.seed);
  std::vector<Request> out;
  out.reserve(static_cast<std::size_t>(spec.requests));
  sim::Time at = 0;
  for (int i = 0; i < spec.requests; ++i) {
    if (i > 0) {
      at += sample_gap_ticks(rng, mean_ticks) * sim::from_ns(tick_ns);
    }
    Request r;
    r.id = i;
    r.arrival = at;
    r.root = spec.fixed_root >= 0
                 ? spec.fixed_root
                 : static_cast<CoreId>(rng.next_below(
                       static_cast<std::uint64_t>(spec.parties)));
    std::uint64_t pick = rng.next_below(weight_total);
    for (const SizeClass& sc : spec.sizes) {
      if (pick < sc.weight) {
        r.bytes = sc.bytes;
        break;
      }
      pick -= sc.weight;
    }
    out.push_back(r);
  }
  return out;
}

}  // namespace ocb::svc
