// Deterministic pseudo-random number generation.
//
// The simulator must be exactly reproducible across runs and platforms, so
// we ship our own small generators instead of relying on implementation-
// defined std::default_random_engine behaviour: SplitMix64 for seeding and
// xoshiro256** for the stream (public-domain algorithms by Blackman/Vigna).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace ocb {

/// SplitMix64: used to expand a single user seed into generator state.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256**: fast, high-quality 64-bit generator used for payload
/// generation and optional timing jitter. Deterministic given the seed.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256(std::uint64_t seed);

  std::uint64_t next();

  /// Uniform in [0, bound) without modulo bias (Lemire's method).
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform double in [0, 1).
  double next_double();

  // UniformRandomBitGenerator interface, so <algorithm> shuffles work.
  std::uint64_t operator()() { return next(); }
  static constexpr std::uint64_t min() { return 0; }
  static constexpr std::uint64_t max() { return ~0ULL; }

 private:
  std::uint64_t s_[4];
};

/// Fills `region` with the seeded payload pattern of the harness, the fault
/// sweeps and the service: one xoshiro256** draw per 8 bytes (host byte
/// order), then one draw per tail byte.
void fill_pattern(std::span<std::byte> region, std::uint64_t seed);

}  // namespace ocb
