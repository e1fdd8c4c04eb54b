#include "common/rng.h"

#include <cstring>

namespace ocb {

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Xoshiro256::Xoshiro256(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& s : s_) s = sm.next();
}

std::uint64_t Xoshiro256::next() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Xoshiro256::next_below(std::uint64_t bound) {
  if (bound == 0) return 0;
  // Lemire's multiply-shift rejection method.
  std::uint64_t x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  std::uint64_t lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = -bound % bound;
    while (lo < threshold) {
      x = next();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Xoshiro256::next_double() {
  // 53 top bits -> [0,1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

void fill_pattern(std::span<std::byte> region, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::size_t i = 0;
  while (i + 8 <= region.size()) {
    const std::uint64_t v = rng.next();
    std::memcpy(region.data() + i, &v, 8);
    i += 8;
  }
  for (; i < region.size(); ++i) {
    region[i] = static_cast<std::byte>(rng.next() & 0xff);
  }
}

}  // namespace ocb
