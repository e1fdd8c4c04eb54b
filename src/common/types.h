// Fundamental SCC-wide types and constants shared by every module.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

namespace ocb {

/// Identifier of one of the 48 SCC cores (0..47). Two cores share a tile:
/// cores 2t and 2t+1 live on tile t.
using CoreId = int;

/// Number of cores on the SCC.
inline constexpr int kNumCores = 48;

/// The unit of data transmission on the SCC: one 32-byte cache line.
inline constexpr std::size_t kCacheLineBytes = 32;

/// Per-core Message Passing Buffer capacity: 8 KB = 256 cache lines.
/// (Each 16 KB tile MPB is split equally between its two cores.)
inline constexpr std::size_t kMpbBytesPerCore = 8 * 1024;
inline constexpr std::size_t kMpbCacheLines = kMpbBytesPerCore / kCacheLineBytes;

/// One 32-byte cache line of payload. Value type; copies are cheap and the
/// simulator moves data through MPBs and private memory in these units,
/// mirroring the SCC's packet granularity.
struct CacheLine {
  std::array<std::byte, kCacheLineBytes> bytes{};

  friend bool operator==(const CacheLine&, const CacheLine&) = default;
};

/// FNV-1a 64: the payload checksum of the fault-tolerant protocols. RMA
/// transfers fold it over the lines a core observes (rma/rma.h), so both
/// the per-line loop and scc::BulkOp need it below the rma layer.
inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/// Folds one cache line into a running FNV-1a 64 hash.
constexpr std::uint64_t fold_line(std::uint64_t h, const CacheLine& cl) {
  for (std::byte b : cl.bytes) {
    h ^= static_cast<std::uint64_t>(b);
    h *= kFnvPrime;
  }
  return h;
}

/// Number of cache lines needed to hold `bytes` bytes (ceiling division).
constexpr std::size_t cache_lines_for(std::size_t bytes) {
  return (bytes + kCacheLineBytes - 1) / kCacheLineBytes;
}

/// Copies up to kCacheLineBytes from `src` into a cache line, zero-padding
/// the tail. Used when staging a partial final line of a message.
inline CacheLine cache_line_from(std::span<const std::byte> src) {
  CacheLine cl{};
  const std::size_t n = src.size() < kCacheLineBytes ? src.size() : kCacheLineBytes;
  if (n > 0) std::memcpy(cl.bytes.data(), src.data(), n);
  return cl;
}

/// Copies up to kCacheLineBytes of a cache line into `dst` (bounded by
/// dst.size()).
inline void cache_line_to(const CacheLine& cl, std::span<std::byte> dst) {
  const std::size_t n = dst.size() < kCacheLineBytes ? dst.size() : kCacheLineBytes;
  if (n > 0) std::memcpy(dst.data(), cl.bytes.data(), n);
}

}  // namespace ocb
