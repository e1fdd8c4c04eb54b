// Parallel sweep harness.
//
// Simulator runs are single-threaded and deterministic, but a *sweep*
// (many seeds, many jitter combos, many what-if configs) is embarrassingly
// parallel: every replication builds its own SccChip, so replications share
// no mutable state (the coroutine frame pool is thread_local). parallel_map
// fans replications out over a std::thread pool and returns results in
// index order, which makes a parallel sweep bit-identical to the serial
// one — the merge order, and therefore every aggregate, is the task index
// order, never the completion order.
//
// Thread count comes from OCB_SWEEP_THREADS, else
// std::thread::hardware_concurrency(). Unset and "0" both mean the
// hardware default; anything that is not a nonnegative integer is
// malformed and falls back to that same default with a one-time stderr
// warning. With one worker (or n <= 1 tasks) parallel_map degenerates to a
// plain serial loop on the calling thread — the reference behaviour the
// parallel path must reproduce.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <thread>
#include <utility>
#include <vector>

namespace ocb::harness {

/// Worker count for sweeps: OCB_SWEEP_THREADS if it parses to >= 1, else
/// hardware_concurrency(), else 1. "0", unset, and malformed values all
/// yield the hardware default (malformed warns once to stderr).
unsigned sweep_threads();

namespace detail {
/// Grammar of OCB_SWEEP_THREADS. kZero is distinct from kValue so the
/// caller can give "0" the same meaning as unset (the hardware default)
/// instead of clamping it.
enum class EnvParse { kUnset, kZero, kValue, kMalformed };

/// Strictly parses `value` (may be null = kUnset) as a nonnegative decimal
/// integer; writes positive results to `out`. Trailing garbage, signs,
/// empty strings, and overflow are kMalformed.
EnvParse parse_thread_env(const char* value, unsigned& out);
}  // namespace detail

/// Runs fn(0..n-1) across `threads` workers (default sweep_threads());
/// returns {fn(0), fn(1), ..., fn(n-1)} in index order. Tasks are claimed
/// from an atomic counter, so scheduling is dynamic but the result order is
/// not. The first exception thrown by any task is rethrown on the caller's
/// thread (remaining claimed tasks still finish; unclaimed ones are
/// skipped).
template <typename Fn>
auto parallel_map(std::size_t n, Fn&& fn, unsigned threads = 0)
    -> std::vector<decltype(fn(std::size_t{0}))> {
  using R = decltype(fn(std::size_t{0}));
  std::vector<R> results(n);
  if (n == 0) return results;
  if (threads == 0) threads = sweep_threads();
  const std::size_t workers =
      std::min<std::size_t>(threads, n);
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) results[i] = fn(i);
    return results;
  }

  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::atomic<int> error_claim{0};

  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n || failed.load(std::memory_order_relaxed)) return;
      try {
        results[i] = fn(i);
      } catch (...) {
        if (error_claim.fetch_add(1, std::memory_order_relaxed) == 0) {
          first_error = std::current_exception();
        }
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (std::size_t w = 1; w < workers; ++w) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
  return results;
}

}  // namespace ocb::harness
