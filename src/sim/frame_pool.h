// Size-bucketed recycling allocator for coroutine frames.
//
// The simulator allocates a coroutine frame for every nested call in the
// hot per-line transaction path (mpb_read_line -> core_overhead -> ...),
// so a paper-scale run performs millions of small, identically-sized
// heap allocations. This pool intercepts them (via operator new/delete on
// the task promise types) and recycles frames through per-size free lists,
// turning the steady state into a pointer pop/push.
//
// The free lists are thread-local: each harness::ParallelSweep worker runs
// its own single-threaded simulation, and frames never migrate between
// threads (a frame is freed by the same engine — hence thread — that
// allocated it).
#pragma once

#include <cstddef>

#include "sim/counters.h"

namespace ocb::sim {

class FramePool {
 public:
  static void* allocate(std::size_t bytes);
  static void deallocate(void* p) noexcept;

  /// This thread's lifetime frame counters (the bulk-path fields stay
  /// zero); Engine::run reports deltas.
  static Counters counters();
};

}  // namespace ocb::sim
