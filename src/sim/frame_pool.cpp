#include "sim/frame_pool.h"

#include <new>
#include <vector>

namespace ocb::sim {

namespace {

// Frames are rounded up to 64-byte classes; anything above the cap (rare:
// only unusually large coroutine bodies) goes straight to the system
// allocator. A one-word header in front of the user block records the
// class so deallocate needs no size.
constexpr std::size_t kGranularity = 64;
constexpr std::size_t kHeader = 2 * sizeof(void*);  // keep 16-byte alignment
constexpr std::size_t kClasses = 32;                // up to 2 KiB per frame
constexpr std::uintptr_t kUnpooled = ~std::uintptr_t{0};

struct ThreadCache {
  std::vector<void*> free_list[kClasses];
  Counters counters;

  ~ThreadCache() {
    for (auto& list : free_list) {
      for (void* block : list) ::operator delete(block);
    }
  }
};

ThreadCache& cache() {
  thread_local ThreadCache tc;
  return tc;
}

std::uintptr_t& header_of(void* user) {
  return *reinterpret_cast<std::uintptr_t*>(static_cast<char*>(user) - kHeader);
}

}  // namespace

void* FramePool::allocate(std::size_t bytes) {
  const std::size_t total = bytes + kHeader;
  const std::size_t cls = (total + kGranularity - 1) / kGranularity;
  if (cls > kClasses) {
    void* block = ::operator new(total);
    void* user = static_cast<char*>(block) + kHeader;
    header_of(user) = kUnpooled;
    return user;
  }
  ThreadCache& tc = cache();
  auto& list = tc.free_list[cls - 1];
  void* block;
  if (!list.empty()) {
    block = list.back();
    list.pop_back();
    ++tc.counters.frame_reuses;
  } else {
    block = ::operator new(cls * kGranularity);
    ++tc.counters.frame_allocs;
  }
  void* user = static_cast<char*>(block) + kHeader;
  header_of(user) = cls - 1;
  return user;
}

void FramePool::deallocate(void* p) noexcept {
  if (p == nullptr) return;
  const std::uintptr_t cls = header_of(p);
  void* block = static_cast<char*>(p) - kHeader;
  if (cls == kUnpooled) {
    ::operator delete(block);
    return;
  }
  cache().free_list[cls].push_back(block);
}

Counters FramePool::counters() { return cache().counters; }

}  // namespace ocb::sim
