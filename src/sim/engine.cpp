#include "sim/engine.h"

#include <utility>

#include "common/require.h"

namespace ocb::sim {

namespace detail {

void RootPromise::FinalAwaiter::await_suspend(
    std::coroutine_handle<RootPromise> h) const noexcept {
  // The frame stays suspended here; the Engine destroys it at teardown.
  RootPromise& p = h.promise();
  p.finished = true;
  if (p.engine != nullptr) p.engine->note_process_finished();
}

void RootPromise::unhandled_exception() noexcept {
  if (engine != nullptr) engine->note_process_error(std::current_exception());
}

}  // namespace detail

Engine::~Engine() {
  for (Root& root : roots_) {
    if (root.handle) root.handle.destroy();
  }
}

void Engine::push(const Event& e) {
  // 4-ary sift-up: parent of i is (i-1)/4.
  std::size_t i = heap_.size();
  heap_.push_back(e);
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!before(heap_[i], heap_[parent])) break;
    std::swap(heap_[i], heap_[parent]);
    i = parent;
  }
  if (heap_.size() > max_queue_depth_) max_queue_depth_ = heap_.size();
}

Engine::Event Engine::pop() {
  const Event top = heap_.front();
  const Event last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n > 0) {
    // 4-ary sift-down: children of i are 4i+1 .. 4i+4.
    std::size_t i = 0;
    for (;;) {
      const std::size_t first_child = 4 * i + 1;
      if (first_child >= n) break;
      std::size_t best = first_child;
      const std::size_t end = first_child + 4 < n ? first_child + 4 : n;
      for (std::size_t c = first_child + 1; c < end; ++c) {
        if (before(heap_[c], heap_[best])) best = c;
      }
      if (!before(heap_[best], last)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = last;
  }
  return top;
}

void Engine::schedule(Time t, std::coroutine_handle<> h) {
  OCB_REQUIRE(t >= now_, "cannot schedule an event in the past");
  push(Event{t, next_seq_++, h.address(), nullptr});
}

void Engine::schedule_fn(Time t, void (*fn)(void*), void* ctx) {
  OCB_REQUIRE(fn != nullptr, "null event callback");
  OCB_REQUIRE(t >= now_, "cannot schedule an event in the past");
  push(Event{t, next_seq_++, ctx, fn});
}

detail::RootTask Engine::make_root(Task<void> task) {
  co_await std::move(task);
}

void Engine::spawn(Task<void> task, std::string (*describe)(void*),
                   void* describe_ctx) {
  OCB_REQUIRE(task.valid(), "spawning an empty Task");
  detail::RootTask root = make_root(std::move(task));
  root.handle.promise().engine = this;
  roots_.push_back(Root{root.handle, describe, describe_ctx});
  ++live_;
  schedule(now_, root.handle);
}

RunResult Engine::run(std::uint64_t max_events) {
#ifdef OCB_SIM_STATS
  const FramePool::Stats pool_before = FramePool::stats();
#endif
  std::uint64_t processed = 0;
  while (!heap_.empty() && processed < max_events) {
    const Event ev = pop();
    OCB_ENSURE(ev.t >= now_, "event queue time went backwards");
    now_ = ev.t;
    ++processed;
    if (ev.fn == nullptr) {
      std::coroutine_handle<>::from_address(ev.ptr).resume();
    } else {
      ev.fn(ev.ptr);
    }
    if (first_error_) {
      std::exception_ptr e = std::exchange(first_error_, nullptr);
      events_processed_ += processed;
      std::rethrow_exception(e);
    }
  }
  events_processed_ += processed;
  RunResult result;
  result.events_processed = events_processed_;
  result.stalled_processes = live_processes();
  result.end_time = now_;
  result.max_queue_depth = max_queue_depth_;
#ifdef OCB_SIM_STATS
  const FramePool::Stats pool_after = FramePool::stats();
  result.frame_allocs = pool_after.fresh - pool_before.fresh;
  result.frame_reuses = pool_after.reused - pool_before.reused;
#endif
  if (live_processes() > 0) {
    for (std::size_t i = 0; i < roots_.size(); ++i) {
      const Root& root = roots_[i];
      if (root.handle.promise().finished) continue;
      result.stalled_details.push_back(
          root.describe != nullptr ? root.describe(root.describe_ctx)
                                   : "process #" + std::to_string(i));
    }
  }
  return result;
}

}  // namespace ocb::sim
