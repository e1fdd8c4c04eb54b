#include "sim/engine.h"

#include <bit>
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
  // e.t >= now_ == last_ (schedule checks it), so the bucket is in 0..64.
  const int b = std::bit_width(e.t ^ last_);
  buckets_[static_cast<std::size_t>(b)].push_back(e);
  if (b != 0) nonempty_ |= std::uint64_t{1} << (b - 1);
  if (++size_ > max_queue_depth_) max_queue_depth_ = size_;
}

Engine::Event Engine::pop() {
  std::vector<Event>& zero = buckets_[0];
  if (zero.empty()) refill();
  const Event e = zero[head_++];
  if (head_ == zero.size()) {
    zero.clear();
    head_ = 0;
  }
  --size_;
  return e;
}

void Engine::refill() {
  // Lowest non-empty bucket: every event in it precedes every event in the
  // buckets above, and all buckets below it are empty.
  const int b = std::countr_zero(nonempty_) + 1;
  nonempty_ &= nonempty_ - 1;
  std::vector<Event>& src = buckets_[static_cast<std::size_t>(b)];
  Time min = src.front().t;
  for (const Event& e : src) {
    if (e.t < min) min = e.t;
  }
  last_ = min;
  // Walk in order and append, so same-time events keep insertion order.
  // Each lands strictly below b, since it agrees with `min` above bit b-1.
  for (const Event& e : src) {
    const int to = std::bit_width(e.t ^ min);
    buckets_[static_cast<std::size_t>(to)].push_back(e);
    if (to != 0) nonempty_ |= std::uint64_t{1} << (to - 1);
  }
  src.clear();
}

void Engine::schedule(Time t, std::coroutine_handle<> h) {
  OCB_REQUIRE(t >= now_, "cannot schedule an event in the past");
  push(Event{t, h.address(), nullptr});
}

void Engine::schedule_fn(Time t, void (*fn)(void*), void* ctx) {
  OCB_REQUIRE(fn != nullptr, "null event callback");
  OCB_REQUIRE(t >= now_, "cannot schedule an event in the past");
  push(Event{t, ctx, fn});
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
  const Counters frames_before = FramePool::counters();
  std::uint64_t processed = 0;
  while (size_ != 0 && processed < max_events) {
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
  result.counters = FramePool::counters() - frames_before;
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
