#include "sim/engine.h"

#include <algorithm>
#include <bit>
#include <functional>
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
  // e.t >= now_ (schedule checks it), so its slot is at or after cur_.
  const std::uint64_t ahead = (e.t >> kSlotBits) - cur_;
  if (ahead == 0) {
    // Into the current run, after every event at or before e.t.
    std::size_t i = run_.size();
    while (i > run_head_ && run_[i - 1].t > e.t) --i;
    run_.insert(run_.begin() + static_cast<std::ptrdiff_t>(i), e);
  } else if (ahead < kSlots) {
    append(e);
  } else {
    far_.push_back(Far{e, far_seq_++});
    std::push_heap(far_.begin(), far_.end(), std::greater<>{});
  }
  if (++size_ > max_queue_depth_) max_queue_depth_ = size_;
}

void Engine::append(const Event& e) {
  std::uint32_t n = free_;
  if (n != kNil) {
    free_ = pool_[n].next;
    pool_[n] = Node{e, kNil};
  } else {
    n = static_cast<std::uint32_t>(pool_.size());
    pool_.push_back(Node{e, kNil});
  }
  const std::uint64_t i = (e.t >> kSlotBits) & (kSlots - 1);
  Slot& slot = slots_[i];
  if (slot.tail == kNil) {
    slot.head = n;
    occupied_[i >> 6] |= std::uint64_t{1} << (i & 63);
  } else {
    pool_[slot.tail].next = n;
  }
  slot.tail = n;
}

Engine::Event Engine::pop() {
  if (run_head_ == run_.size()) advance();
  const Event e = run_[run_head_++];
  if (run_head_ == run_.size()) {
    run_.clear();
    run_head_ = 0;
  }
  --size_;
  return e;
}

void Engine::advance() {
  // run_ is empty, so everything queued sits in the ring or the far heap,
  // and every far event lies beyond every ring event.
  if (size_ == far_.size()) {
    cur_ = far_.front().e.t >> kSlotBits;
  } else {
    // The current slot's bit is clear, so one turn from the slot after it
    // finds the nearest occupied one.
    const std::uint64_t from = (cur_ + 1) & (kSlots - 1);
    std::size_t w = from >> 6;
    std::uint64_t bits = occupied_[w] & (~std::uint64_t{0} << (from & 63));
    while (bits == 0) {
      w = (w + 1) % occupied_.size();
      bits = occupied_[w];
    }
    const std::uint64_t i = (w << 6) | static_cast<std::uint64_t>(std::countr_zero(bits));
    cur_ += (i - cur_) & (kSlots - 1);
  }
  // Far events whose slot the window now covers join the ring before any
  // later push can reach that slot, in (time, push order).
  while (!far_.empty() && (far_.front().e.t >> kSlotBits) - cur_ < kSlots) {
    std::pop_heap(far_.begin(), far_.end(), std::greater<>{});
    append(far_.back().e);
    far_.pop_back();
  }
  const std::uint64_t i = cur_ & (kSlots - 1);
  Slot& slot = slots_[i];
  for (std::uint32_t n = slot.head; n != kNil;) {
    Node& node = pool_[n];
    run_.push_back(node.e);
    const std::uint32_t next = node.next;
    node.next = free_;
    free_ = n;
    n = next;
  }
  slot = Slot{kNil, kNil};
  occupied_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
  sort_run();
}

void Engine::sort_run() {
  const std::size_t n = run_.size();
  if (n <= kInsertionSortMax) {
    for (std::size_t i = 1; i < n; ++i) {
      const Event e = run_[i];
      std::size_t j = i;
      for (; j > 0 && run_[j - 1].t > e.t; --j) run_[j] = run_[j - 1];
      run_[j] = e;
    }
    return;
  }
  // A stable counting sort on the time's offset inside the slot.
  constexpr std::uint64_t kWidth = std::uint64_t{1} << kSlotBits;
  std::array<std::uint32_t, kWidth> first{};
  for (const Event& e : run_) ++first[e.t & (kWidth - 1)];
  std::uint32_t sum = 0;
  for (std::uint32_t& c : first) {
    const std::uint32_t count = c;
    c = sum;
    sum += count;
  }
  sort_buf_.resize(n);
  for (const Event& e : run_) sort_buf_[first[e.t & (kWidth - 1)]++] = e;
  run_.swap(sort_buf_);
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
