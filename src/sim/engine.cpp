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
    insert_current(e);
  } else if (ahead < kSlots) {
    append(e);
  } else {
    far_.push_back(Far{e, far_seq_++});
    std::push_heap(far_.begin(), far_.end(), std::greater<>{});
  }
  if (++size_ > max_queue_depth_) max_queue_depth_ = size_;
}

std::uint32_t Engine::new_node(const Event& e) {
  if (free_ == kNil) grow_pool();
  const std::uint32_t n = free_;
  free_ = pool_[n].next;
  pool_[n].e = e;
  return n;
}

void Engine::grow_pool() {
  free_ = static_cast<std::uint32_t>(pool_.size());
  pool_.push_back(Node{Event{}, kNil, kNil});
}

void Engine::append(const Event& e) {
  const std::uint32_t n = new_node(e);
  const std::uint64_t i = (e.t >> kSlotBits) & (kSlots - 1);
  Slot& slot = slots_[i];
  Node& node = pool_[n];
  node.next = kNil;
  node.prev = slot.tail;
  const std::uint64_t bit = std::uint64_t{1} << (i & 63);
  if (slot.tail == kNil) {
    slot.head = n;
    occupied_[i >> 6] |= bit;
  } else {
    Node& tail = pool_[slot.tail];
    tail.next = n;
    // Branch-free: in a crowded slot filled out of order it would
    // mispredict about every other append.
    unsorted_[i >> 6] |= static_cast<std::uint64_t>(e.t < tail.e.t) << (i & 63);
  }
  slot.tail = n;
}

void Engine::insert_current(const Event& e) {
  const std::uint32_t n = new_node(e);
  Slot& slot = slots_[cur_ & (kSlots - 1)];
  // The list is sorted: walk back from the tail past the later events.
  std::uint32_t after = slot.tail;
  while (after != kNil && pool_[after].e.t > e.t) {
    after = after == slot.head ? kNil : pool_[after].prev;
  }
  Node& node = pool_[n];
  node.prev = after;
  node.next = after == kNil ? slot.head : pool_[after].next;
  if (after == kNil) {
    slot.head = n;
  } else {
    pool_[after].next = n;
  }
  if (node.next == kNil) {
    slot.tail = n;
  } else {
    pool_[node.next].prev = n;
  }
}

Engine::Event Engine::pop() {
  Slot* slot = &slots_[cur_ & (kSlots - 1)];
  if (slot->head == kNil) slot = &advance();
  const std::uint32_t n = slot->head;
  Node& node = pool_[n];
  slot->head = node.next;
  if (node.next == kNil) slot->tail = kNil;
  node.next = free_;
  free_ = n;
  --size_;
  return node.e;
}

Engine::Slot& Engine::advance() {
  // The current slot is empty, so everything queued sits in later ring
  // slots or the far heap, and every far event lies beyond every ring event.
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
  const std::uint64_t bit = std::uint64_t{1} << (i & 63);
  occupied_[i >> 6] &= ~bit;
  Slot& slot = slots_[i];
  if ((unsorted_[i >> 6] & bit) != 0) {
    unsorted_[i >> 6] &= ~bit;
    sort_slot(slot);
  }
  return slot;
}

void Engine::sort_slot(const Slot& slot) {
  // Gathers the events with their nodes in list order, sorts the events
  // and stores the k-th of them into the k-th node: no link moves.
  std::vector<Event>& buf = sort_buf_;
  std::vector<std::uint32_t>& nodes = sort_nodes_;
  buf.clear();
  nodes.clear();
  for (std::uint32_t n = slot.head; n != kNil; n = pool_[n].next) {
    buf.push_back(pool_[n].e);
    nodes.push_back(n);
  }
  const std::size_t count = buf.size();
  if (count <= kInsertionSortMax) {
    for (std::size_t i = 1; i < count; ++i) {
      const Event e = buf[i];
      std::size_t j = i;
      for (; j > 0 && buf[j - 1].t > e.t; --j) buf[j] = buf[j - 1];
      buf[j] = e;
    }
    for (std::size_t k = 0; k < count; ++k) pool_[nodes[k]].e = buf[k];
    return;
  }
  // A stable counting sort on the time's offset inside the slot.
  constexpr std::uint64_t kWidth = std::uint64_t{1} << kSlotBits;
  std::array<std::uint32_t, kWidth> first{};
  for (const Event& e : buf) ++first[e.t & (kWidth - 1)];
  std::uint32_t sum = 0;
  for (std::uint32_t& c : first) {
    const std::uint32_t n = c;
    c = sum;
    sum += n;
  }
  for (const Event& e : buf) pool_[nodes[first[e.t & (kWidth - 1)]++]].e = e;
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
