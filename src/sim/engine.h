// The discrete-event simulation engine: a single-threaded event loop.
// Events pop in time order, ties broken by insertion order, so identical
// inputs produce identical simulations on every platform.
// Simulated SCC cores run as coroutines (sim::Task) spawned onto the
// engine; awaitables suspend them and events resume them at computed times.
// Parallelism comes from replicating whole engines across threads
// (harness::parallel_map), never from inside one.
//
// The queue is a radix heap over 24-byte events. It relies on simulated
// time never decreasing (schedule requires t >= now). Bucket b > 0 holds
// the events whose time first differs from the last popped time `last_` at
// bit b-1; bucket 0 holds the events at exactly `last_`. A push is one
// bit_width plus an append, so its cost does not depend on queue depth.
// A pop takes the front of bucket 0; when that is empty, it finds the
// lowest non-empty bucket through a 64-bit mask, makes that bucket's
// minimum the new `last_`, and moves its events down in order. Those lower
// buckets are all empty at that point, and every event with a given time
// always sits in the one bucket its time maps to, so each bucket keeps
// its same-time events in insertion order. Pop order is therefore exactly
// the (time, insertion order) order, with no sequence number stored.
//
// Ownership model: Engine::spawn wraps each top-level Task in a root frame
// the engine owns. Destroying the engine destroys every root frame, which
// transitively frees any suspended nested call chain (see task.h), so a
// deadlocked or partially-run simulation cannot leak.
#pragma once

#include <array>
#include <coroutine>
#include <cstdint>
#include <exception>
#include <string>
#include <vector>

#include "sim/counters.h"
#include "sim/frame_pool.h"
#include "sim/task.h"
#include "sim/time.h"

namespace ocb::sim {

class Engine;

namespace detail {

struct RootPromise;

/// Handle for a spawned top-level process; owned by the Engine.
struct RootTask {
  using promise_type = RootPromise;
  std::coroutine_handle<RootPromise> handle;
};

struct RootPromise {
  Engine* engine = nullptr;
  bool finished = false;

  RootTask get_return_object() {
    return RootTask{std::coroutine_handle<RootPromise>::from_promise(*this)};
  }
  std::suspend_always initial_suspend() noexcept { return {}; }

  struct FinalAwaiter {
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<RootPromise> h) const noexcept;
    void await_resume() const noexcept {}
  };
  FinalAwaiter final_suspend() noexcept { return {}; }

  void return_void() noexcept {}
  void unhandled_exception() noexcept;

  static void* operator new(std::size_t bytes) { return FramePool::allocate(bytes); }
  static void operator delete(void* p) noexcept { FramePool::deallocate(p); }
  static void operator delete(void* p, std::size_t) noexcept {
    FramePool::deallocate(p);
  }
};

}  // namespace detail

/// Outcome of Engine::run().
struct RunResult {
  std::uint64_t events_processed = 0;
  /// Processes spawned but not finished when the event queue drained.
  /// Non-zero means the simulation deadlocked (e.g. a flag never set) or a
  /// process was deliberately halted (fault injection).
  std::size_t stalled_processes = 0;
  Time end_time = 0;
  /// Deepest the event queue ever got (engine lifetime): a queue-pressure
  /// regression shows up here rather than being inferred from wall time.
  std::uint64_t max_queue_depth = 0;
  /// Host-side counters of this run (deltas). The frame counters come
  /// from this engine's thread; the bulk-path counters are added by
  /// SccChip::run and stay zero for plain Engine runs.
  Counters counters;
  /// One entry per stalled process: its spawn label plus the wait reason it
  /// last reported (see Engine::spawn), e.g. "core 12: flag-wait mpb[7]:3".
  /// Makes fault-induced hangs diagnosable without a debugger.
  std::vector<std::string> stalled_details;

  bool completed() const { return stalled_processes == 0; }
};

class Engine {
 public:
  Engine() = default;
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time.
  Time now() const { return now_; }

  /// Schedules `h` to resume at absolute time `t` (>= now()).
  void schedule(Time t, std::coroutine_handle<> h);

  /// Schedules a plain callback (no allocation; fn must outlive the event).
  void schedule_fn(Time t, void (*fn)(void*), void* ctx);

  /// Starts a top-level process at the current simulated time. `describe`
  /// (optional, with its context pointer) is invoked lazily when the
  /// process is still unfinished at the end of a run(), to fill
  /// RunResult::stalled_details — it should report who the process is and
  /// what it is currently waiting for. A plain function pointer, not a
  /// std::function: spawn sits on the sweep hot path (one call per core
  /// per chip) and must not allocate per process.
  void spawn(Task<void> task, std::string (*describe)(void*) = nullptr,
             void* describe_ctx = nullptr);

  /// Number of spawned processes that have not yet finished.
  std::size_t live_processes() const { return live_; }

  /// Events currently queued. The closed-form RMA fast path uses this to
  /// detect a quiescent machine.
  std::size_t queue_size() const { return size_; }

  /// Awaitable: suspends the caller for `d` simulated time.
  auto sleep(Duration d) {
    struct Awaiter {
      Engine* engine;
      Duration d;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) const {
        engine->schedule(engine->now() + d, h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, d};
  }

  /// Runs until the event queue drains or `max_events` is hit. Rethrows the
  /// first exception that escaped any process. Returns queue statistics.
  RunResult run(std::uint64_t max_events = UINT64_MAX);

  /// Awaitable that never resumes: the simulation analogue of a fail-stop.
  /// The suspended frame is reclaimed at engine teardown (see the ownership
  /// model above), and the process counts as stalled in RunResult.
  struct HaltForever {
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<>) const noexcept {}
    void await_resume() const noexcept {}
  };
  static HaltForever halt_forever() { return {}; }

 private:
  friend struct detail::RootPromise;

  /// fn == nullptr means `ptr` is a coroutine to resume, else fn(ptr) is
  /// called.
  struct Event {
    Time t;
    void* ptr;
    void (*fn)(void*);
  };
  static_assert(sizeof(Event) == 24);

  struct Root {
    std::coroutine_handle<detail::RootPromise> handle;
    std::string (*describe)(void*) = nullptr;
    void* describe_ctx = nullptr;
  };

  static detail::RootTask make_root(Task<void> task);

  void push(const Event& e);
  Event pop();
  /// Refills the empty bucket 0 from the lowest non-empty bucket.
  void refill();

  void note_process_finished() { --live_; }
  void note_process_error(std::exception_ptr e) {
    if (!first_error_) first_error_ = e;
  }

  /// Radix buckets 0..64 (see the header comment); bucket 0 pops from
  /// `head_` and is cleared whenever it drains.
  std::array<std::vector<Event>, 65> buckets_;
  std::size_t head_ = 0;
  /// Bit b-1 set iff bucket b (b >= 1) is non-empty.
  std::uint64_t nonempty_ = 0;
  Time last_ = 0;
  std::size_t size_ = 0;
  std::vector<Root> roots_;
  Time now_ = 0;
  std::uint64_t events_processed_ = 0;
  std::uint64_t max_queue_depth_ = 0;
  std::size_t live_ = 0;
  std::exception_ptr first_error_{};
};

}  // namespace ocb::sim
