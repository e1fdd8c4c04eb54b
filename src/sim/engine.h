// The discrete-event simulation engine: a single-threaded event loop.
// Events pop in time order, ties broken by insertion order, so identical
// inputs produce identical simulations on every platform.
// Simulated SCC cores run as coroutines (sim::Task) spawned onto the
// engine; awaitables suspend them and events resume them at computed times.
// Parallelism comes from replicating whole engines across threads
// (harness::parallel_map), never from inside one.
//
// The queue is a timing wheel (a calendar queue) over 24-byte events. It
// relies on simulated time never decreasing (schedule requires t >= now).
// A ring of 4096 slots, each 512 ps wide, covers a 2.1 us window that
// starts at the current slot: slot s holds the events with t >> 9 == s, as
// a doubly linked list of nodes from one shared pool. A push into a later
// slot appends to its list, sets the slot's bit in an occupancy bitmap and,
// if it lands before the time of the slot's last event, the slot's bit in
// an out-of-order bitmap. The current slot's list is kept sorted by time
// and pops from its head. When it is empty, countr_zero over the occupancy
// bitmap finds the next occupied slot, which becomes current, and if its
// out-of-order bit is set its events are sorted stably by time in place:
// gathered, sorted and written back into the same nodes in list order. A
// push into the current slot goes into its list after every event at or
// before its time. Events at or beyond the window wait in a far heap
// ordered by (time, push order), and join the ring in the same step that
// moves the window over their slot, before any later push can reach it. So
// every slot lists its events in insertion order until it becomes current,
// and pop order is exactly the (time, insertion order) order, with no
// sequence number stored in Event.
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

  /// A queued event in a slot's list; `next` and `prev` index the pool.
  struct Node {
    Event e;
    std::uint32_t next;
    std::uint32_t prev;
  };
  static_assert(sizeof(Node) == 32);
  struct Slot {
    std::uint32_t head;
    std::uint32_t tail;
  };
  /// An event beyond the window; `seq` is its push order among these.
  struct Far {
    Event e;
    std::uint64_t seq;
    bool operator>(const Far& o) const {
      return e.t != o.e.t ? e.t > o.e.t : seq > o.seq;
    }
  };

  static constexpr int kSlotBits = 9;  // 512 ps per slot
  static constexpr std::uint64_t kSlots = 4096;
  static constexpr std::uint32_t kNil = UINT32_MAX;
  static constexpr std::size_t kInsertionSortMax = 16;

  static detail::RootTask make_root(Task<void> task);

  void push(const Event& e);
  Event pop();
  /// Takes a node from the free list and stores `e` in it.
  std::uint32_t new_node(const Event& e);
  /// Adds one node to the pool, as the free list's only node.
  void grow_pool();
  /// Appends `e`, whose slot lies inside the window, to its slot's list:
  /// a slot after the current one, or the current one while far events
  /// join an empty ring.
  void append(const Event& e);
  /// Inserts `e` into the current slot's list after every event at or
  /// before its time.
  void insert_current(const Event& e);
  /// Moves the window to the next occupied slot, sorting it if it was
  /// filled out of order, and returns it.
  Slot& advance();
  /// Sorts a slot's events stably by time, in place.
  void sort_slot(const Slot& slot);

  void note_process_finished() { --live_; }
  void note_process_error(std::exception_ptr e) {
    if (!first_error_) first_error_ = e;
  }

  /// Scratch space for sort_slot: a slot's events and their nodes.
  std::vector<Event> sort_buf_;
  std::vector<std::uint32_t> sort_nodes_;
  /// Absolute number (time >> kSlotBits) of the current slot; the window
  /// is [cur_, cur_ + kSlots).
  std::uint64_t cur_ = 0;
  std::vector<Slot> slots_ = std::vector<Slot>(kSlots, Slot{kNil, kNil});
  /// Bit i set iff ring slot i is not the current slot and its list is
  /// non-empty.
  std::array<std::uint64_t, kSlots / 64> occupied_{};
  /// Bit i set iff an append put an event before the time of ring slot i's
  /// last event since the slot last became current.
  std::array<std::uint64_t, kSlots / 64> unsorted_{};
  std::vector<Node> pool_;
  std::uint32_t free_ = kNil;
  /// Min-heap on (time, seq) of the events beyond the window.
  std::vector<Far> far_;
  std::uint64_t far_seq_ = 0;
  std::size_t size_ = 0;
  std::vector<Root> roots_;
  Time now_ = 0;
  std::uint64_t events_processed_ = 0;
  std::uint64_t max_queue_depth_ = 0;
  std::size_t live_ = 0;
  std::exception_ptr first_error_{};
};

}  // namespace ocb::sim
