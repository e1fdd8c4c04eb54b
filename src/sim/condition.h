// Broadcast wake-up primitive.
//
// A Trigger is the simulation analogue of "something changed at this memory
// location": coroutines suspend on wait() and are all rescheduled when
// fire() is called. There is no payload and no predicate — wakers and
// waiters agree on state separately (e.g. the MPB cache line holding a
// flag); waiters re-check and may wait again. This models polling without
// burning events on every poll iteration.
#pragma once

#include <coroutine>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/engine.h"

namespace ocb::sim {

class Trigger {
 public:
  explicit Trigger(Engine& engine) : engine_(&engine) {}

  Trigger(const Trigger&) = delete;
  Trigger& operator=(const Trigger&) = delete;

  /// Awaitable: suspends until the next fire().
  auto wait() {
    struct Awaiter {
      Trigger* trigger;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        trigger->waiters_.push_back({h, nullptr});
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

  /// Monotone count of fire() calls. A poller that sampled the guarded
  /// state should capture the epoch *before* sampling and use
  /// wait_unless_changed() — the sample itself takes simulated time, and a
  /// fire landing inside that window would otherwise be lost.
  std::uint64_t epoch() const { return epoch_; }

  /// Awaitable: suspends until the next fire(), or resumes immediately if
  /// the epoch has already moved past `seen_epoch` (a fire slipped between
  /// the caller's state sample and this wait).
  auto wait_unless_changed(std::uint64_t seen_epoch) {
    struct Awaiter {
      Trigger* trigger;
      std::uint64_t seen;
      bool await_ready() const noexcept { return trigger->epoch_ != seen; }
      void await_suspend(std::coroutine_handle<> h) {
        trigger->waiters_.push_back({h, nullptr});
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, seen_epoch};
  }

  /// Awaitable with a deadline (the watchdog primitive): suspends until the
  /// next fire() OR until `timeout` elapses, whichever comes first; resumes
  /// immediately if the epoch already moved past `seen_epoch`. The awaited
  /// value is true when a fire (or the slipped-epoch fast path) woke the
  /// waiter and false on timeout.
  ///
  /// Lifetime: the Trigger must outlive the timeout event (it owns the
  /// bookkeeping the timer callback touches). Triggers embedded in MPB
  /// storage or other chip-lifetime objects always satisfy this.
  auto wait_for(Duration timeout, std::uint64_t seen_epoch) {
    struct Awaiter {
      Trigger* trigger;
      Duration timeout;
      std::uint64_t seen;
      TimedWait* tw = nullptr;
      bool await_ready() const noexcept { return trigger->epoch_ != seen; }
      void await_suspend(std::coroutine_handle<> h) {
        tw = trigger->acquire_timed(h);
        trigger->waiters_.push_back({h, tw});
        trigger->arm_timeout(tw, timeout);
      }
      bool await_resume() const noexcept { return tw == nullptr || tw->fired; }
    };
    return Awaiter{this, timeout, seen_epoch};
  }

  /// Wakes every waiter at the current simulated time (+ optional delay).
  /// Waiters registered after this call wait for the next fire().
  void fire(Duration delay = 0);

  std::size_t waiter_count() const { return waiters_.size(); }

 private:
  /// Shared state of one wait_for(): settled exactly once by either the
  /// fire path or the timeout event; the timeout event always runs last and
  /// recycles the slot.
  struct TimedWait {
    Trigger* trigger = nullptr;
    std::coroutine_handle<> h;
    bool settled = false;
    bool fired = false;
  };
  struct Waiter {
    std::coroutine_handle<> h;
    TimedWait* timed;  // null for plain waits
  };

  TimedWait* acquire_timed(std::coroutine_handle<> h);
  void release_timed(TimedWait* tw);
  void arm_timeout(TimedWait* tw, Duration timeout);
  static void timeout_expired(void* ctx);

  Engine* engine_;
  std::vector<Waiter> waiters_;
  std::vector<std::unique_ptr<TimedWait>> timed_pool_;
  std::vector<TimedWait*> timed_free_;
  std::uint64_t epoch_ = 0;
};

/// Zero-cost join point for N processes, reusable across rounds.
///
/// All arrivers suspend; when the N-th arrives, everyone resumes at the
/// latest arrival's simulated time. The experiment harness separates
/// measurement iterations with this instead of a real flag barrier so that
/// barrier traffic never pollutes the measured interval (the real RMA
/// barrier lives in rma/barrier.h).
class Rendezvous {
 public:
  Rendezvous(Engine& engine, std::size_t parties)
      : engine_(&engine), parties_(parties) {}

  Rendezvous(const Rendezvous&) = delete;
  Rendezvous& operator=(const Rendezvous&) = delete;

  /// Awaitable: blocks until all `parties` processes have arrived.
  auto arrive() {
    struct Awaiter {
      Rendezvous* r;
      bool await_ready() const noexcept { return false; }
      bool await_suspend(std::coroutine_handle<> h) { return r->suspend(h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

  std::size_t parties() const { return parties_; }
  std::size_t waiting() const { return waiters_.size(); }

 private:
  bool suspend(std::coroutine_handle<> h);

  Engine* engine_;
  std::size_t parties_;
  std::vector<std::coroutine_handle<>> waiters_;
};

}  // namespace ocb::sim
