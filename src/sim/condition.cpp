#include "sim/condition.h"

namespace ocb::sim {

void Trigger::fire(Duration delay) {
  ++epoch_;
  if (waiters_.empty()) return;
  // Move out first: a woken waiter may re-wait on this same trigger.
  std::vector<Waiter> woken;
  woken.swap(waiters_);
  const Time t = engine_->now() + delay;
  for (const Waiter& w : woken) {
    if (w.timed != nullptr) {
      if (w.timed->settled) continue;  // its timeout already resumed it
      w.timed->settled = true;
      w.timed->fired = true;
      // The slot is recycled by the pending timeout event, not here.
    }
    engine_->schedule(t, w.h);
  }
}

Trigger::TimedWait* Trigger::acquire_timed(std::coroutine_handle<> h) {
  TimedWait* tw;
  if (timed_free_.empty()) {
    timed_pool_.push_back(std::make_unique<TimedWait>());
    tw = timed_pool_.back().get();
  } else {
    tw = timed_free_.back();
    timed_free_.pop_back();
  }
  tw->trigger = this;
  tw->h = h;
  tw->settled = false;
  tw->fired = false;
  return tw;
}

void Trigger::release_timed(TimedWait* tw) { timed_free_.push_back(tw); }

void Trigger::arm_timeout(TimedWait* tw, Duration timeout) {
  engine_->schedule_fn(engine_->now() + timeout, &Trigger::timeout_expired, tw);
}

bool Rendezvous::suspend(std::coroutine_handle<> h) {
  waiters_.push_back(h);
  if (waiters_.size() == parties_) {
    // Complete round: wake everyone (including this arriver).
    std::vector<std::coroutine_handle<>> woken;
    woken.swap(waiters_);
    const Time t = engine_->now();
    for (auto w : woken) engine_->schedule(t, w);
  }
  return true;
}

void Trigger::timeout_expired(void* ctx) {
  auto* tw = static_cast<TimedWait*>(ctx);
  Trigger* trigger = tw->trigger;
  if (!tw->settled) {
    tw->settled = true;
    tw->fired = false;
    // Unpark before resuming: the entry's handle is about to go stale, and
    // the resumed coroutine may re-wait on this very trigger.
    std::erase_if(trigger->waiters_,
                  [tw](const Waiter& w) { return w.timed == tw; });
    tw->h.resume();
  }
  trigger->release_timed(tw);
}

}  // namespace ocb::sim
