// Unit tests for the discrete-event engine: time, ordering, spawn/run
// semantics, stalled-process detection, teardown.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <iterator>
#include <numeric>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "common/require.h"
#include "common/rng.h"
#include "sim/condition.h"
#include "sim/engine.h"

namespace ocb::sim {
namespace {

Task<void> record_at(Engine& e, Duration d, std::vector<int>* log, int id) {
  co_await e.sleep(d);
  log->push_back(id);
}

TEST(Engine, StartsAtTimeZero) {
  Engine e;
  EXPECT_EQ(e.now(), 0u);
}

TEST(Engine, EventsRunInTimeOrder) {
  Engine e;
  std::vector<int> log;
  e.spawn(record_at(e, 30, &log, 3));
  e.spawn(record_at(e, 10, &log, 1));
  e.spawn(record_at(e, 20, &log, 2));
  e.run();
  EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, TiesBreakByInsertionOrder) {
  Engine e;
  std::vector<int> log;
  for (int i = 0; i < 5; ++i) e.spawn(record_at(e, 100, &log, i));
  e.run();
  EXPECT_EQ(log, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, NowAdvancesMonotonically) {
  Engine e;
  std::vector<Time> times;
  e.spawn([](Engine& eng, std::vector<Time>* t) -> Task<void> {
    for (int i = 0; i < 10; ++i) {
      co_await eng.sleep(7);
      t->push_back(eng.now());
    }
  }(e, &times));
  e.run();
  ASSERT_EQ(times.size(), 10u);
  for (std::size_t i = 0; i < times.size(); ++i) EXPECT_EQ(times[i], 7 * (i + 1));
}

TEST(Engine, SchedulingInThePastThrows) {
  Engine e;
  bool threw = false;
  e.spawn([](Engine& eng, bool* t) -> Task<void> {
    co_await eng.sleep(100);
    try {
      eng.schedule(50, std::noop_coroutine());
    } catch (const PreconditionError&) {
      *t = true;
    }
  }(e, &threw));
  e.run();
  EXPECT_TRUE(threw);
}

TEST(Engine, RunReportsEventCountAndEndTime) {
  Engine e;
  std::vector<int> log;
  e.spawn(record_at(e, 42, &log, 0));
  const RunResult r = e.run();
  EXPECT_EQ(r.end_time, 42u);
  EXPECT_GE(r.events_processed, 2u);  // spawn start + sleep wake
  EXPECT_TRUE(r.completed());
}

TEST(Engine, StalledProcessDetected) {
  Engine e;
  Trigger never(e);
  e.spawn([](Trigger& t) -> Task<void> { co_await t.wait(); }(never));
  const RunResult r = e.run();
  EXPECT_EQ(r.stalled_processes, 1u);
  EXPECT_FALSE(r.completed());
}

TEST(Engine, StalledTeardownDoesNotLeak) {
  // Covered by ASAN/valgrind when enabled; structurally: destroying the
  // engine with a parked coroutine chain must not crash.
  Engine e;
  auto trigger = std::make_unique<Trigger>(e);
  e.spawn([](Trigger& t) -> Task<void> {
    co_await t.wait();
  }(*trigger));
  e.run();
  SUCCEED();
}

TEST(Engine, MaxEventsStopsEarly) {
  Engine e;
  e.spawn([](Engine& eng) -> Task<void> {
    for (int i = 0; i < 1000; ++i) co_await eng.sleep(1);
  }(e));
  const RunResult r = e.run(/*max_events=*/10);
  EXPECT_FALSE(r.completed());
  EXPECT_LE(r.events_processed, 10u);
  // Run can be resumed afterwards.
  const RunResult r2 = e.run();
  EXPECT_TRUE(r2.completed());
  EXPECT_EQ(r2.end_time, 1000u);
}

// Replays a seeded random schedule of callbacks and coroutines, each event
// scheduling 0-3 more, against a std::priority_queue keyed by (time,
// insertion counter): the engine must pop in exactly that order.
class QueueDifferential {
 public:
  explicit QueueDifferential(std::uint64_t seed)
      : rng_(seed), target_depth_(1 + rng_.next_below(600)) {}

  void run_to_completion() {
    for (int i = 0; i < 4; ++i) spawn_process();
    // One event near 2^62 ps: it pops last and reopens the budget, so the
    // queue also handles pushes after a jump of 2^62 ps.
    add_callback((Duration{1} << 62) - rng_.next_below(1000), /*far=*/true);
    // Stop and resume every few hundred events, often mid-instant.
    std::uint64_t processed = 0;
    while (engine_.queue_size() > 0) {
      const std::uint64_t chunk = 1 + rng_.next_below(300);
      const RunResult r = engine_.run(chunk);
      EXPECT_LE(r.events_processed - processed, chunk);
      processed = r.events_processed;
      EXPECT_EQ(engine_.queue_size(), ref_.size());
    }
    const RunResult r = engine_.run();
    EXPECT_TRUE(r.completed());
    EXPECT_EQ(r.events_processed, next_id_);
    EXPECT_EQ(r.max_queue_depth, ref_max_);
    EXPECT_EQ(order_mismatches_, 0u) << "first at pop #" << first_mismatch_;
    EXPECT_EQ(size_mismatches_, 0u);
  }

 private:
  struct Ref {
    Time t;
    std::uint64_t id;  // insertion counter
    bool operator>(const Ref& o) const { return t != o.t ? t > o.t : id > o.id; }
  };
  struct Node {
    QueueDifferential* q;
    std::uint64_t id;
    bool far;
  };

  std::uint64_t expect(Time t) {
    ref_.push(Ref{t, next_id_});
    if (ref_.size() > ref_max_) ref_max_ = ref_.size();
    return next_id_++;
  }

  // Checks that the event the engine just popped is the reference's next.
  void on_event(std::uint64_t id) {
    ++popped_;
    if (ref_.empty() || ref_.top().id != id || ref_.top().t != engine_.now()) {
      if (order_mismatches_++ == 0) first_mismatch_ = popped_;
    }
    if (!ref_.empty()) ref_.pop();
    if (engine_.queue_size() != ref_.size()) ++size_mismatches_;
  }

  Duration draw_delta() {
    // Same-instant, picosecond, SCC cost-parameter and 2 us steps; the
    // extra picks are random steps of 1-1023 ps (bursts of them crowd a
    // span shorter than a nanosecond), of 1-5 us and of up to 2^45 ps.
    constexpr Duration kDeltas[] = {
        0, 0, 1, 2, 5 * kNanosecond, 10 * kNanosecond, 116 * kNanosecond,
        330 * kNanosecond, 451 * kNanosecond, 2 * kMicrosecond};
    constexpr std::uint64_t kFixed = std::size(kDeltas);
    const std::uint64_t pick = rng_.next_below(kFixed + 3);
    if (pick == kFixed) return 1 + rng_.next_below(1023);
    if (pick == kFixed + 1) return kMicrosecond + rng_.next_below(4 * kMicrosecond + 1);
    if (pick == kFixed + 2) return rng_.next_below(Duration{1} << 45);
    return kDeltas[pick];
  }

  bool take_budget() {
    if (budget_ == 0) return false;
    --budget_;
    return true;
  }

  void add_callback(Duration d, bool far = false) {
    const Time t = engine_.now() + d;
    nodes_.push_back(Node{this, expect(t), far});
    engine_.schedule_fn(t, &fire, &nodes_.back());
  }

  // Spawning schedules the process's first resume at t == now.
  void spawn_process() { engine_.spawn(process(*this, expect(engine_.now()))); }

  // Schedules up to `max` more events: callbacks, sometimes a same-instant
  // burst sharing one delta, sometimes a new process.
  void add_children(std::uint64_t max) {
    const std::uint64_t lo = ref_.size() < target_depth_ ? 1 : 0;
    const std::uint64_t n = std::min(max, lo + rng_.next_below(3));
    const bool burst = rng_.next_below(4) == 0;
    const Duration shared = draw_delta();
    for (std::uint64_t i = 0; i < n && take_budget(); ++i) {
      if (rng_.next_below(16) == 0) {
        spawn_process();
      } else {
        add_callback(burst ? shared : draw_delta());
      }
    }
  }

  static void fire(void* p) {
    const Node node = *static_cast<Node*>(p);
    QueueDifferential& q = *node.q;
    q.on_event(node.id);
    if (node.far) q.budget_ += kBudget / 4;
    q.add_children(3);
  }

  static Task<void> process(QueueDifferential& q, std::uint64_t id) {
    for (;;) {
      q.on_event(id);
      q.add_children(2);
      if (q.rng_.next_below(8) == 0 || !q.take_budget()) co_return;
      const Duration d = q.draw_delta();
      id = q.expect(q.engine_.now() + d);
      co_await q.engine_.sleep(d);
    }
  }

  static constexpr std::uint64_t kBudget = 4000;

  Xoshiro256 rng_;
  std::uint64_t target_depth_;
  std::uint64_t budget_ = kBudget;
  std::priority_queue<Ref, std::vector<Ref>, std::greater<>> ref_;
  std::deque<Node> nodes_;
  std::uint64_t next_id_ = 0;
  std::uint64_t ref_max_ = 0;
  std::uint64_t popped_ = 0;
  std::uint64_t order_mismatches_ = 0;
  std::uint64_t first_mismatch_ = 0;
  std::uint64_t size_mismatches_ = 0;
  Engine engine_;
};

TEST(Engine, PopOrderMatchesReferenceQueue) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    QueueDifferential(seed).run_to_completion();
  }
}

// Appends `id` to `log` when its event pops.
struct Mark {
  std::vector<int>* log;
  int id;
  static void fire(void* p) {
    const Mark& m = *static_cast<Mark*>(p);
    m.log->push_back(m.id);
  }
};

TEST(Engine, FarEventPopsBeforeALaterPushAtTheSameInstant) {
  // A is pushed first, at time 0, for an instant T 10 us ahead. Later
  // pushes for T come from instants ever closer to T, from 8 us to 1 ps
  // before it. A still pops first, then the rest in push order, whether
  // the later pushes come from inside run() or from a caller that stopped
  // run() just before them.
  constexpr Time kT = 10 * kMicrosecond + 77;
  constexpr Duration kLeads[] = {8 * kMicrosecond, 3 * kMicrosecond, 2 * kMicrosecond + 100,
                                 2 * kMicrosecond, kMicrosecond,     512,
                                 1};
  constexpr int kLater = static_cast<int>(std::size(kLeads));
  for (const bool stop : {false, true}) {
    SCOPED_TRACE(stop ? "pushed between run(1) calls" : "pushed inside run()");
    Engine e;
    std::vector<int> log;
    std::vector<Mark> marks;
    for (int id = 0; id <= kLater; ++id) marks.push_back(Mark{&log, id});
    struct Pusher {
      Engine* engine;
      Mark* mark;
      static void fire(void* p) {
        const Pusher& q = *static_cast<Pusher*>(p);
        q.engine->schedule_fn(kT, &Mark::fire, q.mark);
      }
    };
    std::vector<Pusher> pushers;
    for (int i = 0; i < kLater; ++i) pushers.push_back(Pusher{&e, &marks[i + 1]});
    e.schedule_fn(kT, &Mark::fire, &marks[0]);
    for (int i = 0; i < kLater; ++i) {
      if (stop) {
        e.schedule_fn(kT - kLeads[i], [](void*) {}, nullptr);
      } else {
        e.schedule_fn(kT - kLeads[i], &Pusher::fire, &pushers[i]);
      }
    }
    if (stop) {
      for (int i = 0; i < kLater; ++i) {
        const RunResult r = e.run(1);
        ASSERT_EQ(r.end_time, kT - kLeads[i]);
        e.schedule_fn(kT, &Mark::fire, &marks[i + 1]);
      }
    }
    const RunResult r = e.run();
    EXPECT_EQ(r.end_time, kT);
    std::vector<int> expected(kLater + 1);
    std::iota(expected.begin(), expected.end(), 0);
    EXPECT_EQ(log, expected);
  }
}

TEST(Engine, CrowdedSpanPopsInTimeThenInsertionOrder) {
  // 320 events inside one 512 ps span, pushed in falling time order with
  // two at each instant, pop by time, then by push order. The span lies
  // once close ahead and once far ahead of the first push.
  for (const Time base : {Time{512} * 2'000, Time{512} * 200'000}) {
    SCOPED_TRACE("span at " + std::to_string(base) + " ps");
    Engine e;
    std::vector<int> log;
    std::vector<Mark> marks;
    std::vector<std::pair<Time, int>> expected;
    constexpr int kEvents = 320;
    for (int id = 0; id < kEvents; ++id) marks.push_back(Mark{&log, id});
    for (int id = 0; id < kEvents; ++id) {
      const Time t = base + 3 * static_cast<Time>((kEvents - 1 - id) / 2);
      e.schedule_fn(t, &Mark::fire, &marks[static_cast<std::size_t>(id)]);
      expected.emplace_back(t, id);
    }
    ASSERT_LT(expected.front().first, base + 512);
    std::sort(expected.begin(), expected.end());
    std::vector<int> expected_ids;
    for (const auto& [t, id] : expected) expected_ids.push_back(id);
    const RunResult r = e.run();
    EXPECT_EQ(r.end_time, expected.back().first);
    EXPECT_EQ(log, expected_ids);
  }
}

// An event to push: its time, and the events it pushes when it pops.
struct Plan {
  Time t;
  std::vector<Plan> then;
};

// Pushes planned events and logs each one's push number as it pops. Every
// push lies at or after now(), so the engine must pop all of them in
// (time, push number) order.
class PushLog {
 public:
  explicit PushLog(Engine& engine) : engine_(engine) {}

  void push(const Plan& plan) {
    events_.push_back(Pushed{this, static_cast<int>(events_.size()), plan});
    engine_.schedule_fn(plan.t, &fire, &events_.back());
  }

  const std::vector<int>& popped() const { return popped_; }

  std::vector<int> expected() const {
    std::vector<std::pair<Time, int>> order;
    for (const Pushed& p : events_) order.emplace_back(p.plan.t, p.id);
    std::sort(order.begin(), order.end());
    std::vector<int> ids;
    for (const auto& [t, id] : order) ids.push_back(id);
    return ids;
  }

 private:
  struct Pushed {
    PushLog* log;
    int id;
    Plan plan;
  };

  static void fire(void* p) {
    const Pushed& ev = *static_cast<const Pushed*>(p);
    PushLog& log = *ev.log;
    EXPECT_EQ(log.engine_.now(), ev.plan.t) << "event " << ev.id;
    log.popped_.push_back(ev.id);
    for (const Plan& next : ev.plan.then) log.push(next);
  }

  Engine& engine_;
  std::deque<Pushed> events_;  // stable addresses for the callbacks
  std::vector<int> popped_;
};

TEST(Engine, SlotFilledOutOfOrderPopsSortedAndTakesLaterPushes) {
  // A slot 2,000 slots ahead of the window gets pairs of events at one
  // instant, the pairs in scrambled time order: 7 pairs sort with the
  // insertion sort, 23 with the counting sort. The first event to pop
  // pushes, into the now current slot, one event at every pair's instant
  // and one between every pair and the next.
  for (const int pairs : {7, 23}) {
    SCOPED_TRACE(std::to_string(2 * pairs) + " events in the slot");
    Engine e;
    PushLog log(e);
    constexpr Time kBase = Time{512} * 2'000;
    ASSERT_LT(1 + 12 * pairs, 512);
    std::vector<Plan> later;
    for (int k = 0; k < pairs; ++k) {
      const Time t = kBase + 1 + 12 * static_cast<Time>(k);
      later.push_back(Plan{t, {}});
      later.push_back(Plan{t + 5, {}});
    }
    for (int k = 0; k < pairs; ++k) {
      const Time t = kBase + 1 + 12 * static_cast<Time>((3 * k) % pairs);
      log.push(Plan{t, k == 0 ? later : std::vector<Plan>{}});
      log.push(Plan{t, {}});
    }
    e.run();
    EXPECT_EQ(log.popped(), log.expected());
  }
}

TEST(Engine, PushAtNowPopsAfterItsInstantAndBeforeTheSlotsLaterEvents) {
  // Events 0 and 1 at T and 2 at T + 300 ps share one slot. Pushes at T
  // from events that pop at T go after every event at T and before 2,
  // also the one pushed when 2 is the slot's only event left.
  constexpr Time kT = Time{512} * 10 + 100;
  Engine e;
  PushLog log(e);
  log.push(Plan{kT, {Plan{kT, {Plan{kT, {Plan{kT, {}}}}}}, Plan{kT, {}}}});
  log.push(Plan{kT, {}});
  log.push(Plan{kT + 300, {}});
  e.run();
  // 0 pushes 3 and 4, 3 pushes 5, and 5, the last at T, pushes 6.
  EXPECT_EQ(log.popped(), (std::vector<int>{0, 1, 3, 4, 5, 6, 2}));
  EXPECT_EQ(log.popped(), log.expected());
}

TEST(Engine, RingSlotFilledOutOfOrderOnTwoTurnsOfTheWindow) {
  // Ring slot 100 is filled out of order as absolute slot 100, and again
  // as absolute slot 100 + 4096: two events pushed at time 0 wait beyond
  // the window, join the ring when the window moves past slot 100, and an
  // event in slot 200 then appends four more among and before them.
  constexpr Time kA = Time{512} * 100;
  constexpr Time kB = kA + Time{512} * 4096;
  Engine e;
  PushLog log(e);
  log.push(Plan{kA + 300, {}});
  log.push(Plan{kA + 100, {}});
  log.push(Plan{kA + 200, {}});
  log.push(Plan{kB + 250, {}});
  log.push(Plan{kB + 400, {}});
  log.push(Plan{Time{512} * 200,
                {Plan{kB + 300, {}}, Plan{kB + 50, {}}, Plan{kB + 250, {}}, Plan{kB + 10, {}}}});
  e.run();
  EXPECT_EQ(log.popped(), (std::vector<int>{1, 2, 0, 5, 9, 7, 3, 8, 6, 4}));
  EXPECT_EQ(log.popped(), log.expected());
}

TEST(Engine, LiveProcessCountTracksCompletion) {
  Engine e;
  std::vector<int> log;
  e.spawn(record_at(e, 10, &log, 0));
  e.spawn(record_at(e, 20, &log, 1));
  EXPECT_EQ(e.live_processes(), 2u);
  e.run();
  EXPECT_EQ(e.live_processes(), 0u);
}

TEST(Engine, SpawnDuringRunWorks) {
  Engine e;
  std::vector<int> log;
  e.spawn([](Engine& eng, std::vector<int>* l) -> Task<void> {
    co_await eng.sleep(5);
    l->push_back(1);
    eng.spawn(record_at(eng, 5, l, 2));
  }(e, &log));
  e.run();
  EXPECT_EQ(log, (std::vector<int>{1, 2}));
}

TEST(Engine, ScheduleFnCallbackRuns) {
  Engine e;
  int hits = 0;
  auto fn = [](void* ctx) { ++*static_cast<int*>(ctx); };
  e.schedule_fn(10, fn, &hits);
  e.schedule_fn(20, fn, &hits);
  const RunResult r = e.run();
  EXPECT_EQ(hits, 2);
  EXPECT_EQ(r.end_time, 20u);
}

TEST(Engine, NullCallbackThrows) {
  Engine e;
  EXPECT_THROW(e.schedule_fn(10, nullptr, nullptr), PreconditionError);
}

TEST(Engine, EmptyTaskSpawnThrows) {
  Engine e;
  Task<void> t;
  EXPECT_THROW(e.spawn(std::move(t)), PreconditionError);
}

TEST(Trigger, FireWakesAllWaiters) {
  Engine e;
  Trigger t(e);
  int woken = 0;
  for (int i = 0; i < 3; ++i) {
    e.spawn([](Trigger& trg, int* w) -> Task<void> {
      co_await trg.wait();
      ++*w;
    }(t, &woken));
  }
  e.spawn([](Engine& eng, Trigger& trg) -> Task<void> {
    co_await eng.sleep(100);
    trg.fire();
  }(e, t));
  e.run();
  EXPECT_EQ(woken, 3);
}

TEST(Trigger, EpochCountsFires) {
  Engine e;
  Trigger t(e);
  EXPECT_EQ(t.epoch(), 0u);
  t.fire();
  t.fire();
  EXPECT_EQ(t.epoch(), 2u);
}

TEST(Trigger, WaitUnlessChangedSkipsMissedFire) {
  Engine e;
  Trigger t(e);
  bool resumed = false;
  e.spawn([](Trigger& trg, bool* r) -> Task<void> {
    const std::uint64_t seen = trg.epoch();
    trg.fire();  // fire happens "during the sample window"
    co_await trg.wait_unless_changed(seen);
    *r = true;
  }(t, &resumed));
  const RunResult res = e.run();
  EXPECT_TRUE(resumed) << "missed fire must not strand the waiter";
  EXPECT_TRUE(res.completed());
}

TEST(Trigger, WaiterRegisteredAfterFireWaits) {
  Engine e;
  Trigger t(e);
  t.fire();
  e.spawn([](Trigger& trg) -> Task<void> { co_await trg.wait(); }(t));
  const RunResult r = e.run();
  EXPECT_EQ(r.stalled_processes, 1u);
}

TEST(Rendezvous, ReleasesAllAtLastArrival) {
  Engine e;
  Rendezvous rv(e, 3);
  std::vector<Time> release;
  for (int i = 0; i < 3; ++i) {
    e.spawn([](Engine& eng, Rendezvous& r, std::vector<Time>* out, int id)
                -> Task<void> {
      co_await eng.sleep(static_cast<Duration>(10 * (id + 1)));
      co_await r.arrive();
      out->push_back(eng.now());
    }(e, rv, &release, i));
  }
  e.run();
  ASSERT_EQ(release.size(), 3u);
  for (Time t : release) EXPECT_EQ(t, 30u) << "all release at the last arrival";
}

TEST(Rendezvous, ReusableAcrossRounds) {
  Engine e;
  Rendezvous rv(e, 2);
  int rounds_done = 0;
  for (int i = 0; i < 2; ++i) {
    e.spawn([](Engine& eng, Rendezvous& r, int* done, int id) -> Task<void> {
      for (int round = 0; round < 5; ++round) {
        co_await eng.sleep(static_cast<Duration>(id + 1));
        co_await r.arrive();
      }
      ++*done;
    }(e, rv, &rounds_done, i));
  }
  const RunResult res = e.run();
  EXPECT_TRUE(res.completed());
  EXPECT_EQ(rounds_done, 2);
}

}  // namespace
}  // namespace ocb::sim
