// Unit tests for the coroutine Task type: laziness, value/exception
// propagation, nesting via symmetric transfer, frame ownership.
#include <gtest/gtest.h>

#include <stdexcept>

#include "sim/engine.h"
#include "sim/task.h"

namespace ocb::sim {
namespace {

Task<int> immediate_value(int v) { co_return v; }

Task<int> add_chain(int depth) {
  if (depth == 0) co_return 0;
  co_return 1 + co_await add_chain(depth - 1);
}

Task<void> set_when_run(bool* flag) {
  *flag = true;
  co_return;
}

Task<int> throws_logic() {
  throw std::logic_error("boom");
  co_return 0;  // unreachable
}

Task<int> rethrows_from_child() {
  co_return co_await throws_logic();
}

Task<void> driver(Engine& e, int* out, int depth) {
  (void)e;
  *out = co_await add_chain(depth);
}

TEST(Task, IsLazy) {
  Engine e;
  bool ran = false;
  Task<void> t = set_when_run(&ran);
  EXPECT_FALSE(ran) << "creating a Task must not start it";
  e.spawn(std::move(t));
  EXPECT_FALSE(ran) << "spawn schedules but does not run";
  e.run();
  EXPECT_TRUE(ran);
}

TEST(Task, ValuePropagates) {
  Engine e;
  int out = 0;
  e.spawn([](Engine&, int* o) -> Task<void> { *o = co_await immediate_value(41) + 1; }(e, &out));
  e.run();
  EXPECT_EQ(out, 42);
}

// 100k frames: only feasible with symmetric transfer, not native calls.
// Symmetric transfer only keeps the native stack flat when the compiler
// emits each resume as a tail call, and AddressSanitizer's instrumentation
// does not guarantee that, so sanitized builds nest only as deep as an
// ordinary stack holds.
#if defined(__SANITIZE_ADDRESS__)
constexpr int kDeepNesting = 2'000;
#else
constexpr int kDeepNesting = 100'000;
#endif

TEST(Task, DeepNestingDoesNotOverflowStack) {
  Engine e;
  int out = 0;
  e.spawn(driver(e, &out, kDeepNesting));
  e.run();
  EXPECT_EQ(out, kDeepNesting);
}

TEST(Task, ExceptionPropagatesThroughAwait) {
  Engine e;
  bool caught = false;
  e.spawn([](bool* c) -> Task<void> {
    try {
      co_await rethrows_from_child();
    } catch (const std::logic_error&) {
      *c = true;
    }
  }(&caught));
  e.run();
  EXPECT_TRUE(caught);
}

TEST(Task, UncaughtExceptionSurfacesFromRun) {
  Engine e;
  e.spawn([]() -> Task<void> { co_await throws_logic(); }());
  EXPECT_THROW(e.run(), std::logic_error);
}

TEST(Task, MoveTransfersOwnership) {
  Task<int> a = immediate_value(5);
  EXPECT_TRUE(a.valid());
  Task<int> b = std::move(a);
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move): testing moved-from state
  EXPECT_TRUE(b.valid());
  a = std::move(b);
  EXPECT_TRUE(a.valid());
  EXPECT_FALSE(b.valid());  // NOLINT(bugprone-use-after-move)
}

TEST(Task, AwaitingEmptyTaskThrows) {
  Engine e;
  bool threw = false;
  e.spawn([](bool* t) -> Task<void> {
    Task<int> moved_from = immediate_value(1);
    Task<int> sink = std::move(moved_from);
    (void)sink;
    try {
      co_await moved_from;  // NOLINT(bugprone-use-after-move): deliberate
    } catch (const PreconditionError&) {
      *t = true;
    }
  }(&threw));
  e.run();
  EXPECT_TRUE(threw);
}

TEST(Task, DestroyingUnstartedTaskIsClean) {
  { Task<int> t = immediate_value(1); }  // never awaited; frame destroyed
  SUCCEED();
}

TEST(Task, VoidTaskCompletes) {
  Engine e;
  int count = 0;
  e.spawn([](Engine& eng, int* c) -> Task<void> {
    co_await eng.sleep(10);
    ++*c;
    co_await eng.sleep(10);
    ++*c;
  }(e, &count));
  const RunResult r = e.run();
  EXPECT_EQ(count, 2);
  EXPECT_EQ(r.end_time, 20u);
  EXPECT_TRUE(r.completed());
}

}  // namespace
}  // namespace ocb::sim
