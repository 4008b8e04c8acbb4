#include "event/event_center.h"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <vector>

#include "dbg/cond_var.h"
#include "dbg/mutex.h"
#include "sim/env.h"

namespace doceph::event {
namespace {

using namespace doceph::sim;

struct LoopFixture {
  Env env;
  EventCenter center{env};
  Thread loop;

  LoopFixture()
      : loop(env.keeper(), env.stats(), "loop", nullptr, [this] { center.run(); }) {}
  ~LoopFixture() {  // NOLINT(bugprone-exception-escape): test teardown; a throw fails the binary loudly, which is fine
    center.stop();
    loop.join();
  }

  /// Handlers call this after updating what a wait_until() predicate reads.
  void signal() {
    const dbg::LockGuard lk(m);
    cv.notify_all();
  }

  /// Wait on a sim thread until `done()` holds. The loop runs only while a
  /// sim thread is joined, so its handlers are awaited in simulated time.
  void wait_until(const std::function<bool()>& done) {
    env.run_on_sim_thread([&] {
      dbg::UniqueLock lk(m);
      cv.wait(lk, [&] {
        m.assert_held();
        return done();
      });
    }, "waiter");
  }

  dbg::Mutex m{"t.loop.m"};
  dbg::CondVar cv{env.keeper(), "t.loop.cv"};
};

TEST(EventCenter, DispatchRunsInLoopThread) {
  LoopFixture f;
  std::atomic<bool> ran{false};
  std::atomic<bool> in_loop{false};
  f.center.dispatch([&] {
    in_loop.store(f.center.in_loop_thread());
    ran.store(true);
    f.signal();
  });
  f.wait_until([&] { return ran.load(); });
  EXPECT_TRUE(in_loop.load());
  EXPECT_FALSE(f.center.in_loop_thread());
}

TEST(EventCenter, InLoopThreadIsPerSimThread) {
  // Every sim thread runs on one OS thread: the loop must be identified by
  // sim thread, not by std::this_thread.
  LoopFixture f;
  bool handler_in_loop = false;
  bool other_in_loop = true;
  f.env.run_on_sim_thread([&] {
    dbg::Mutex m("t.inloop.m");
    dbg::CondVar cv(f.env.keeper(), "t.inloop.cv");
    bool ran = false;
    f.center.dispatch([&] {
      const dbg::LockGuard lk(m);
      handler_in_loop = f.center.in_loop_thread();
      ran = true;
      cv.notify_one();
    });
    dbg::UniqueLock lk(m);
    cv.wait(lk, [&] {
      m.assert_held();
      return ran;
    });
    other_in_loop = f.center.in_loop_thread();  // the loop is parked in run()
  });
  EXPECT_TRUE(handler_in_loop);
  EXPECT_FALSE(other_in_loop);
}

TEST(EventCenter, DispatchPreservesOrder) {
  LoopFixture f;
  std::vector<int> order;
  std::atomic<bool> done{false};
  for (int i = 0; i < 10; ++i) {
    f.center.dispatch([&order, i] { order.push_back(i); });
  }
  f.center.dispatch([&] {
    done.store(true);
    f.signal();
  });
  f.wait_until([&] { return done.load(); });
  EXPECT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventCenter, TimerFiresAtSimTime) {
  LoopFixture f;
  std::atomic<Time> fired_at{-1};
  f.center.add_timer(15_ms, [&] {
    fired_at.store(f.env.now());
    f.signal();
  });
  f.wait_until([&] { return fired_at.load() >= 0; });
  EXPECT_EQ(fired_at.load(), 15_ms);
}

TEST(EventCenter, TimersFireInDeadlineOrder) {
  LoopFixture f;
  std::vector<Time> seq;
  std::atomic<int> remaining{3};
  f.center.add_timer(30_ms, [&] {
    seq.push_back(f.env.now());
    remaining.fetch_sub(1);
    f.signal();
  });
  f.center.add_timer(10_ms, [&] {
    seq.push_back(f.env.now());
    remaining.fetch_sub(1);
    f.signal();
  });
  f.center.add_timer(20_ms, [&] {
    seq.push_back(f.env.now());
    remaining.fetch_sub(1);
    f.signal();
  });
  f.wait_until([&] { return remaining.load() == 0; });
  ASSERT_EQ(seq.size(), 3u);
  EXPECT_EQ(seq, (std::vector<Time>{10_ms, 20_ms, 30_ms}));
}

TEST(EventCenter, CancelTimer) {
  LoopFixture f;
  std::atomic<bool> fired{false};
  const auto id = f.center.add_timer(10_ms, [&] { fired.store(true); });
  EXPECT_TRUE(f.center.cancel_timer(id));
  EXPECT_FALSE(f.center.cancel_timer(id));
  Thread t = f.env.spawn("sleeper", nullptr, [&] { f.env.keeper().sleep_for(50_ms); });
  t.join();
  EXPECT_FALSE(fired.load());
}

TEST(EventCenter, TimerCanRearmItself) {
  LoopFixture f;
  std::atomic<int> count{0};
  std::function<void()> tick = [&] {
    if (count.fetch_add(1) + 1 < 5) f.center.add_timer(10_ms, tick);
    f.signal();
  };
  f.center.add_timer(10_ms, tick);
  f.wait_until([&] { return count.load() == 5; });
  EXPECT_EQ(f.env.now(), 50_ms);
  // No sixth timer: a second of simulated time passes with the count at 5.
  f.env.run_on_sim_thread([&] { f.env.keeper().sleep_for(1_s); });
  EXPECT_EQ(count.load(), 5);
}

TEST(EventCenter, StopDrainsPendingDispatches) {
  Env env;
  EventCenter center(env);
  std::atomic<int> ran{0};
  for (int i = 0; i < 5; ++i) center.dispatch([&] { ran.fetch_add(1); });
  center.stop();
  Thread loop(env.keeper(), env.stats(), "loop", nullptr, [&] { center.run(); });
  loop.join();
  EXPECT_EQ(ran.load(), 5);
}

TEST(EventCenter, DispatchFromHandler) {
  LoopFixture f;
  std::atomic<bool> second{false};
  f.center.dispatch([&] {
    f.center.dispatch([&] {
      second.store(true);
      f.signal();
    });
  });
  f.wait_until([&] { return second.load(); });
  SUCCEED();
}

}  // namespace
}  // namespace doceph::event
