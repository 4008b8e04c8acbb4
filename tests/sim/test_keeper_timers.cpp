#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <string>
#include <vector>

#include "sim/env.h"
#include "sim/resource.h"
#include "sim/time_keeper.h"

namespace doceph::sim {
namespace {

TEST(KeeperTimer, FiresAtScheduledTime) {
  Env env;
  std::mutex m;
  CondVar cv(env.keeper());
  Time fired_at = -1;
  env.keeper().call_at(25_ms, [&] {
    const std::lock_guard<std::mutex> lk(m);
    fired_at = env.now();
    cv.notify_all();
  });
  Thread waiter = env.spawn("waiter", nullptr, [&] {
    std::unique_lock<std::mutex> lk(m);
    cv.wait(lk, [&] { return fired_at >= 0; });
  });
  waiter.join();
  EXPECT_EQ(fired_at, 25_ms);
}

TEST(KeeperTimer, OrdersEventsByTimeThenFifo) {
  Env env;
  std::vector<int> order;
  std::mutex m;
  CondVar cv(env.keeper());
  std::atomic<int> remaining{4};
  auto record = [&](int id) {
    const std::lock_guard<std::mutex> lk(m);
    order.push_back(id);
    if (remaining.fetch_sub(1) == 1) cv.notify_all();
  };
  env.keeper().call_at(10_ms, [&] { record(2); });
  env.keeper().call_at(5_ms, [&] { record(1); });
  env.keeper().call_at(10_ms, [&] { record(3); });  // same time, later insert
  env.keeper().call_at(20_ms, [&] { record(4); });
  Thread waiter = env.spawn("waiter", nullptr, [&] {
    std::unique_lock<std::mutex> lk(m);
    cv.wait(lk, [&] { return remaining.load() == 0; });
  });
  waiter.join();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(KeeperTimer, CallbackCanScheduleMore) {
  Env env;
  std::mutex m;
  CondVar cv(env.keeper());
  std::vector<Time> chain;
  std::function<void()> hop = [&] {
    const std::lock_guard<std::mutex> lk(m);
    chain.push_back(env.now());
    if (chain.size() < 5) {
      env.keeper().call_after(10_ms, hop);
    } else {
      cv.notify_all();
    }
  };
  env.keeper().call_at(10_ms, hop);
  Thread waiter = env.spawn("waiter", nullptr, [&] {
    std::unique_lock<std::mutex> lk(m);
    cv.wait(lk, [&] { return chain.size() == 5; });
  });
  waiter.join();
  EXPECT_EQ(chain, (std::vector<Time>{10_ms, 20_ms, 30_ms, 40_ms, 50_ms}));
}

TEST(KeeperTimer, PastTimeFiresImmediately) {
  Env env;
  std::mutex m;
  CondVar cv(env.keeper());
  bool fired = false;
  Thread t = env.spawn("t", nullptr, [&] {
    env.keeper().sleep_for(100_ms);
    env.keeper().call_at(5_ms, [&] {  // long past
      const std::lock_guard<std::mutex> lk(m);
      fired = true;
      cv.notify_all();
    });
    std::unique_lock<std::mutex> lk(m);
    cv.wait(lk, [&] { return fired; });
    EXPECT_EQ(env.now(), 100_ms);  // did not go backwards
  });
  t.join();
  EXPECT_TRUE(fired);
}

// A future callback lowers the blocked timer fiber's deadline in place
// instead of waking it: the only baton grant across the 5 ms sleep is the
// sleeper's own.
TEST(TimeKeeper, FutureCallbackCostsNoHandoff) {
  Env env;
  TimeKeeper& tk = env.keeper();
  bool fired = false;
  env.run_on_sim_thread([&] {
    const std::uint64_t before = tk.self_stats().handoffs;
    tk.call_at(tk.now() + 10_ms, [&] { fired = true; });
    EXPECT_EQ(tk.self_stats().handoffs, before);
    tk.sleep_for(5_ms);
    EXPECT_FALSE(fired);
    EXPECT_EQ(tk.self_stats().handoffs, before + 1);
    tk.sleep_for(10_ms);
    EXPECT_TRUE(fired);
  });
}

// The timer fiber is the keeper's first registered thread, so when the
// clock advances to an instant, the callbacks due then run before the
// threads due then, whichever was booked first.
TEST(TimeKeeper, DueCallbacksRunBeforeThreadsDueAtTheSameInstant) {
  Env env;
  TimeKeeper& tk = env.keeper();
  std::vector<std::string> order;
  Thread early = env.spawn("early", nullptr, [&] {
    tk.sleep_until(10_ms);  // booked before the callback
    order.emplace_back("early");
  });
  env.run_on_sim_thread([&] {
    tk.call_at(10_ms, [&] { order.emplace_back("callback"); });
    tk.sleep_until(10_ms);
    order.emplace_back("driver");
  });
  early.join();
  EXPECT_EQ(order, (std::vector<std::string>{"callback", "early", "driver"}));
}

TEST(TimeKeeperDeathTest, BlockingCallbackAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Env env;
        env.run_on_sim_thread([&] {
          env.keeper().call_after(1_ms, [&] { env.keeper().sleep_for(1_ms); });
          env.keeper().sleep_for(5_ms);
        });
      },
      "sleep_until on the timer fiber: a TimeKeeper::call_at callback must never "
      "block");
}

TEST(SerialResource, SerializesOccupancy) {
  SerialResource r;
  EXPECT_EQ(r.reserve(0, 10), 10);
  EXPECT_EQ(r.reserve(0, 10), 20);   // queued behind the first
  EXPECT_EQ(r.reserve(50, 10), 60);  // idle gap, starts at now
  EXPECT_EQ(r.busy_ns(), 30);
  EXPECT_EQ(r.next_free(), 60);
}

TEST(SerialResource, TransferTimeHelper) {
  EXPECT_EQ(transfer_time(1'000'000, 1e9), 1_ms);          // 1MB at 1GB/s
  EXPECT_EQ(transfer_time(0, 1e9), 0);
  EXPECT_EQ(transfer_time(100, 0.0), 0);                   // degenerate: free
  EXPECT_NEAR(static_cast<double>(transfer_time(2 << 20, 2.6e9)),
              static_cast<double>((2 << 20)) / 2.6, 1.0);
}

}  // namespace
}  // namespace doceph::sim
