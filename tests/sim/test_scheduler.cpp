#include "sim/scheduler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <vector>

#include "sim/env.h"
#include "sim/resource.h"

namespace doceph::sim {
namespace {

TEST(EventScheduler, FiresAtScheduledTime) {
  Env env;
  std::mutex m;
  CondVar cv(env.keeper());
  Time fired_at = -1;
  env.scheduler().schedule_at(25_ms, [&] {
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

TEST(EventScheduler, OrdersEventsByTimeThenFifo) {
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
  env.scheduler().schedule_at(10_ms, [&] { record(2); });
  env.scheduler().schedule_at(5_ms, [&] { record(1); });
  env.scheduler().schedule_at(10_ms, [&] { record(3); });  // same time, later insert
  env.scheduler().schedule_at(20_ms, [&] { record(4); });
  Thread waiter = env.spawn("waiter", nullptr, [&] {
    std::unique_lock<std::mutex> lk(m);
    cv.wait(lk, [&] { return remaining.load() == 0; });
  });
  waiter.join();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(EventScheduler, CancelPreventsFiring) {
  Env env;
  std::atomic<bool> fired{false};
  const auto id = env.scheduler().schedule_at(10_ms, [&] { fired.store(true); });
  EXPECT_TRUE(env.scheduler().cancel(id));
  EXPECT_FALSE(env.scheduler().cancel(id));  // second cancel fails
  // Let time pass beyond the (cancelled) event.
  Thread t = env.spawn("t", nullptr, [&] { env.keeper().sleep_for(50_ms); });
  t.join();
  EXPECT_FALSE(fired.load());
}

TEST(EventScheduler, CallbackCanScheduleMore) {
  Env env;
  std::mutex m;
  CondVar cv(env.keeper());
  std::vector<Time> chain;
  std::function<void()> hop = [&] {
    const std::lock_guard<std::mutex> lk(m);
    chain.push_back(env.now());
    if (chain.size() < 5) {
      env.scheduler().schedule_after(10_ms, hop);
    } else {
      cv.notify_all();
    }
  };
  env.scheduler().schedule_at(10_ms, hop);
  Thread waiter = env.spawn("waiter", nullptr, [&] {
    std::unique_lock<std::mutex> lk(m);
    cv.wait(lk, [&] { return chain.size() == 5; });
  });
  waiter.join();
  EXPECT_EQ(chain, (std::vector<Time>{10_ms, 20_ms, 30_ms, 40_ms, 50_ms}));
}

TEST(EventScheduler, PastTimeFiresImmediately) {
  Env env;
  std::mutex m;
  CondVar cv(env.keeper());
  bool fired = false;
  Thread t = env.spawn("t", nullptr, [&] {
    env.keeper().sleep_for(100_ms);
    env.scheduler().schedule_at(5_ms, [&] {  // long past
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
