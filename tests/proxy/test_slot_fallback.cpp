#include <gtest/gtest.h>

#include "../test_util.h"
#include "proxy/fallback.h"
#include "proxy/slot_pool.h"

namespace doceph::proxy {
namespace {

using namespace doceph::sim;
using doceph::testing::run_sim;

TEST(SlotPool, AcquireReleaseCycle) {
  Env env;
  SlotPool pool(env, 2, 4096);
  EXPECT_EQ(pool.capacity(), 2);
  EXPECT_EQ(pool.slot_size(), 4096u);
  run_sim(env, [&] {
    const int a = pool.acquire();
    const int b = pool.acquire();
    EXPECT_NE(a, b);
    EXPECT_FALSE(pool.try_acquire().has_value());
    pool.release(a);
    auto c = pool.try_acquire();
    ASSERT_TRUE(c.has_value());
    EXPECT_EQ(*c, a);  // FIFO recycle
    pool.release(b);
    pool.release(*c);
  });
  EXPECT_EQ(pool.total_wait_ns(), 0);
}

TEST(SlotPool, BlockedAcquireWaitsAndAccounts) {
  Env env;
  SlotPool pool(env, 1, 4096);
  run_sim(env, [&] {
    const int a = pool.acquire();
    // Free the slot 5 ms from now.
    env.keeper().call_after(5'000'000, [&, a] { pool.release(a); });
    const Time t0 = env.now();
    const int b = pool.acquire();  // blocks until the release
    EXPECT_EQ(env.now() - t0, 5'000'000);
    pool.release(b);
  });
  EXPECT_EQ(pool.total_wait_ns(), 5'000'000);
}

TEST(SlotPool, BuffersAreDisjointAndPaired) {
  Env env;
  SlotPool pool(env, 4, 1024);
  for (int i = 0; i < 4; ++i) {
    auto d = pool.dpu_buf(i, 1024);
    auto h = pool.host_buf(i, 1024);
    ASSERT_TRUE(d.valid());
    ASSERT_TRUE(h.valid());
    EXPECT_EQ(d.off, static_cast<std::size_t>(i) * 1024);
    EXPECT_EQ(h.off, d.off);
    EXPECT_NE(d.mmap.get(), h.mmap.get());  // DPU vs host memory
  }
}

TEST(SlotPool, ManyContendersAllServed) {
  Env env;
  SlotPool pool(env, 2, 64);
  std::atomic<int> served{0};
  run_sim(env, [&] {
    std::vector<Thread> workers;
    for (int i = 0; i < 10; ++i) {
      workers.push_back(env.spawn("w" + std::to_string(i), nullptr, [&] {
        const int s = pool.acquire();
        env.keeper().sleep_for(1'000'000);
        pool.release(s);
        served.fetch_add(1);
      }));
    }
    workers.clear();
  });
  EXPECT_EQ(served.load(), 10);
  // 10 holders x 1ms over 2 slots => at least 8 slot-waits happened.
  EXPECT_GE(pool.total_wait_ns(), 3'000'000);
}

TEST(FallbackManager, StartsEnabled) {
  FallbackManager f(1'000'000);
  EXPECT_TRUE(f.dma_enabled());
  EXPECT_EQ(f.choose(0), FallbackManager::Path::dma);
  EXPECT_EQ(f.failures(), 0u);
}

TEST(FallbackManager, FailureTripsCooldown) {
  FallbackManager f(1'000'000);  // 1 ms cooldown
  f.on_dma_failure(100);
  EXPECT_FALSE(f.dma_enabled());
  EXPECT_EQ(f.failures(), 1u);
  // During cooldown everything routes to RPC.
  EXPECT_EQ(f.choose(500), FallbackManager::Path::rpc);
  EXPECT_EQ(f.choose(1'000'000), FallbackManager::Path::rpc);
}

TEST(FallbackManager, ProbeAfterExpiryThenRecovery) {
  FallbackManager f(1'000'000);
  f.on_dma_failure(0);
  // Past expiry: exactly ONE caller gets the probe; others stay on RPC.
  EXPECT_EQ(f.choose(2'000'000), FallbackManager::Path::probe);
  EXPECT_EQ(f.choose(2'000'001), FallbackManager::Path::rpc);
  f.on_dma_success();
  EXPECT_TRUE(f.dma_enabled());
  EXPECT_EQ(f.choose(2'000'002), FallbackManager::Path::dma);
}

TEST(FallbackManager, FailedProbeExtendsCooldown) {
  FallbackManager f(1'000'000);
  f.on_dma_failure(0);
  EXPECT_EQ(f.choose(1'500'000), FallbackManager::Path::probe);
  f.on_dma_failure(1'500'000);  // probe failed
  EXPECT_EQ(f.failures(), 2u);
  EXPECT_EQ(f.choose(2'000'000), FallbackManager::Path::rpc);  // new expiry 2.5ms
  EXPECT_EQ(f.choose(2'600'000), FallbackManager::Path::probe);
}

TEST(FallbackManager, RepeatedFailuresCount) {
  FallbackManager f(10);
  for (int i = 0; i < 5; ++i) f.on_dma_failure(i * 100);
  EXPECT_EQ(f.failures(), 5u);
}

}  // namespace
}  // namespace doceph::proxy
