#include "bluestore/block_device.h"

#include <gtest/gtest.h>

#include "../test_util.h"

namespace doceph::bluestore {
namespace {

using namespace doceph::sim;
using doceph::testing::pattern;
using doceph::testing::run_sim;

BlockDeviceConfig small_cfg() {
  BlockDeviceConfig cfg;
  cfg.size_bytes = 1 << 30;
  cfg.write_bw = 500e6;
  cfg.read_bw = 500e6;
  cfg.write_latency = 50_us;
  cfg.read_latency = 80_us;
  return cfg;
}

TEST(BlockDevice, WriteThenReadBack) {
  Env env;
  BlockDevice dev(env, small_cfg());
  const std::string data = pattern(128 << 10);
  run_sim(env, [&] {
    ASSERT_TRUE(dev.write(4096, BufferList::copy_of(data)).ok());
    auto r = dev.read(4096, data.size());
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->to_string(), data);
  });
  EXPECT_EQ(dev.bytes_written(), data.size());
  EXPECT_EQ(dev.bytes_read(), data.size());
}

TEST(BlockDevice, UnwrittenRangesReadZero) {
  Env env;
  BlockDevice dev(env, small_cfg());
  run_sim(env, [&] {
    auto r = dev.read(1 << 20, 64);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->to_string(), std::string(64, '\0'));
  });
}

TEST(BlockDevice, WriteTimingMatchesModel) {
  Env env;
  BlockDevice dev(env, small_cfg());
  run_sim(env, [&] {
    const Time t0 = env.now();
    ASSERT_TRUE(dev.write(0, BufferList::copy_of(pattern(1 << 20))).ok());
    const Duration took = env.now() - t0;
    // 1 MiB at 500 MB/s ≈ 2.097 ms + 50 us latency.
    const Duration expect = transfer_time(1 << 20, 500e6) + 50_us;
    EXPECT_EQ(took, expect);
  });
}

TEST(BlockDevice, ConcurrentWritesSerializeOnChannel) {
  Env env;
  BlockDevice dev(env, small_cfg());
  run_sim(env, [&] {
    std::mutex m;
    CondVar cv(env.keeper());
    int done = 0;
    Time last = 0;
    for (int i = 0; i < 4; ++i) {
      dev.aio_write(static_cast<std::uint64_t>(i) << 21,
                    BufferList::copy_of(pattern(1 << 20)), [&](Status st) {
                      ASSERT_TRUE(st.ok());
                      const std::lock_guard<std::mutex> lk(m);
                      ++done;
                      last = env.now();
                      cv.notify_all();
                    });
    }
    std::unique_lock<std::mutex> lk(m);
    cv.wait(lk, [&] { return done == 4; });
    // Four 1 MiB writes serialized: >= 4 * bytes/bw.
    EXPECT_GE(last, 4 * transfer_time(1 << 20, 500e6));
  });
}

TEST(BlockDevice, OutOfRangeRejected) {
  Env env;
  BlockDevice dev(env, small_cfg());
  run_sim(env, [&] {
    EXPECT_EQ(dev.write(dev.size() - 10, BufferList::copy_of(pattern(100))).code(),
              Errc::range_error);
    auto r = dev.read(dev.size(), 1);
    EXPECT_EQ(r.status().code(), Errc::range_error);
  });
}

TEST(BlockDevice, BackingSurvivesDeviceRecreation) {
  Env env;
  auto cfg = small_cfg();
  std::shared_ptr<DeviceBacking> backing;
  {
    BlockDevice dev(env, cfg);
    backing = dev.backing();
    run_sim(env, [&] { ASSERT_TRUE(dev.write(0, BufferList::copy_of("persist")).ok()); });
  }
  BlockDevice dev2(env, cfg, backing);
  run_sim(env, [&] {
    auto r = dev2.read(0, 7);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->to_string(), "persist");
  });
}

TEST(BlockDevice, RetentionOffDiscardsDataRegionOnly) {
  Env env;
  auto cfg = small_cfg();
  cfg.retain_data = false;
  cfg.retain_below = 1 << 20;
  BlockDevice dev(env, cfg);
  run_sim(env, [&] {
    ASSERT_TRUE(dev.write(0, BufferList::copy_of("keep-me")).ok());
    ASSERT_TRUE(dev.write(2 << 20, BufferList::copy_of("drop-me")).ok());
    EXPECT_EQ(dev.read(0, 7)->to_string(), "keep-me");
    EXPECT_EQ(dev.read(2 << 20, 7)->to_string(), std::string(7, '\0'));
  });
}

TEST(BlockDevice, FlushCompletesAfterPriorWrites) {
  Env env;
  BlockDevice dev(env, small_cfg());
  run_sim(env, [&] {
    std::mutex m;
    CondVar cv(env.keeper());
    bool write_done = false, flush_done = false;
    dev.aio_write(0, BufferList::copy_of(pattern(4 << 20)), [&](Status) {
      const std::lock_guard<std::mutex> lk(m);
      write_done = true;
      cv.notify_all();
    });
    dev.flush([&](Status) {
      const std::lock_guard<std::mutex> lk(m);
      // Channel drained => the write's channel occupancy has passed.
      flush_done = true;
      cv.notify_all();
    });
    std::unique_lock<std::mutex> lk(m);
    cv.wait(lk, [&] { return write_done && flush_done; });
    SUCCEED();
  });
}

TEST(BlockDevice, SparseBackingChunkBoundaries) {
  Env env;
  BlockDevice dev(env, small_cfg());
  // Straddle a 256 KiB chunk boundary.
  const std::uint64_t off = DeviceBacking::kChunk - 100;
  const std::string data = pattern(300);
  run_sim(env, [&] {
    ASSERT_TRUE(dev.write(off, BufferList::copy_of(data)).ok());
    EXPECT_EQ(dev.read(off, 300)->to_string(), data);
    // Bytes around the write are still zero.
    EXPECT_EQ(dev.read(off - 10, 10)->to_string(), std::string(10, '\0'));
    EXPECT_EQ(dev.read(off + 300, 10)->to_string(), std::string(10, '\0'));
  });
}

TEST(BlockDevice, DiscardFreesWholeChunksOnly) {
  Env env;
  BlockDevice dev(env, small_cfg());
  constexpr std::uint64_t kChunk = DeviceBacking::kChunk;
  const std::string data = pattern(3 * kChunk);
  run_sim(env, [&] {
    ASSERT_TRUE(dev.write(0, BufferList::copy_of(data)).ok());
    EXPECT_EQ(dev.backing()->resident_bytes(), 3 * kChunk);
    // [100, 2 chunks + 100) covers chunk 1 only: chunks 0 and 2 keep every
    // byte, chunk 1 reads back as zeros and no longer takes memory.
    dev.discard(100, 2 * kChunk);
    EXPECT_EQ(dev.backing()->resident_bytes(), 2 * kChunk);
    EXPECT_EQ(dev.read(0, kChunk)->to_string(), data.substr(0, kChunk));
    EXPECT_EQ(dev.read(kChunk, kChunk)->to_string(), std::string(kChunk, '\0'));
    EXPECT_EQ(dev.read(2 * kChunk, kChunk)->to_string(),
              data.substr(2 * kChunk, kChunk));
    dev.discard(kChunk / 2, kChunk / 4);  // inside one chunk: a no-op
    EXPECT_EQ(dev.backing()->resident_bytes(), 2 * kChunk);
  });
}

}  // namespace
}  // namespace doceph::bluestore
