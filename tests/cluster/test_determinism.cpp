// Same binary, same seed, same bytes: the TimeKeeper runs one registered
// thread at a time in a fixed order, so a concurrent DoCeph small-write
// scenario repeated in-process must reproduce every latency sample, the
// proxy's Table-3 breakdown, every perf counter and the full trace dump.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "../test_util.h"
#include "cluster/cluster.h"

namespace doceph::cluster {
namespace {

using namespace doceph::sim;
using doceph::testing::pattern;
using doceph::testing::run_sim;

struct RunOutput {
  std::vector<Duration> latencies;  // client-major, op order
  std::string breakdown;
  std::uint64_t proxied_writes = 0;
  std::string perf_dump;
  std::string traces;
  TimeKeeper::SelfStats keeper;
};

/// Four closed-loop clients overwrite their own 16 KB objects on the DoCeph
/// deployment of the production profile, tracing every op.
RunOutput small_write_run(std::uint64_t seed) {
  constexpr int kClients = 4;
  constexpr int kOpsPerClient = 12;
  constexpr int kObjectsPerClient = 3;
  Env env(TimeKeeper::Mode::virtual_time, seed);
  auto cfg = ClusterConfig::testbed(Profile::production, DeployMode::doceph);
  cfg.pg_num = 16;
  Cluster cl(env, cfg);

  RunOutput out;
  std::vector<std::vector<Duration>> lat(kClients);
  run_sim(env, [&] {
    ASSERT_TRUE(cl.start().ok());
    auto io = cl.client().io_ctx(cfg.pool_id);
    env.tracer().set_sample_every(1);
    std::vector<Thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.push_back(env.spawn("bench-client-" + std::to_string(c), nullptr, [&, c] {
        const std::string payload = pattern(16 << 10, static_cast<unsigned>(c + 1));
        for (int i = 0; i < kOpsPerClient; ++i) {
          const Time t0 = env.now();
          const auto st = io.write_full(
              "c" + std::to_string(c) + "-o" + std::to_string(i % kObjectsPerClient),
              BufferList::copy_of(payload));
          EXPECT_TRUE(st.ok()) << st.to_string();
          lat[static_cast<std::size_t>(c)].push_back(env.now() - t0);
        }
      }));
    }
    for (auto& t : clients) t.join();
    env.keeper().sleep_for(10'000'000);  // let reply-side spans retire

    std::ostringstream bd;
    for (int i = 0; i < cl.num_nodes(); ++i) {
      const auto b = cl.proxy_store(i)->breakdown();
      out.proxied_writes += b.count;
      bd << b.count << ' ' << b.total_ns << ' ' << b.dma_ns << ' ' << b.dma_wait_ns
         << ' ' << b.host_write_ns << '\n';
    }
    out.breakdown = bd.str();
    out.perf_dump = cl.admin_dump("perf dump");
    cl.stop();
  });
  for (const auto& l : lat) out.latencies.insert(out.latencies.end(), l.begin(), l.end());
  out.traces = env.tracer().dump_chrome_json();
  out.keeper = env.keeper().self_stats();
  return out;
}

TEST(Determinism, SameSeedDoCephSmallWritesAreByteIdentical) {
  const RunOutput a = small_write_run(2024);
  const RunOutput b = small_write_run(2024);
  ASSERT_EQ(a.latencies.size(), 48u);
  EXPECT_EQ(a.latencies, b.latencies);
  EXPECT_EQ(a.breakdown, b.breakdown);
  EXPECT_EQ(a.perf_dump, b.perf_dump);
  EXPECT_EQ(a.traces, b.traces);
  // The keeper's own counters repeat too, and `perf dump` carries them.
  EXPECT_GT(a.keeper.handoffs, 0u);
  EXPECT_GT(a.keeper.advances, 0u);
  EXPECT_GT(a.keeper.peak_threads, 0);
  EXPECT_EQ(a.keeper.handoffs, b.keeper.handoffs);
  EXPECT_EQ(a.keeper.advances, b.keeper.advances);
  EXPECT_EQ(a.keeper.peak_threads, b.keeper.peak_threads);
  EXPECT_NE(a.perf_dump.find("\"keeper\":{\"handoffs\":"), std::string::npos);
  // Not vacuous: every op went through the proxy and was traced.
  EXPECT_GE(a.proxied_writes, a.latencies.size());
  EXPECT_NE(a.traces.find("dpu.write"), std::string::npos);
}

}  // namespace
}  // namespace doceph::cluster
