#include "sim/cpu_model.h"

#include <gtest/gtest.h>

#include <vector>

#include "sim/env.h"

namespace doceph::sim {
namespace {

TEST(CpuModel, ChargeAdvancesTime) {
  Env env;
  CpuDomain cpu(env.keeper(), "host", 4, 1.0);
  Thread t = env.spawn("worker", &cpu, [&] { cpu.charge(10_ms); });
  t.join();
  EXPECT_EQ(env.now(), 10_ms);
  EXPECT_EQ(cpu.busy_ns(), static_cast<std::uint64_t>(10_ms));
}

TEST(CpuModel, SpeedScalesDuration) {
  Env env;
  CpuDomain slow(env.keeper(), "dpu", 4, 0.5);  // half-speed ARM cores
  Thread t = env.spawn("worker", &slow, [&] { slow.charge(10_ms); });
  t.join();
  EXPECT_EQ(env.now(), 20_ms);
}

TEST(CpuModel, ParallelWithinCoreBudget) {
  Env env;
  CpuDomain cpu(env.keeper(), "host", 4, 1.0);
  std::vector<Thread> ts;
  for (int i = 0; i < 4; ++i)
    ts.push_back(env.spawn("w" + std::to_string(i), &cpu, [&] { cpu.charge(10_ms); }));
  ts.clear();  // joins all via destructors
  // 4 threads on 4 cores run fully parallel.
  EXPECT_EQ(env.now(), 10_ms);
  EXPECT_EQ(cpu.busy_ns(), static_cast<std::uint64_t>(40_ms));
}

TEST(CpuModel, SaturationQueues) {
  Env env;
  CpuDomain cpu(env.keeper(), "host", 1, 1.0);
  std::vector<Thread> ts;
  for (int i = 0; i < 3; ++i)
    ts.push_back(env.spawn("w" + std::to_string(i), &cpu, [&] { cpu.charge(10_ms); }));
  ts.clear();
  // One core, three 10ms jobs: 30ms total.
  EXPECT_EQ(env.now(), 30_ms);
}

TEST(CpuModel, AccountsToThreadStats) {
  Env env;
  CpuDomain cpu(env.keeper(), "host", 2, 1.0);
  Thread t(env.keeper(), env.stats(), "msgr-worker-0", &cpu, [&] { cpu.charge(7_ms); });
  t.join();
  EXPECT_EQ(env.stats().class_cpu_ns(ThreadClass::messenger),
            static_cast<std::uint64_t>(7_ms));
  EXPECT_EQ(env.stats().class_cpu_ns(ThreadClass::objectstore), 0u);
}

TEST(CpuModel, UtilizationWindow) {
  Env env;
  CpuDomain cpu(env.keeper(), "host", 2, 1.0);
  const auto busy0 = cpu.busy_ns();
  const Time t0 = env.now();
  Thread t = env.spawn("w", &cpu, [&] {
    cpu.charge(5_ms);
    env.keeper().sleep_for(5_ms);  // idle
  });
  t.join();
  const double util =
      CpuDomain::utilization(busy0, cpu.busy_ns(), env.now() - t0, cpu.cores());
  // 5ms busy on one of two cores over 10ms => 25%.
  EXPECT_NEAR(util, 0.25, 1e-9);
}

TEST(CpuModel, ZeroChargeIsNoOp) {
  Env env;
  CpuDomain cpu(env.keeper(), "host", 1, 1.0);
  Thread t = env.spawn("w", &cpu, [&] {
    cpu.charge(0);
    cpu.charge(-5);
  });
  t.join();
  EXPECT_EQ(env.now(), 0);
  EXPECT_EQ(cpu.busy_ns(), 0u);
}

}  // namespace
}  // namespace doceph::sim
