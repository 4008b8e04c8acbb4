#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "dbg/cond_var.h"
#include "dbg/lockdep.h"
#include "dbg/mutex.h"
#include "sim/cpu_model.h"
#include "sim/thread.h"
#include "sim/time_keeper.h"

namespace doceph::dbg {
namespace {

namespace ld = lockdep;

/// Installs a recording handler for the test's lifetime.
class Recorder {
 public:
  Recorder() {
    prev_ = ld::set_handler([this](const ld::Violation& v) { seen.push_back(v); });
  }
  ~Recorder() { ld::set_handler(std::move(prev_)); }  // NOLINT(bugprone-exception-escape): test teardown; a throw fails the binary loudly, which is fine
  std::vector<ld::Violation> seen;

 private:
  ld::Handler prev_;
};

struct AbortAcquire : std::runtime_error {
  AbortAcquire() : std::runtime_error("lockdep violation") {}
};

/// Runs `body` on a sim thread of `tk` and joins it: keeper blocks (and so
/// check (c)) happen only on sim threads.
void run_on_sim_thread(sim::TimeKeeper& tk, const std::function<void()>& body) {
  sim::StatsRegistry stats;
  sim::Thread(tk, stats, "lockdep-test", nullptr, body).join();
}

class LockdepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = ld::enabled();
    ld::set_enabled(true);
    ld::reset_graph_for_testing();
  }
  void TearDown() override {
    ld::reset_graph_for_testing();
    ld::set_enabled(was_enabled_);
  }

 private:
  bool was_enabled_ = false;
};

TEST_F(LockdepTest, ConsistentOrderingStaysSilent) {
  Recorder rec;
  Mutex a("t.consistent.a");
  Mutex b("t.consistent.b");
  for (int i = 0; i < 3; ++i) {
    const LockGuard la(a);
    const LockGuard lb(b);
  }
  // a -> b -> c extends the chain without closing anything.
  Mutex c("t.consistent.c");
  {
    const LockGuard lb(b);
    const LockGuard lc(c);
  }
  {
    const LockGuard la(a);
    const LockGuard lc(c);
  }
  EXPECT_TRUE(rec.seen.empty());
  EXPECT_EQ(ld::held_count(), 0u);
}

TEST_F(LockdepTest, DirectInversionDetected) {
  Recorder rec;
  Mutex a("t.inv.a");
  Mutex b("t.inv.b");
  {
    const LockGuard la(a);
    const LockGuard lb(b);  // records a -> b
  }
  {
    const LockGuard lb(b);
    const LockGuard la(a);  // a while holding b: cycle
  }
  ASSERT_EQ(rec.seen.size(), 1u);
  EXPECT_EQ(rec.seen[0].kind, ld::Violation::Kind::lock_inversion);
  EXPECT_NE(rec.seen[0].report.find("t.inv.a"), std::string::npos);
  EXPECT_NE(rec.seen[0].report.find("t.inv.b"), std::string::npos);
  EXPECT_NE(rec.seen[0].report.find("LOCK-ORDER INVERSION"), std::string::npos);
}

TEST_F(LockdepTest, TransitiveCycleDetected) {
  Recorder rec;
  Mutex a("t.cycle3.a");
  Mutex b("t.cycle3.b");
  Mutex c("t.cycle3.c");
  {
    const LockGuard la(a);
    const LockGuard lb(b);  // a -> b
  }
  {
    const LockGuard lb(b);
    const LockGuard lc(c);  // b -> c
  }
  {
    const LockGuard lc(c);
    const LockGuard la(a);  // closes a -> b -> c -> a
  }
  ASSERT_EQ(rec.seen.size(), 1u);
  EXPECT_EQ(rec.seen[0].kind, ld::Violation::Kind::lock_inversion);
  // The report shows the full chain.
  EXPECT_NE(rec.seen[0].report.find("t.cycle3.a"), std::string::npos);
  EXPECT_NE(rec.seen[0].report.find("t.cycle3.b"), std::string::npos);
  EXPECT_NE(rec.seen[0].report.find("t.cycle3.c"), std::string::npos);
}

TEST_F(LockdepTest, InversionReportedOnceNotEveryTime) {
  Recorder rec;
  Mutex a("t.once.a");
  Mutex b("t.once.b");
  {
    const LockGuard la(a);
    const LockGuard lb(b);
  }
  for (int i = 0; i < 5; ++i) {
    const LockGuard lb(b);
    const LockGuard la(a);
  }
  // The cycle-closing edge is never recorded, so each reverse acquisition
  // re-detects the same cycle — but the graph stays acyclic.
  EXPECT_EQ(rec.seen.size(), 5u);
  for (const auto& v : rec.seen)
    EXPECT_EQ(v.kind, ld::Violation::Kind::lock_inversion);
}

TEST_F(LockdepTest, RecursiveSelfLockDetected) {
  // A handler that throws aborts the second acquisition, so the test does
  // not actually self-deadlock on the underlying std::mutex.
  auto prev = ld::set_handler([](const ld::Violation& v) {
    EXPECT_EQ(v.kind, ld::Violation::Kind::recursive_lock);
    EXPECT_NE(v.report.find("RECURSIVE LOCK"), std::string::npos);
    EXPECT_NE(v.report.find("self-deadlock"), std::string::npos);
    throw AbortAcquire();
  });
  Mutex m("t.recursive.m");
  m.lock();
  EXPECT_THROW(m.lock(), AbortAcquire);
  EXPECT_EQ(ld::held_count(), 1u);
  m.unlock();
  EXPECT_EQ(ld::held_count(), 0u);
  ld::set_handler(std::move(prev));
}

TEST_F(LockdepTest, SameClassNestingDetectedUnlessRankOrdered) {
  {
    Recorder rec;
    Mutex m1("t.sameclass.plain");
    Mutex m2("t.sameclass.plain");
    const LockGuard l1(m1);
    const LockGuard l2(m2);  // two instances, no declared order: potential ABBA
    ASSERT_EQ(rec.seen.size(), 1u);
    EXPECT_EQ(rec.seen[0].kind, ld::Violation::Kind::recursive_lock);
  }
  {
    Recorder rec;
    Mutex m1("t.sameclass.ranked", /*rank_ordered=*/true);
    Mutex m2("t.sameclass.ranked", /*rank_ordered=*/true);
    const LockGuard l1(m1);
    const LockGuard l2(m2);
    EXPECT_TRUE(rec.seen.empty());
  }
}

TEST_F(LockdepTest, CondWaitWhileHoldingUnrelatedLock) {
  Recorder rec;
  sim::TimeKeeper tk(sim::TimeKeeper::Mode::virtual_time);
  Mutex other("t.cw.other");
  Mutex m("t.cw.waitm");
  CondVar cv(tk, "t.cw.cv");

  run_on_sim_thread(tk, [&] {
    other.lock();
    {
      UniqueLock lk(m);
      // Nobody will notify: the single sim thread is parked, the clock
      // jumps to the deadline, and the wait times out in zero wall time.
      EXPECT_FALSE(cv.wait_for(lk, 1000));
    }
    other.unlock();
  });

  ASSERT_EQ(rec.seen.size(), 1u);
  EXPECT_EQ(rec.seen[0].kind, ld::Violation::Kind::cond_wait_holding);
  EXPECT_NE(rec.seen[0].report.find("t.cw.other"), std::string::npos);
  EXPECT_NE(rec.seen[0].report.find("t.cw.cv"), std::string::npos);
}

TEST_F(LockdepTest, SleepWhileHoldingLockReported) {
  Recorder rec;
  sim::TimeKeeper tk(sim::TimeKeeper::Mode::virtual_time);
  Mutex held("t.sleep.held");

  run_on_sim_thread(tk, [&] {
    {
      const LockGuard l(held);
      // A sleep has no lock of its own: every tracked lock is extra.
      tk.sleep_for(1000);
    }
    tk.sleep_for(1000);  // nothing held: silent
  });

  ASSERT_EQ(rec.seen.size(), 1u);
  EXPECT_EQ(rec.seen[0].kind, ld::Violation::Kind::cond_wait_holding);
  EXPECT_NE(rec.seen[0].report.find("t.sleep.held"), std::string::npos);
  EXPECT_NE(rec.seen[0].report.find("sleep_until"), std::string::npos);
}

TEST_F(LockdepTest, ChargeWhileHoldingLockReported) {
  Recorder rec;
  sim::TimeKeeper tk(sim::TimeKeeper::Mode::virtual_time);
  sim::CpuDomain cpu(tk, "t.charge.cpu", /*cores=*/1, /*speed=*/1.0);
  Mutex held("t.charge.held");

  run_on_sim_thread(tk, [&] {
    {
      const LockGuard l(held);
      cpu.charge(1000);  // occupies a modeled core: a keeper sleep
    }
    EXPECT_EQ(tk.now(), 1000);
  });

  ASSERT_EQ(rec.seen.size(), 1u);
  EXPECT_EQ(rec.seen[0].kind, ld::Violation::Kind::cond_wait_holding);
  EXPECT_NE(rec.seen[0].report.find("t.charge.held"), std::string::npos);
}

TEST_F(LockdepTest, CondWaitHoldingOnlyItsMutexIsFine) {
  Recorder rec;
  sim::TimeKeeper tk(sim::TimeKeeper::Mode::virtual_time);
  Mutex m("t.cwok.m");
  CondVar cv(tk, "t.cwok.cv");

  run_on_sim_thread(tk, [&] {
    UniqueLock lk(m);
    EXPECT_FALSE(cv.wait_for(lk, 1000));
  });
  EXPECT_TRUE(rec.seen.empty());
}

TEST_F(LockdepTest, OutsideJoinWhileHoldingLockReported) {
  Recorder rec;
  sim::TimeKeeper tk(sim::TimeKeeper::Mode::virtual_time);
  Mutex held("t.join.held");
  {
    // An outside join runs the simulation on this thread, so a sim thread
    // that took `held` would deadlock against it.
    const LockGuard l(held);
    run_on_sim_thread(tk, [&] { tk.sleep_for(1000); });
  }
  ASSERT_EQ(rec.seen.size(), 1u);
  EXPECT_EQ(rec.seen[0].kind, ld::Violation::Kind::cond_wait_holding);
  EXPECT_NE(rec.seen[0].report.find("t.join.held"), std::string::npos);
  EXPECT_NE(rec.seen[0].report.find("sim::Thread::join"), std::string::npos);
}

TEST_F(LockdepTest, TryLockInReverseOrderIsAllowed) {
  Recorder rec;
  Mutex a("t.try.a");
  Mutex b("t.try.b");
  {
    const LockGuard la(a);
    const LockGuard lb(b);  // a -> b
  }
  {
    const LockGuard lb(b);
    ASSERT_TRUE(a.try_lock());  // reverse probe: legitimate, no report
    a.unlock();
  }
  EXPECT_TRUE(rec.seen.empty());
  // And the probe did not poison the graph: the forward order still works.
  {
    const LockGuard la(a);
    const LockGuard lb(b);
  }
  EXPECT_TRUE(rec.seen.empty());
}

TEST_F(LockdepTest, DisabledCheckerIsSilent) {
  Recorder rec;
  ld::set_enabled(false);
  Mutex a("t.off.a");
  Mutex b("t.off.b");
  {
    const LockGuard la(a);
    const LockGuard lb(b);
  }
  {
    const LockGuard lb(b);
    const LockGuard la(a);
  }
  EXPECT_TRUE(rec.seen.empty());
  ld::set_enabled(true);
}

TEST_F(LockdepTest, UniqueLockDeferAndMove) {
  Mutex m("t.ul.m");
  UniqueLock lk(m, std::defer_lock);
  EXPECT_FALSE(lk.owns_lock());
  EXPECT_EQ(ld::held_count(), 0u);
  lk.lock();
  EXPECT_TRUE(lk.owns_lock());
  EXPECT_EQ(ld::held_count(), 1u);
  UniqueLock moved(std::move(lk));
  EXPECT_TRUE(moved.owns_lock());
  EXPECT_EQ(ld::held_count(), 1u);
  moved.unlock();
  EXPECT_EQ(ld::held_count(), 0u);
}

}  // namespace
}  // namespace doceph::dbg
