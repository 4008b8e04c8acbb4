#pragma once

#include <algorithm>

#include "dbg/mutex.h"
#include "sim/time_keeper.h"

namespace doceph::dbg {

/// sim::CondVar with lockdep instrumentation: the drop-in condition variable
/// for code using dbg::Mutex. Semantics are sim::CondVar's (waits park the
/// thread in simulated time; notifies queue it for the baton at the current
/// instant), and every wait runs check (c) from dbg/lockdep.h naming this
/// condvar: a registered sim thread must not wait while holding any tracked
/// lock other than the one it is waiting with — the extra lock would stay
/// held across the park, and the first contender would block the baton
/// holder and with it the whole simulation.
///
/// Header-only by design: dbg's compiled core stays free of sim so the
/// dependency arrow runs sim -> dbg only.
///
/// Thread-safety analysis: wait() atomically releases and reacquires the
/// lock inside the substrate, invisible to the analysis — which matches the
/// caller-visible contract (the lock is held before and after), so no
/// annotation is needed or possible (the mutex identity lives inside `lk`).
class CondVar {
 public:
  /// `name` appears in lockdep reports (e.g. "bluestore.aio_cv").
  explicit CondVar(sim::TimeKeeper& tk, const char* name = "dbg::CondVar") noexcept
      : cv_(tk), name_(name) {}

  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(UniqueLock& lk) { (void)wait_until(lk, sim::kTimeInfinity); }

  /// Waits until notified or `deadline` (simulated); false on timeout.
  [[nodiscard]] bool wait_until(UniqueLock& lk, sim::Time deadline) {
    return cv_.wait_until(lk.inner(), deadline, lk.mutex(), name_);
  }

  [[nodiscard]] bool wait_for(UniqueLock& lk, sim::Duration d) {
    return wait_until(lk, keeper().now() + std::max<sim::Duration>(d, 0));
  }

  template <typename Pred>
  void wait(UniqueLock& lk, Pred pred) {
    while (!pred()) wait(lk);
  }

  /// Waits until pred() or the deadline; returns pred() (std-compatible).
  template <typename Pred>
  bool wait_until(UniqueLock& lk, sim::Time deadline, Pred pred) {
    while (!pred()) {
      if (!wait_until(lk, deadline)) return pred();
    }
    return true;
  }

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

  [[nodiscard]] sim::TimeKeeper& keeper() const noexcept { return cv_.keeper(); }

 private:
  sim::CondVar cv_;
  const char* name_;
};

}  // namespace doceph::dbg
