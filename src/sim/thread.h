#pragma once

#include <functional>
#include <memory>
#include <string>
#include <thread>

#include "dbg/cond_var.h"
#include "dbg/mutex.h"
#include "sim/exec_context.h"
#include "sim/stats.h"
#include "sim/time_keeper.h"

namespace doceph::sim {

class CpuDomain;

/// A named simulation thread: a std::thread that, before running its body,
/// names itself, registers with the TimeKeeper, allocates ThreadStats in the
/// registry, and installs the ambient ExecContext (keeper + CPU domain).
/// The constructor returns only after registration completed, so simulated
/// time cannot advance past the new thread's first wait; the new thread
/// first runs when the baton reaches it (see TimeKeeper).
///
/// join() is safe from registered sim threads: it first waits on an exit
/// latch in *simulated* time (so the clock can keep advancing while the
/// target winds down), then reaps the OS thread. Joins in the destructor.
/// `daemon` marks service threads that park forever when idle (see
/// TimeKeeper::register_current_thread).
class Thread {
 public:
  Thread() = default;

  Thread(TimeKeeper& tk, StatsRegistry& stats, std::string name, CpuDomain* domain,
         std::function<void()> body, bool daemon = false);

  Thread(Thread&&) = default;
  /// Joins the currently owned thread first, which blocks (in simulated
  /// time) and can throw via std::thread::join — hence not noexcept.
  Thread& operator=(Thread&& other) {
    if (this == &other) return *this;
    join();
    impl_ = std::move(other.impl_);
    latch_ = std::move(other.latch_);
    return *this;
  }
  Thread(const Thread&) = delete;
  Thread& operator=(const Thread&) = delete;

  ~Thread() { join(); }  // NOLINT(bugprone-exception-escape): join at scope exit; a throw terminates, by design

  void join();
  [[nodiscard]] bool joinable() const noexcept { return impl_.joinable(); }

 private:
  struct ExitLatch {
    TimeKeeper& tk;
    dbg::Mutex m{"sim.thread_exit"};
    dbg::CondVar cv;
    bool exited = false;
    explicit ExitLatch(TimeKeeper& keeper)
        : tk(keeper), cv(keeper, "sim.thread_exit") {}
  };

  std::thread impl_;
  std::shared_ptr<ExitLatch> latch_;
};

}  // namespace doceph::sim
