#include "sim/thread.h"

#include <future>

#include "common/thread_name.h"
#include "sim/cpu_model.h"

namespace doceph::sim {

Thread::Thread(TimeKeeper& tk, StatsRegistry& stats, std::string name,
               CpuDomain* domain, std::function<void()> body, bool daemon)
    : latch_(std::make_shared<ExitLatch>(tk)) {
  std::promise<void> registered;
  auto registered_future = registered.get_future();
  impl_ = std::thread([&tk, &stats, name = std::move(name), domain,
                       body = std::move(body), daemon, &registered,
                       latch = latch_]() mutable {
    set_current_thread_name(name);
    auto thread_stats =
        stats.add(std::move(name), domain != nullptr ? domain->name() : "");
    const ScopedExecContext ctx(&tk, domain, thread_stats);
    // Join the run queue, release the spawner, and only then wait for the
    // baton: a registered spawner holds the baton until the promise is set.
    tk.enroll_current_thread(thread_stats, daemon);
    registered.set_value();  // spawner may proceed; `registered` dies after this
    tk.await_baton();
    body();
    {
      // Signal the exit latch while still registered: a sim-thread joiner
      // wakes in simulated time, and only the (instant, real-time) OS reap
      // remains after we unregister.
      const dbg::LockGuard lk(latch->m);
      latch->exited = true;
      latch->cv.notify_all();
    }
    tk.unregister_current_thread();
  });
  // Real-time wait (not simulated): a registered spawner keeps the baton, so
  // nothing else runs and the clock cannot advance while we synchronize.
  registered_future.wait();
}

void Thread::join() {
  if (!impl_.joinable()) return;
  if (latch_ != nullptr && latch_->tk.current_thread_registered()) {
    dbg::UniqueLock lk(latch_->m);
    latch_->cv.wait(lk, [&] { return latch_->exited; });
  }
  impl_.join();
}

}  // namespace doceph::sim
