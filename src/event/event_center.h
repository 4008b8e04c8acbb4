#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>

#include "dbg/cond_var.h"
#include "dbg/mutex.h"

#include "sim/env.h"
#include "sim/time_keeper.h"

namespace doceph::event {

/// An epoll-style event loop, mirroring Ceph AsyncMessenger's EventCenter:
/// one owning thread calls run(); other threads hand it work via dispatch()
/// (the analogue of a readiness notification through the wakeup pipe) and
/// timers fire in the loop thread. All handlers therefore execute serially
/// in the owner thread — connection state machines need no further locking.
class EventCenter {
 public:
  using Handler = std::function<void()>;
  using TimerId = std::uint64_t;

  explicit EventCenter(sim::Env& env);
  ~EventCenter();

  EventCenter(const EventCenter&) = delete;
  EventCenter& operator=(const EventCenter&) = delete;

  /// A weak dispatch handle. Deliveries booked as keeper timed callbacks
  /// (socket data, accept handshakes) can fire after the center that should
  /// receive them is destroyed; a raw EventCenter* there is a use-after-free.
  /// A Handle dispatches while the center is alive and silently drops the
  /// event afterwards. Copyable, default-constructed handles drop everything.
  class Handle {
   public:
    Handle() = default;

    /// Queue `h` on the center if it is still alive; otherwise drop it.
    void dispatch(Handler h) const;

    [[nodiscard]] explicit operator bool() const noexcept {
      return state_ != nullptr;
    }

   private:
    friend class EventCenter;
    struct State;
    explicit Handle(std::shared_ptr<State> s) : state_(std::move(s)) {}
    std::shared_ptr<State> state_;
  };

  /// A handle that outlives this center safely.
  [[nodiscard]] Handle handle();

  /// Event loop; call from the owning thread. Returns after stop().
  void run();

  /// Ask the loop to exit (thread-safe); pending handlers are drained first.
  void stop();

  /// Queue `h` to run in the loop thread (thread-safe). Handlers run in
  /// dispatch order, interleaved with due timers.
  void dispatch(Handler h);

  /// Arm a one-shot timer `d` from now; fires in the loop thread.
  TimerId add_timer(sim::Duration d, Handler h);
  /// Best-effort cancel; true if the timer had not fired.
  bool cancel_timer(TimerId id);

  /// True when called from the sim thread currently inside run(). Sim
  /// threads share one OS thread, so this compares sim-thread identities
  /// (sim::TimeKeeper::current_thread()), not OS thread ids.
  [[nodiscard]] bool in_loop_thread() const noexcept {
    const void* loop = loop_thread_.load();
    return loop != nullptr && loop == sim::TimeKeeper::current_thread();
  }

  [[nodiscard]] sim::Env& env() noexcept { return env_; }

  /// Number of loop wakeups that found work (diagnostics).
  [[nodiscard]] std::uint64_t wakeups() const noexcept {
    return wakeups_.load(std::memory_order_relaxed);
  }

 private:
  sim::Env& env_;
  dbg::Mutex mutex_{"event.center"};
  dbg::CondVar cv_;
  std::deque<Handler> pending_ DOCEPH_GUARDED_BY(mutex_);
  std::map<std::pair<sim::Time, TimerId>, Handler> timers_
      DOCEPH_GUARDED_BY(mutex_);
  TimerId next_timer_id_ DOCEPH_GUARDED_BY(mutex_) = 1;
  bool stopping_ DOCEPH_GUARDED_BY(mutex_) = false;
  std::atomic<const void*> loop_thread_{nullptr};
  // Atomic, not guarded: wakeups() is a diagnostics read from any thread.
  std::atomic<std::uint64_t> wakeups_{0};
  std::shared_ptr<Handle::State> handle_state_;  // nulled in the destructor
};

}  // namespace doceph::event
