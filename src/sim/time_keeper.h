#pragma once

#include <sched.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "dbg/mutex.h"
#include "sim/stats.h"
#include "sim/time.h"

namespace doceph::sim {

class CondVar;

/// The simulation clock and thread coordinator.
///
/// Every participating thread registers with the keeper and performs ALL
/// blocking through keeper primitives (sleep_* or sim::CondVar). Registered
/// threads take turns: at most one of them runs at a time, the holder of the
/// keeper's run *baton*.
///
///  - A blocking holder hands the baton to the head of a FIFO run queue.
///  - A notify only appends its target to that queue; it never starts a
///    race between threads.
///  - When the queue is empty and every registered thread is blocked, the
///    keeper advances the clock to the earliest wake deadline and queues the
///    threads due then in registration (spawn) order.
///
/// A simulated minute of cluster traffic therefore finishes in wall
/// milliseconds, and the interleaving of registered threads is a function
/// of the program and its seed alone: same-seed runs are byte-identical on
/// any core count. Only unregistered threads (a test's main, bring-up code)
/// still run on OS scheduling alongside the baton holder.
///
/// Because no two registered threads ever run at once, the keeper confines
/// them to the CPU it was created on, so every handoff is a same-core
/// context switch instead of a cross-core wakeup, and runs them under
/// SCHED_BATCH, so the woken thread does not preempt the waker before it
/// blocks. A thread gets its previous affinity and policy back when it
/// unregisters; if the OS refuses either, the thread simply runs without it
/// (slower, not wrong).
///
/// Discipline: a registered thread must never block on a bare std::
/// primitive for unbounded time — it keeps the baton while blocked, which
/// stalls the whole simulation. std::mutex critical sections are fine (they
/// take zero simulated time) as long as no lock is held across a keeper
/// block; lockdep check (c) enforces that for tracked locks, and the
/// watchdog reports a baton holder that stops handing off.
class TimeKeeper {
 public:
  /// Virtual time is the only mode; the enum stays so that call sites that
  /// name the mode (`Env(Mode::virtual_time, seed)`) keep compiling.
  enum class Mode { virtual_time };

  explicit TimeKeeper(Mode mode = Mode::virtual_time);
  ~TimeKeeper();

  TimeKeeper(const TimeKeeper&) = delete;
  TimeKeeper& operator=(const TimeKeeper&) = delete;

  [[nodiscard]] Time now() const;

  /// Block the calling (registered) thread for `d` of simulated time.
  void sleep_for(Duration d);
  void sleep_until(Time t);

  /// Register / unregister the calling thread. Threads must be registered
  /// before sleeping or waiting on a sim::CondVar. Registration returns once
  /// the thread holds the baton. `stats` may be null (e.g. housekeeping
  /// threads).
  ///
  /// `daemon` marks service threads that legitimately park forever waiting
  /// for work (event loops, thread pools, the scheduler). When every
  /// registered thread is blocked without a deadline, the keeper reports a
  /// deadlock only if a non-daemon thread is among them; an all-daemon
  /// quiescent system simply parks until an external notify.
  void register_current_thread(std::shared_ptr<ThreadStats> stats, bool daemon = false);
  void unregister_current_thread();

  /// RAII registration for externally created threads (gtest main thread...).
  class ThreadGuard {
   public:
    ThreadGuard(TimeKeeper& tk, std::shared_ptr<ThreadStats> stats = nullptr,
                bool daemon = false)
        : tk_(tk) {
      tk_.register_current_thread(std::move(stats), daemon);
    }
    ~ThreadGuard() { tk_.unregister_current_thread(); }  // NOLINT(bugprone-exception-escape): unregister takes the keeper lock; a throw terminates, by design
    ThreadGuard(const ThreadGuard&) = delete;
    ThreadGuard& operator=(const ThreadGuard&) = delete;

   private:
    TimeKeeper& tk_;
  };

  [[nodiscard]] int registered_threads() const;

  /// True iff the calling thread is registered with *this* keeper.
  [[nodiscard]] bool current_thread_registered() const;

  /// Invoked when the simulation wedges, with a state dump:
  ///  - deadlock: every registered thread blocked with no wake deadline, at
  ///    least one of them a non-daemon, and no state change for the grace
  ///    period (an unregistered external thread — e.g. a test's main — may
  ///    legitimately be about to spawn or notify, so the check is
  ///    watchdog-based rather than instantaneous). All blocked threads are
  ///    woken after the handler returns so predicate loops can unwind;
  ///  - stall: the baton holder has not handed off for the grace period,
  ///    typically because it is blocked outside the keeper (a bare mutex, a
  ///    real-time wait). Nothing is woken; the holder resumes on its own
  ///    once whatever it waits for is released.
  /// Default: a deadlock prints the dump and aborts; a stall prints a
  /// warning with the dump and keeps waiting. Tests override this to assert
  /// on detection; the handler should set shutdown predicates.
  void set_deadlock_handler(std::function<void(const std::string&)> h);

  /// Grace period (real time) before a deadlock or stall is reported.
  void set_deadlock_grace(std::chrono::milliseconds grace);

  /// While any AdvanceHold is alive the clock will not advance, even if all
  /// registered threads are blocked. Unregistered external threads (a test's
  /// main, cluster bring-up code) take one while spawning/configuring so the
  /// simulation cannot run ahead between two constructions; drop it before
  /// joining or waiting for results.
  class AdvanceHold {
   public:
    explicit AdvanceHold(TimeKeeper& tk) : tk_(&tk) { tk_->hold_advance(); }
    ~AdvanceHold() { release(); }  // NOLINT(bugprone-exception-escape): release takes the keeper lock; a throw terminates, by design
    AdvanceHold(AdvanceHold&& o) noexcept : tk_(o.tk_) { o.tk_ = nullptr; }
    AdvanceHold& operator=(AdvanceHold&&) = delete;
    AdvanceHold(const AdvanceHold&) = delete;
    AdvanceHold& operator=(const AdvanceHold&) = delete;

    /// Early release (idempotent).
    void release() {
      if (tk_ != nullptr) {
        tk_->release_advance();
        tk_ = nullptr;
      }
    }

   private:
    TimeKeeper* tk_;
  };

 private:
  friend class CondVar;
  friend class Thread;

  struct ThreadRec {
    std::string name;
    std::shared_ptr<ThreadStats> stats;
    bool daemon = false;
    bool blocked = false;
    Time deadline = kTimeInfinity;
    bool notified = false;
    std::condition_variable cv;  // signalled when this thread gets the baton
    // Scheduling state to restore at unregister (see enroll_current_thread).
    cpu_set_t saved_affinity{};
    bool pinned = false;
    int saved_policy = -1;  // -1: policy left unchanged
    sched_param saved_param{};
  };

  /// The two halves of register_current_thread(): join the run queue, then
  /// wait for the baton. sim::Thread runs its spawn handshake in between,
  /// because a registered spawner holds the baton while it waits.
  void enroll_current_thread(std::shared_ptr<ThreadStats> stats, bool daemon);
  void await_baton();

  /// Returns this thread's record; requires prior registration with *this*.
  ThreadRec& current_rec();

  /// Core wait: blocks rec until notified or simulated `deadline` passes,
  /// handing the baton on meanwhile. Requires `lk` to hold mutex_ and rec to
  /// hold the baton. Returns true iff woken by a notify.
  bool wait_locked(dbg::UniqueLock& lk, ThreadRec& rec, Time deadline);

  /// Make a blocked record runnable with "notified" semantics: append it to
  /// the run queue. Requires mutex_ held.
  void notify_locked(ThreadRec& rec);

  /// The baton is free: give it to the head of the run queue; if the queue
  /// is empty (every registered thread blocked), advance the clock first.
  /// Requires mutex_ held.
  void pass_baton_locked();

  /// Every registered thread is blocked: advance the clock to the earliest
  /// deadline and queue the threads due then, in registration order. If
  /// nothing is due (or an AdvanceHold is alive), arm the deadlock watchdog
  /// instead. Requires mutex_ held.
  void advance_locked();

  [[nodiscard]] std::string state_dump_locked() const;

  void watchdog_loop();
  void hold_advance();
  void release_advance();

  // Lockdep-tracked: the keeper's mutex is the terminal node of the lock
  // hierarchy — every notify/now() reaches it, so nothing may be acquired
  // while holding it.
  mutable dbg::Mutex mutex_{"sim.timekeeper"};
  Time now_ = 0;
  int cpu_ = -1;                     // CPU registered threads run on; -1: none
  std::vector<ThreadRec*> threads_;  // registration order
  ThreadRec* holder_ = nullptr;      // baton holder; null when the baton is free
  std::deque<ThreadRec*> ready_;     // runnable, waiting for the baton
  std::uint64_t handoffs_ = 0;       // baton grants
  std::function<void(const std::string&)> deadlock_handler_;

  // Watchdog. Deadlock: `epoch_` bumps on every state change
  // (register/unregister/notify/advance). When the system parks with a
  // non-daemon blocked forever, the watchdog samples the epoch; if it is
  // unchanged after the grace period, the deadlock path fires. Stall: the
  // watchdog samples handoffs_ every grace period and reports a baton
  // holder that kept it across a whole period.
  std::uint64_t epoch_ = 0;
  int holds_ = 0;
  bool parked_suspect_ = false;
  std::chrono::milliseconds grace_{2000};
  bool watchdog_stop_ = false;
  std::condition_variable watchdog_cv_;  // real; paired with mutex_
  std::thread watchdog_;
};

/// Condition variable integrated with the TimeKeeper: waits park the thread
/// in simulated time; notifies queue it for the baton at the current
/// simulated instant, in notify order.
/// Usage is identical to std::condition_variable (user mutex + predicate
/// loop); wait_until/wait_for return false on timeout.
class CondVar {
 public:
  explicit CondVar(TimeKeeper& tk) noexcept : tk_(tk) {}
  ~CondVar();

  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(std::unique_lock<std::mutex>& user_lock);
  [[nodiscard]] bool wait_for(std::unique_lock<std::mutex>& user_lock, Duration d);

  /// Every wait runs lockdep check (c) (dbg/lockdep.h): the thread must hold
  /// no tracked lock but `tracked_mutex`, the wait's own lock when it is a
  /// dbg::Mutex (dbg::CondVar passes it, with its name as `what`).
  [[nodiscard]] bool wait_until(std::unique_lock<std::mutex>& user_lock, Time deadline,
                                const void* tracked_mutex = nullptr,
                                const char* what = "sim::CondVar");

  template <typename Pred>
  void wait(std::unique_lock<std::mutex>& user_lock, Pred pred) {
    while (!pred()) wait(user_lock);
  }

  /// Waits until pred() or the deadline; returns pred() (std-compatible).
  template <typename Pred>
  bool wait_until(std::unique_lock<std::mutex>& user_lock, Time deadline, Pred pred) {
    while (!pred()) {
      if (!wait_until(user_lock, deadline)) return pred();
    }
    return true;
  }

  void notify_one();
  void notify_all();

  [[nodiscard]] TimeKeeper& keeper() const noexcept { return tk_; }

 private:
  TimeKeeper& tk_;
  std::deque<TimeKeeper::ThreadRec*> waiters_;  // guarded by tk_.mutex_
};

}  // namespace doceph::sim
