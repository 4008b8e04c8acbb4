#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "dbg/mutex.h"
#include "sim/exec_context.h"
#include "sim/stats.h"
#include "sim/time.h"

namespace doceph::sim {

class CondVar;

/// The simulation clock and thread coordinator.
///
/// Every sim thread (sim::Thread) is a fiber of the keeper: a stackful
/// ucontext coroutine. Sim threads perform ALL blocking through keeper
/// primitives (sleep_* or sim::CondVar) and take turns: exactly one of them
/// runs at a time, the holder of the keeper's run *baton*.
///
///  - A blocking holder hands the baton to the head of a FIFO run queue and
///    switches straight into that fiber (one swapcontext, no OS wakeup).
///  - A notify only appends its target to that queue; it never starts a
///    race between threads.
///  - When the queue is empty and every sim thread is blocked, the keeper
///    advances the clock to the earliest wake deadline and queues the
///    threads due then in registration (spawn) order.
///  - Timed callbacks (call_at) run on the keeper's own timer fiber, which
///    the constructor registers first: the callbacks due at an instant run
///    before every sim thread due at that instant.
///
/// The fibers run on the OS thread of the *driver*: the outside thread (a
/// test's main, a bench, an example) that joins a sim thread, as
/// Env::run_on_sim_thread does. That join switches into the run queue and
/// returns once its target has finished, leaving every other fiber parked;
/// outside the join nothing simulated runs, so a spawn or notify from
/// outside only queues its thread, and the clock stands still until the
/// next join. If the run queue empties with no wake deadline left while the
/// target is unfinished, the simulation has deadlocked, and the join
/// reports it at once. One outside thread drives a keeper at a time.
///
/// A simulated minute of cluster traffic therefore finishes in wall
/// milliseconds, and the interleaving of sim threads is a function of the
/// program and its seed alone: same-seed runs are byte-identical on any
/// core count.
///
/// Per-thread state that code reads as thread-local — the thread name, the
/// ExecContext, lockdep's held-lock stack and the keeper's own record — is
/// per fiber: every switch saves the outgoing fiber's copy and installs the
/// incoming one's. The C++ runtime's exception state is not switched, so no
/// sim thread may block inside a catch handler or while unwinding.
///
/// Discipline: a sim thread must never block on a bare std:: primitive for
/// unbounded time — it keeps the baton (and the driver's OS thread) while
/// blocked, which stalls the whole simulation. std::mutex critical sections
/// are fine (they take zero simulated time) as long as no lock is held
/// across a keeper block; lockdep check (c) enforces that for tracked
/// locks, and the watchdog reports a baton holder that stops handing off.
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

  /// Block the calling sim thread for `d` of simulated time.
  void sleep_for(Duration d);
  void sleep_until(Time t);

  /// Run `cb` at simulated time `t` on the keeper's timer fiber (as soon as
  /// the fiber gets the baton when `t` is not in the future). Device models
  /// use it for completions. Callbacks run in time order, then insertion
  /// order, with the keeper unlocked: they may lock, notify and schedule
  /// more, but never block. A sleep, CondVar wait or join on the timer
  /// fiber aborts. Pending callbacks are dropped at keeper teardown.
  void call_at(Time t, std::function<void()> cb);
  void call_after(Duration d, std::function<void()> cb);

  [[nodiscard]] int registered_threads() const;

  /// True iff the caller is a sim thread of *this* keeper.
  [[nodiscard]] bool current_thread_registered() const;

  /// Identity of the calling sim thread (of any keeper), or null outside
  /// one. Distinct live sim threads have distinct identities; all of them
  /// share one OS thread, so std::this_thread::get_id() cannot tell them
  /// apart.
  [[nodiscard]] static const void* current_thread() noexcept;

  /// The keeper's own work since construction, for `perf dump` and
  /// perf_smoke: baton handoffs (each a fiber switch unless the blocking
  /// holder is itself the next one due), clock advances, and the most sim
  /// threads registered at once.
  struct SelfStats {
    std::uint64_t handoffs = 0;
    std::uint64_t advances = 0;
    int peak_threads = 0;
  };
  [[nodiscard]] SelfStats self_stats() const;

  /// Invoked when the simulation wedges, with a state dump:
  ///  - deadlock: a driver's join finds every sim thread blocked with no
  ///    wake deadline while its target is unfinished. Reported on the
  ///    driver's thread the moment it happens; all blocked threads are
  ///    woken after the handler returns so predicate loops can unwind;
  ///  - stall (from the watchdog thread): the baton holder has not handed
  ///    off for the grace period, typically because it is blocked outside
  ///    the keeper (a bare mutex, a real-time wait). Nothing is woken; the
  ///    holder resumes on its own once whatever it waits for is released.
  /// Default: a deadlock prints the dump and aborts; a stall prints a
  /// warning with the dump and keeps waiting. Tests override this to assert
  /// on detection; the handler should set shutdown predicates.
  void set_deadlock_handler(std::function<void(const std::string&)> h);

  /// Grace period (real time) before a stall is reported.
  void set_deadlock_grace(std::chrono::milliseconds grace);

 private:
  friend class CondVar;
  friend class Thread;

  struct Fiber;      // an execution context: a sim thread's, or the driver's
  struct ThreadRec;  // a sim thread: its fiber plus its run state

  /// sim::Thread's half of the keeper. spawn() creates a fiber that runs
  /// `body` with `ctx` installed and queues it for the baton; the fiber
  /// unregisters when `body` returns.
  ThreadRec* spawn(std::string name, ExecContext ctx, std::function<void()> body);
  /// Waits until `rec` has finished, then frees it: in simulated time from
  /// a sim thread of this keeper; from anywhere else by driving the
  /// simulation on the caller's thread until `rec` finishes.
  void join(ThreadRec* rec);

  /// The outside half of join(): run the queue on this thread until
  /// `target` has finished, reporting a deadlock if the queue runs dry.
  /// Requires `lk` to hold mutex_.
  void drive_locked(dbg::UniqueLock& lk, ThreadRec& target);

  /// Returns the record of the caller, about to block in `what`; requires it
  /// to be a sim thread of *this* other than the timer fiber.
  ThreadRec& current_rec(const char* what);

  /// The timer fiber's body: run the due callbacks, then block until the
  /// earliest pending one (or a due call_at) wakes it.
  void timer_loop();

  /// Core wait: blocks rec until notified or simulated `deadline` passes,
  /// handing the baton on meanwhile. Requires `lk` to hold mutex_ and rec to
  /// hold the baton. Returns true iff woken by a notify.
  bool wait_locked(dbg::UniqueLock& lk, ThreadRec& rec, Time deadline);

  /// Make a blocked record runnable with "notified" semantics: append it to
  /// the run queue. Requires mutex_ held.
  void notify_locked(ThreadRec& rec);

  /// The baton is free: give it to the head of the run queue; if the queue
  /// is empty (every sim thread blocked), advance the clock first. Leaves
  /// the baton free when nothing is due. Requires mutex_ held.
  void pass_baton_locked();

  /// Every sim thread is blocked: advance the clock to the earliest
  /// deadline and queue the threads due then, in registration order (a
  /// no-op when nothing is due). Requires mutex_ held.
  void advance_locked();

  /// Leave the running context `from` for `to` (the driver when null):
  /// swaps the fiber-local state and the ucontext. Runs on the driver's
  /// thread with mutex_ released; returns when something switches back to
  /// `from`. `from_exits`: `from` is a finished fiber and never resumes.
  void switch_to(Fiber& from, ThreadRec* to, bool from_exits = false);
  /// First code a context runs after a switch lands in it: finishes the
  /// sanitizer switch and reaps a fiber that exited on the way here.
  void switched_in(Fiber& self);
  [[noreturn]] static void fiber_main() noexcept;

  [[nodiscard]] std::string state_dump_locked() const;

  void watchdog_loop();

  // Lockdep-tracked: the keeper's mutex is the terminal node of the lock
  // hierarchy — every notify/now() reaches it, so nothing may be acquired
  // while holding it. Fibers drop it before every switch and retake it
  // after, so each fiber's lockdep held stack stays its own.
  mutable dbg::Mutex mutex_{"sim.timekeeper"};
  Time now_ = 0;
  std::vector<ThreadRec*> threads_;  // registration order
  ThreadRec* holder_ = nullptr;      // baton holder; null when the baton is free
  std::deque<ThreadRec*> ready_;     // runnable, waiting for the baton
  std::uint64_t handoffs_ = 0;       // baton grants
  std::uint64_t advances_ = 0;       // clock advances
  std::size_t peak_threads_ = 0;
  std::function<void(const std::string&)> deadlock_handler_;

  // Timed callbacks, by time then insertion order (multimap emplace goes
  // to the end of an equal range). `timer_` is the fiber that runs them;
  // while it is blocked its deadline is the earliest key here.
  std::multimap<Time, std::function<void()>> timers_;
  ThreadRec* timer_ = nullptr;
  bool timers_stopping_ = false;

  // Driver. `driver_` is the context of the outside thread inside
  // drive_locked() (null when none is), `target_` the thread it waits for.
  // `zombie_` is a fiber that exited and still needs reaping by whichever
  // context runs next (a fiber cannot free the stack it is running on).
  Fiber* driver_ = nullptr;
  ThreadRec* target_ = nullptr;
  ThreadRec* zombie_ = nullptr;

  // Watchdog: samples handoffs_ every grace period and reports a baton
  // holder that kept the baton across a whole period.
  std::chrono::milliseconds grace_{2000};
  bool watchdog_stop_ = false;
  std::condition_variable watchdog_cv_;  // real; paired with mutex_
  // Declared last: the watchdog uses every member above.
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
