#include "sim/time_keeper.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/thread_name.h"
#include "dbg/lockdep.h"

namespace doceph::sim {
namespace {

// Which keeper (if any) the current OS thread is registered with, plus its
// record. A thread belongs to at most one keeper at a time.
thread_local TimeKeeper* t_keeper = nullptr;
thread_local void* t_rec = nullptr;

}  // namespace

TimeKeeper::TimeKeeper(Mode /*mode*/)
    : cpu_(sched_getcpu()), watchdog_([this] { watchdog_loop(); }) {}

TimeKeeper::~TimeKeeper() {  // NOLINT(bugprone-exception-escape): teardown stops the watchdog; a throw terminates, by design
  {
    const dbg::LockGuard lock(mutex_);
    watchdog_stop_ = true;
    watchdog_cv_.notify_all();
    assert(threads_.empty() && "threads still registered at TimeKeeper teardown");
  }
  if (watchdog_.joinable()) watchdog_.join();
}

Time TimeKeeper::now() const {
  const dbg::LockGuard lock(mutex_);
  return now_;
}

void TimeKeeper::register_current_thread(std::shared_ptr<ThreadStats> stats,
                                         bool daemon) {
  enroll_current_thread(std::move(stats), daemon);
  await_baton();
}

void TimeKeeper::enroll_current_thread(std::shared_ptr<ThreadStats> stats,
                                       bool daemon) {
  assert(t_keeper == nullptr && "thread already registered with a TimeKeeper");
  auto* rec = new ThreadRec;
  rec->name = current_thread_name();
  rec->stats = std::move(stats);
  rec->daemon = daemon;
  if (cpu_ >= 0 && sched_getaffinity(0, sizeof(rec->saved_affinity),
                                     &rec->saved_affinity) == 0) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu_, &one);
    rec->pinned = sched_setaffinity(0, sizeof(one), &one) == 0;
  }
  // SCHED_BATCH: a thread woken by a handoff must not preempt the waker on
  // their shared CPU, since the waker is about to block anyway.
  rec->saved_policy = sched_getscheduler(0);
  if (rec->saved_policy >= 0 && sched_getparam(0, &rec->saved_param) == 0) {
    const sched_param batch{};
    if (sched_setscheduler(0, SCHED_BATCH, &batch) != 0) rec->saved_policy = -1;
  } else {
    rec->saved_policy = -1;
  }
  {
    const dbg::LockGuard lock(mutex_);
    threads_.push_back(rec);
    ready_.push_back(rec);
    ++epoch_;
    parked_suspect_ = false;
    if (holder_ == nullptr) pass_baton_locked();
  }
  t_keeper = this;
  t_rec = rec;
}

void TimeKeeper::await_baton() {
  ThreadRec& rec = current_rec();
  dbg::UniqueLock lk(mutex_);
  while (holder_ != &rec) rec.cv.wait(lk.inner());
}

void TimeKeeper::unregister_current_thread() {
  assert(t_keeper == this && "thread not registered with this TimeKeeper");
  auto* rec = static_cast<ThreadRec*>(t_rec);
  {
    const dbg::LockGuard lock(mutex_);
    assert(holder_ == rec && !rec->blocked);
    threads_.erase(std::find(threads_.begin(), threads_.end(), rec));
    ++epoch_;
    parked_suspect_ = false;
    holder_ = nullptr;
    pass_baton_locked();
  }
  if (rec->pinned)
    (void)sched_setaffinity(0, sizeof(rec->saved_affinity), &rec->saved_affinity);
  if (rec->saved_policy >= 0)
    (void)sched_setscheduler(0, rec->saved_policy, &rec->saved_param);
  delete rec;
  t_keeper = nullptr;
  t_rec = nullptr;
}

bool TimeKeeper::current_thread_registered() const { return t_keeper == this; }

int TimeKeeper::registered_threads() const {
  const dbg::LockGuard lock(mutex_);
  return static_cast<int>(threads_.size());
}

void TimeKeeper::set_deadlock_handler(std::function<void(const std::string&)> h) {
  const dbg::LockGuard lock(mutex_);
  deadlock_handler_ = std::move(h);
}

void TimeKeeper::set_deadlock_grace(std::chrono::milliseconds grace) {
  const dbg::LockGuard lock(mutex_);
  grace_ = grace;
  watchdog_cv_.notify_all();  // restart the stall sampling period
}

TimeKeeper::ThreadRec& TimeKeeper::current_rec() {
  assert(t_keeper == this &&
         "calling thread must be registered with this TimeKeeper before blocking");
  return *static_cast<ThreadRec*>(t_rec);
}

void TimeKeeper::sleep_for(Duration d) { sleep_until(now() + std::max<Duration>(d, 0)); }

void TimeKeeper::sleep_until(Time t) {
  ThreadRec& rec = current_rec();
  dbg::lockdep::cond_wait_check(nullptr, /*in_sim_thread=*/true,
                                "sim::TimeKeeper::sleep_until");
  dbg::UniqueLock lk(mutex_);
  (void)wait_locked(lk, rec, t);
}

bool TimeKeeper::wait_locked(dbg::UniqueLock& lk, ThreadRec& rec,
                             Time deadline) {
  assert(holder_ == &rec && "blocking thread must hold the baton");
  if (deadline <= now_) return false;  // already due; no block, no switch
  rec.blocked = true;
  rec.deadline = deadline;
  rec.notified = false;
  if (rec.stats) rec.stats->ctx_switches.fetch_add(1, std::memory_order_relaxed);
  holder_ = nullptr;
  pass_baton_locked();
  while (holder_ != &rec) rec.cv.wait(lk.inner());
  return rec.notified;
}

void TimeKeeper::notify_locked(ThreadRec& rec) {
  if (!rec.blocked) return;
  rec.blocked = false;
  rec.notified = true;
  ready_.push_back(&rec);
  ++epoch_;
  parked_suspect_ = false;
  if (holder_ == nullptr) pass_baton_locked();  // notified from outside the sim
}

void TimeKeeper::pass_baton_locked() {
  assert(holder_ == nullptr);
  if (ready_.empty()) advance_locked();
  if (ready_.empty()) return;  // parked: the next notify or register resumes
  holder_ = ready_.front();
  ready_.pop_front();
  ++handoffs_;
  holder_->cv.notify_one();
}

void TimeKeeper::hold_advance() {
  const dbg::LockGuard lock(mutex_);
  ++holds_;
  ++epoch_;
  parked_suspect_ = false;
}

void TimeKeeper::release_advance() {
  const dbg::LockGuard lock(mutex_);
  --holds_;
  ++epoch_;
  if (holds_ == 0 && holder_ == nullptr) pass_baton_locked();
}

void TimeKeeper::advance_locked() {
  if (threads_.empty()) return;

  Time min_deadline = kTimeInfinity;
  for (const auto* rec : threads_)
    if (rec->blocked) min_deadline = std::min(min_deadline, rec->deadline);

  if (holds_ > 0 || min_deadline == kTimeInfinity) {
    // Either an external thread holds advancement — if every registered
    // thread is blocked, someone had better release that hold, so a
    // registered thread blocking under its own hold (a bug) gets reported
    // instead of hanging silently — or nothing is scheduled. If only daemon
    // service threads are parked, the system is quiescent; an external
    // notify will resume it. A parked non-daemon is *suspicious* — but an
    // unregistered external thread may be about to spawn or notify, so hand
    // the case to the watchdog rather than deciding now.
    bool any_nondaemon = false;
    for (const auto* rec : threads_) any_nondaemon |= !rec->daemon;
    if (any_nondaemon) {
      parked_suspect_ = true;
      watchdog_cv_.notify_all();
    }
    return;
  }

  now_ = min_deadline;
  ++epoch_;
  parked_suspect_ = false;
  for (auto* rec : threads_) {  // registration order: deterministic ties
    if (rec->blocked && rec->deadline <= now_) {
      rec->blocked = false;  // timeout wake: notified stays false
      ready_.push_back(rec);
    }
  }
}

void TimeKeeper::watchdog_loop() {
  dbg::UniqueLock lk(mutex_);
  // Run the handler without the lock: it may query the keeper.
  const auto call_handler = [&](const std::string& dump) {
    auto handler = deadlock_handler_;
    lk.unlock();
    handler(dump);
    lk.lock();
  };
  std::uint64_t stall_reported_at = 0;  // handoffs_ at the last stall report
  while (!watchdog_stop_) {
    if (!parked_suspect_) {
      // Stall sampling: a holder that kept the baton across a whole grace
      // period is blocked outside the keeper (or spinning). Any wake before
      // the period ends restarts the sample.
      const std::uint64_t handoffs_at = handoffs_;
      if (watchdog_cv_.wait_for(lk.inner(), grace_) == std::cv_status::no_timeout)
        continue;
      if (holder_ == nullptr || handoffs_ != handoffs_at ||
          stall_reported_at == handoffs_)
        continue;
      stall_reported_at = handoffs_;  // report each stall once
      const std::string dump = state_dump_locked();
      if (deadlock_handler_) {
        call_handler(dump);
        continue;
      }
      std::fprintf(stderr,
                   "WARNING: sim thread '%s' has held the baton for %lld ms "
                   "without handing off — blocked outside the keeper (bare "
                   "mutex, real-time wait)?\n%s",
                   holder_->name.c_str(), static_cast<long long>(grace_.count()),
                   dump.c_str());
      continue;
    }
    const std::uint64_t epoch_at_park = epoch_;
    watchdog_cv_.wait_for(lk.inner(), grace_);
    if (watchdog_stop_) break;
    if (!parked_suspect_ || epoch_ != epoch_at_park) continue;  // progress happened

    const std::string dump = state_dump_locked();
    parked_suspect_ = false;
    if (holds_ > 0) {
      // Could be a slow (real-time) external constructor rather than a
      // deadlock; warn loudly but keep waiting.
      std::fprintf(stderr,
                   "WARNING: all sim threads blocked while an AdvanceHold is "
                   "held — possible hold-while-blocking bug\n%s",
                   dump.c_str());
      continue;
    }
    if (deadlock_handler_) {
      // Then wake every blocked thread so shutdown predicates can unwind.
      call_handler(dump);
      for (auto* rec : threads_) notify_locked(*rec);
      continue;
    }
    std::fprintf(stderr,
                 "FATAL: simulation deadlock — all %zu threads blocked forever\n%s",
                 threads_.size(), dump.c_str());
    std::abort();
  }
}

std::string TimeKeeper::state_dump_locked() const {
  std::ostringstream os;
  os << "simulated now=" << now_ << "ns, threads:\n";
  for (const auto* rec : threads_) {
    os << "  " << rec->name << ": ";
    if (rec == holder_) {
      os << "RUNNING (baton holder)";
    } else if (!rec->blocked) {
      os << "RUNNABLE";
    } else if (rec->deadline == kTimeInfinity) {
      os << "BLOCKED (forever)";
    } else {
      os << "BLOCKED (until " << rec->deadline << "ns)";
    }
    os << '\n';
  }
  return os.str();
}

// ---- CondVar ----------------------------------------------------------------

CondVar::~CondVar() { assert(waiters_.empty() && "CondVar destroyed with waiters"); }

void CondVar::wait(std::unique_lock<std::mutex>& user_lock) {
  (void)wait_until(user_lock, kTimeInfinity);
}

bool CondVar::wait_until(std::unique_lock<std::mutex>& user_lock, Time deadline,
                         const void* tracked_mutex, const char* what) {
  TimeKeeper::ThreadRec& rec = tk_.current_rec();
  dbg::lockdep::cond_wait_check(tracked_mutex, /*in_sim_thread=*/true, what);
  dbg::UniqueLock lk(tk_.mutex_);
  waiters_.push_back(&rec);
  user_lock.unlock();
  const bool notified = tk_.wait_locked(lk, rec, deadline);
  // Remove ourselves if still queued (timeout, or a blanket wake that did not
  // come through notify_one/notify_all). Unconditional: prevents any stale
  // pointer from lingering in the deque after this frame unwinds.
  auto it = std::find(waiters_.begin(), waiters_.end(), &rec);
  if (it != waiters_.end()) waiters_.erase(it);
  lk.unlock();
  user_lock.lock();
  return notified;
}

bool CondVar::wait_for(std::unique_lock<std::mutex>& user_lock, Duration d) {
  return wait_until(user_lock, tk_.now() + std::max<Duration>(d, 0));
}

void CondVar::notify_one() {
  const dbg::LockGuard lk(tk_.mutex_);
  while (!waiters_.empty()) {
    auto* rec = waiters_.front();
    waiters_.pop_front();
    if (rec->blocked) {
      tk_.notify_locked(*rec);
      break;
    }
    // else: already timed out; it will not re-queue — skip it.
  }
}

void CondVar::notify_all() {
  const dbg::LockGuard lk(tk_.mutex_);
  for (auto* rec : waiters_) tk_.notify_locked(*rec);
  waiters_.clear();
}

}  // namespace doceph::sim
