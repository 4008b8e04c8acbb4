#include "sim/time_keeper.h"

#include <pthread.h>
#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <system_error>
#include <utility>

#include "common/thread_name.h"
#include "dbg/lockdep.h"

// Fiber switches must be announced to the sanitizers, which otherwise see
// one OS thread jump between stacks.
#if defined(__SANITIZE_ADDRESS__)
#define DOCEPH_FIBER_ASAN 1
#elif defined(__SANITIZE_THREAD__)
#define DOCEPH_FIBER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define DOCEPH_FIBER_ASAN 1
#elif __has_feature(thread_sanitizer)
#define DOCEPH_FIBER_TSAN 1
#endif
#endif
#ifdef DOCEPH_FIBER_ASAN
#include <sanitizer/asan_interface.h>
#endif
#ifdef DOCEPH_FIBER_TSAN
#include <sanitizer/tsan_interface.h>
#endif

namespace doceph::sim {
namespace {

// The keeper and record of the sim thread running on this OS thread (null
// outside one). Swapped on every fiber switch.
thread_local TimeKeeper* t_keeper = nullptr;
thread_local void* t_rec = nullptr;

/// A fiber's stack: std::thread's default 8 MB, reserved without swap
/// backing (only touched pages cost memory), above one PROT_NONE guard page
/// that turns an overflow into a fault instead of silent corruption.
class FiberStack {
 public:
  static constexpr std::size_t kBytes = std::size_t{8} << 20;

  FiberStack() : guard_(static_cast<std::size_t>(sysconf(_SC_PAGESIZE))) {
    void* map = mmap(nullptr, guard_ + kBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK, -1, 0);
    if (map == MAP_FAILED)
      throw std::system_error(errno, std::generic_category(), "sim fiber stack");
    map_ = static_cast<char*>(map);
    if (mprotect(map_, guard_, PROT_NONE) != 0) {
      const int err = errno;
      munmap(map_, guard_ + kBytes);
      throw std::system_error(err, std::generic_category(), "sim fiber guard page");
    }
  }
  ~FiberStack() {
#ifdef DOCEPH_FIBER_ASAN
    // Frames left on a finished fiber keep their redzones poisoned; clear
    // them so a later mapping at this address starts clean.
    __asan_unpoison_memory_region(bottom(), kBytes);
#endif
    munmap(map_, guard_ + kBytes);
  }
  FiberStack(const FiberStack&) = delete;
  FiberStack& operator=(const FiberStack&) = delete;

  [[nodiscard]] void* bottom() const noexcept { return map_ + guard_; }

 private:
  std::size_t guard_;
  char* map_ = nullptr;
};

}  // namespace

/// One execution context on the driver's thread: the driver's own, or a
/// sim thread's. While a context is switched out its fiber-local state
/// (thread name, ExecContext, lockdep held stack) is parked here; while it
/// runs, the OS thread's thread-locals hold it and these fields hold
/// leftovers.
struct TimeKeeper::Fiber {
  ucontext_t uc{};
  ThreadRec* rec = nullptr;  // null for the driver
  std::string name;
  ExecContext exec;
  dbg::lockdep::HeldStack held;
  // The context's stack, as the sanitizers need it.
  void* stack_bottom = nullptr;
  std::size_t stack_bytes = 0;
  void* asan_fake_stack = nullptr;
  void* tsan_fiber = nullptr;
};

struct TimeKeeper::ThreadRec {
  std::string name;
  std::shared_ptr<ThreadStats> stats;
  bool blocked = false;
  Time deadline = kTimeInfinity;
  bool notified = false;
  bool finished = false;            // switched away for good
  std::vector<ThreadRec*> joiners;  // sim threads blocked in join() on this one
  std::function<void()> body;
  std::unique_ptr<FiberStack> stack;  // freed as soon as the fiber finishes
  Fiber fiber;
};

TimeKeeper::TimeKeeper(Mode /*mode*/) : watchdog_([this] { watchdog_loop(); }) {
#ifdef __GLIBC__
  // Fibers allocate on the driver's thread, usually main and so glibc's brk
  // heap. glibc's default thresholds are dynamic: after freeing a payload
  // buffer of N bytes it trims that heap whenever more than 2N lies free at
  // its top, and the next buffer faults the pages back in. A 1 MB write
  // workload took 1.7x the page faults it took with the fibers on a second
  // thread's heap, for the same peak RSS. Fixed thresholds at the values
  // the dynamic scheme caps at keep payload buffers on the heap and its top
  // resident.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 64 << 20);
#endif
  // Registered first, so due callbacks run before the threads due with them.
  timer_ = spawn("sim-scheduler", ExecContext{this, nullptr, nullptr},
                 [this] { timer_loop(); });
}

TimeKeeper::~TimeKeeper() {  // NOLINT(bugprone-exception-escape): teardown joins the timer fiber and the watchdog; a throw terminates, by design
  {
    const dbg::LockGuard lock(mutex_);
    timers_stopping_ = true;
    notify_locked(*timer_);
  }
  join(timer_);
  decltype(timers_) dropped;  // destroyed below, with the keeper unlocked
  {
    const dbg::LockGuard lock(mutex_);
    assert(threads_.empty() && "threads still registered at TimeKeeper teardown");
    dropped.swap(timers_);
    watchdog_stop_ = true;
    watchdog_cv_.notify_all();
  }
  watchdog_.join();
}

Time TimeKeeper::now() const {
  const dbg::LockGuard lock(mutex_);
  return now_;
}

TimeKeeper::ThreadRec* TimeKeeper::spawn(std::string name, ExecContext ctx,
                                         std::function<void()> body) {
  auto rec = std::make_unique<ThreadRec>();
  rec->name = name;
  rec->stats = ctx.stats;
  rec->body = std::move(body);
  rec->stack = std::make_unique<FiberStack>();
  Fiber& f = rec->fiber;
  f.rec = rec.get();
  f.name = std::move(name);
  f.exec = std::move(ctx);
  f.stack_bottom = rec->stack->bottom();
  f.stack_bytes = FiberStack::kBytes;
  if (getcontext(&f.uc) != 0)
    throw std::system_error(errno, std::generic_category(), "sim fiber context");
  f.uc.uc_stack.ss_sp = f.stack_bottom;
  f.uc.uc_stack.ss_size = f.stack_bytes;
  f.uc.uc_link = nullptr;
  makecontext(&f.uc, &TimeKeeper::fiber_main, 0);
#ifdef DOCEPH_FIBER_TSAN
  f.tsan_fiber = __tsan_create_fiber(0);
#endif

  const dbg::LockGuard lock(mutex_);
  threads_.push_back(rec.get());
  ready_.push_back(rec.get());
  peak_threads_ = std::max(peak_threads_, threads_.size());
  return rec.release();
}

void TimeKeeper::fiber_main() noexcept {
  TimeKeeper& tk = *t_keeper;
  ThreadRec& rec = *static_cast<ThreadRec*>(t_rec);
  tk.switched_in(rec.fiber);
  rec.body();
  rec.body = nullptr;  // captures die while this is still a sim thread

  dbg::UniqueLock lk(tk.mutex_);
  assert(tk.holder_ == &rec && !rec.blocked);
  for (ThreadRec* joiner : rec.joiners) tk.notify_locked(*joiner);
  rec.joiners.clear();
  tk.threads_.erase(std::find(tk.threads_.begin(), tk.threads_.end(), &rec));
  tk.holder_ = nullptr;
  // The driver's target hands control straight back to the driver.
  if (&rec != tk.target_) tk.pass_baton_locked();
  tk.zombie_ = &rec;
  ThreadRec* next = tk.holder_;
  lk.unlock();
  tk.switch_to(rec.fiber, next, /*from_exits=*/true);
  std::abort();  // a finished fiber is never resumed
}

void TimeKeeper::join(ThreadRec* rec) {
  {
    dbg::UniqueLock lk(mutex_);
    if (!rec->finished) {
      lk.unlock();
      dbg::lockdep::cond_wait_check(nullptr, "sim::Thread::join");
      lk.lock();
    }
    if (current_thread_registered()) {
      while (!rec->finished) {
        ThreadRec& self = current_rec("sim::Thread::join");
        rec->joiners.push_back(&self);
        (void)wait_locked(lk, self, kTimeInfinity);
        // A blanket wake (deadlock handler) leaves us queued; drop the entry.
        std::erase(rec->joiners, &self);
      }
    } else {
      drive_locked(lk, *rec);
    }
  }
  delete rec;
}

void TimeKeeper::drive_locked(dbg::UniqueLock& lk, ThreadRec& target) {
  if (target.finished) return;
  assert(driver_ == nullptr && "only one outside thread may drive a keeper at a time");
  // The caller may itself be a sim thread of another keeper.
  TimeKeeper* const outer_keeper = t_keeper;
  void* const outer_rec = t_rec;
  Fiber self;
#ifdef DOCEPH_FIBER_ASAN
  if (outer_rec != nullptr) {
    const Fiber& outer = static_cast<ThreadRec*>(outer_rec)->fiber;
    self.stack_bottom = outer.stack_bottom;
    self.stack_bytes = outer.stack_bytes;
  } else {
    pthread_attr_t attr;
    if (pthread_getattr_np(pthread_self(), &attr) == 0) {
      (void)pthread_attr_getstack(&attr, &self.stack_bottom, &self.stack_bytes);
      pthread_attr_destroy(&attr);
    }
  }
#endif
#ifdef DOCEPH_FIBER_TSAN
  self.tsan_fiber = __tsan_get_current_fiber();
#endif
  driver_ = &self;
  target_ = &target;
  while (!target.finished) {
    pass_baton_locked();
    if (holder_ == nullptr) {
      // Nothing runnable, nothing due, target unfinished: a deadlock. Only
      // sim threads wake sim threads, and every one of them is parked.
      const std::string dump = state_dump_locked();
      if (!deadlock_handler_) {
        std::fprintf(stderr,
                     "FATAL: simulation deadlock — all %zu threads blocked forever\n%s",
                     threads_.size(), dump.c_str());
        std::abort();
      }
      // Run the handler without the lock (it may query the keeper), then
      // wake every blocked thread so shutdown predicates can unwind.
      auto handler = deadlock_handler_;
      lk.unlock();
      handler(dump);
      lk.lock();
      for (auto* rec : threads_) notify_locked(*rec);
      continue;
    }
    ThreadRec* next = holder_;
    lk.unlock();
    switch_to(self, next);
    lk.lock();
  }
  target_ = nullptr;
  driver_ = nullptr;
  t_keeper = outer_keeper;
  t_rec = outer_rec;
}

void TimeKeeper::switch_to(Fiber& from, ThreadRec* to,
                           [[maybe_unused]] bool from_exits) {
  Fiber& next = to != nullptr ? to->fiber : *driver_;
  // Park the outgoing context's fiber-local state, install the incoming
  // one's (each swap trades the running context's values for its slot's).
  for (Fiber* f : {&from, &next}) {
    swap_current_thread_name(f->name);
    std::swap(ExecContext::current(), f->exec);
    dbg::lockdep::swap_held_stack(f->held);
  }
  t_keeper = next.rec != nullptr ? this : nullptr;
  t_rec = next.rec;
#ifdef DOCEPH_FIBER_ASAN
  __sanitizer_start_switch_fiber(from_exits ? nullptr : &from.asan_fake_stack,
                                 next.stack_bottom, next.stack_bytes);
#endif
#ifdef DOCEPH_FIBER_TSAN
  __tsan_switch_to_fiber(next.tsan_fiber, 0);
#endif
  swapcontext(&from.uc, &next.uc);
  switched_in(from);
}

void TimeKeeper::switched_in([[maybe_unused]] Fiber& self) {
#ifdef DOCEPH_FIBER_ASAN
  __sanitizer_finish_switch_fiber(self.asan_fake_stack, nullptr, nullptr);
#endif
  ThreadRec* zombie = std::exchange(zombie_, nullptr);
  if (zombie == nullptr) return;
  zombie->stack.reset();
#ifdef DOCEPH_FIBER_TSAN
  __tsan_destroy_fiber(zombie->fiber.tsan_fiber);
#endif
  const dbg::LockGuard lock(mutex_);
  zombie->finished = true;
}

const void* TimeKeeper::current_thread() noexcept { return t_rec; }

bool TimeKeeper::current_thread_registered() const { return t_keeper == this; }

int TimeKeeper::registered_threads() const {
  const dbg::LockGuard lock(mutex_);
  return static_cast<int>(threads_.size());
}

TimeKeeper::SelfStats TimeKeeper::self_stats() const {
  const dbg::LockGuard lock(mutex_);
  return SelfStats{handoffs_, advances_, static_cast<int>(peak_threads_)};
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

TimeKeeper::ThreadRec& TimeKeeper::current_rec(const char* what) {
  assert(t_keeper == this &&
         "only a sim thread of this TimeKeeper may block in it");
  auto& rec = *static_cast<ThreadRec*>(t_rec);
  if (&rec == timer_) {
    // Every due callback and thread waits behind a blocked timer fiber.
    std::fprintf(stderr,
                 "FATAL: %s on the timer fiber: a TimeKeeper::call_at callback "
                 "must never block (sleep, CondVar wait, join)\n",
                 what);
    std::abort();
  }
  return rec;
}

void TimeKeeper::sleep_for(Duration d) { sleep_until(now() + std::max<Duration>(d, 0)); }

void TimeKeeper::sleep_until(Time t) {
  ThreadRec& rec = current_rec("sim::TimeKeeper::sleep_until");
  dbg::lockdep::cond_wait_check(nullptr, "sim::TimeKeeper::sleep_until");
  dbg::UniqueLock lk(mutex_);
  (void)wait_locked(lk, rec, t);
}

void TimeKeeper::call_at(Time t, std::function<void()> cb) {
  const dbg::LockGuard lock(mutex_);
  timers_.emplace(t, std::move(cb));
  // A running or queued timer fiber looks at the queue before it blocks
  // again; a blocked one waits for its deadline, so lower that in place. A
  // callback in the future thus costs no handoff.
  if (!timer_->blocked || t >= timer_->deadline) return;
  if (t <= now_) {
    notify_locked(*timer_);
  } else {
    timer_->deadline = t;
  }
}

void TimeKeeper::call_after(Duration d, std::function<void()> cb) {
  call_at(now() + std::max<Duration>(d, 0), std::move(cb));
}

void TimeKeeper::timer_loop() {
  ThreadRec& self = *timer_;
  std::vector<std::function<void()>> due;
  dbg::UniqueLock lk(mutex_);
  while (!timers_stopping_) {
    // Take everything due, then run it unlocked; what these callbacks
    // schedule at or before now runs in the next round.
    while (!timers_.empty() && timers_.begin()->first <= now_) {
      due.push_back(std::move(timers_.begin()->second));
      timers_.erase(timers_.begin());
    }
    if (due.empty()) {
      (void)wait_locked(lk, self,
                        timers_.empty() ? kTimeInfinity : timers_.begin()->first);
      continue;
    }
    lk.unlock();
    for (auto& cb : due) cb();
    due.clear();  // captures die unlocked too
    lk.lock();
  }
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
  ThreadRec* next = holder_;
  if (next != &rec) {  // else the clock advanced straight to our own deadline
    lk.unlock();
    switch_to(rec.fiber, next);
    lk.lock();
  }
  assert(holder_ == &rec);
  return rec.notified;
}

void TimeKeeper::notify_locked(ThreadRec& rec) {
  if (!rec.blocked) return;
  rec.blocked = false;
  rec.notified = true;
  ready_.push_back(&rec);
}

void TimeKeeper::pass_baton_locked() {
  assert(holder_ == nullptr);
  if (ready_.empty()) advance_locked();
  if (ready_.empty()) return;  // nothing due: the driver decides
  holder_ = ready_.front();
  ready_.pop_front();
  ++handoffs_;
}

void TimeKeeper::advance_locked() {
  if (threads_.empty()) return;

  Time min_deadline = kTimeInfinity;
  for (const auto* rec : threads_)
    if (rec->blocked) min_deadline = std::min(min_deadline, rec->deadline);

  if (min_deadline == kTimeInfinity) return;

  now_ = min_deadline;
  ++advances_;
  for (auto* rec : threads_) {  // registration order: deterministic ties
    if (rec->blocked && rec->deadline <= now_) {
      rec->blocked = false;  // timeout wake: notified stays false
      ready_.push_back(rec);
    }
  }
}

void TimeKeeper::watchdog_loop() {
  dbg::UniqueLock lk(mutex_);
  std::uint64_t stall_reported_at = 0;  // handoffs_ at the last stall report
  while (!watchdog_stop_) {
    // A holder that kept the baton across a whole grace period is blocked
    // outside the keeper (or spinning). Any wake before the period ends
    // restarts the sample.
    const std::uint64_t handoffs_at = handoffs_;
    if (watchdog_cv_.wait_for(lk.inner(), grace_) == std::cv_status::no_timeout)
      continue;
    if (holder_ == nullptr || handoffs_ != handoffs_at ||
        stall_reported_at == handoffs_)
      continue;
    stall_reported_at = handoffs_;  // report each stall once
    const std::string dump = state_dump_locked();
    if (deadlock_handler_) {
      // Run the handler without the lock: it may query the keeper.
      auto handler = deadlock_handler_;
      lk.unlock();
      handler(dump);
      lk.lock();
      continue;
    }
    std::fprintf(stderr,
                 "WARNING: sim thread '%s' has held the baton for %lld ms "
                 "without handing off — blocked outside the keeper (bare "
                 "mutex, real-time wait)?\n%s",
                 holder_->name.c_str(), static_cast<long long>(grace_.count()),
                 dump.c_str());
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
  TimeKeeper::ThreadRec& rec = tk_.current_rec(what);
  dbg::lockdep::cond_wait_check(tracked_mutex, what);
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
