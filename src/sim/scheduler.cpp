#include "sim/scheduler.h"

#include <vector>

namespace doceph::sim {

EventScheduler::EventScheduler(TimeKeeper& tk, StatsRegistry& stats)
    : tk_(tk),
      wakeup_(tk, "sim.scheduler.wakeup"),
      thread_(tk, stats, "sim-scheduler", /*domain=*/nullptr, [this] { run(); }) {}

EventScheduler::~EventScheduler() {  // NOLINT(bugprone-exception-escape): teardown joins the dispatch thread; a throw terminates, by design
  stop();
  thread_.join();
}

EventScheduler::EventId EventScheduler::schedule_at(Time t, Callback cb) {
  const dbg::LockGuard lk(mutex_);
  const EventId id = next_id_++;
  queue_.emplace(std::make_pair(t, id), std::move(cb));
  wakeup_.notify_one();
  return id;
}

bool EventScheduler::cancel(EventId id) {
  const dbg::LockGuard lk(mutex_);
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (it->first.second == id) {
      queue_.erase(it);
      return true;
    }
  }
  return false;
}

void EventScheduler::stop() {
  const dbg::LockGuard lk(mutex_);
  stopping_ = true;
  wakeup_.notify_all();
}

void EventScheduler::run() {
  dbg::UniqueLock lk(mutex_);
  while (!stopping_) {
    if (queue_.empty()) {
      wakeup_.wait(lk);
      continue;
    }
    const Time next = queue_.begin()->first.first;
    if (tk_.now() < next) {
      // Wait until the head is due or a new (possibly earlier) event arrives.
      (void)wakeup_.wait_until(lk, next);
      continue;
    }
    // Collect everything due, then run outside the lock so callbacks can
    // schedule further events or notify other threads freely.
    std::vector<Callback> due;
    const Time now = tk_.now();
    while (!queue_.empty() && queue_.begin()->first.first <= now) {
      due.push_back(std::move(queue_.begin()->second));
      queue_.erase(queue_.begin());
    }
    lk.unlock();
    for (auto& cb : due) cb();
    lk.lock();
  }
}

}  // namespace doceph::sim
