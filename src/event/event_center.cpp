#include "event/event_center.h"

#include <vector>

namespace doceph::event {

/// Shared between a center and its handles: `center` is written once (to
/// null) by the destructor; handles read it under `m` for the duration of
/// the dispatch, so a center can never die mid-dispatch.
struct EventCenter::Handle::State {
  dbg::Mutex m{"event.center.handle"};
  EventCenter* center DOCEPH_GUARDED_BY(m) = nullptr;
};

EventCenter::EventCenter(sim::Env& env)
    : env_(env), cv_(env.keeper(), "event.center.cv") {
  handle_state_ = std::make_shared<Handle::State>();
  const dbg::LockGuard lk(handle_state_->m);
  handle_state_->center = this;
}

EventCenter::~EventCenter() {  // NOLINT(bugprone-exception-escape): teardown orphans the dispatch handles under their lock; a throw terminates, by design
  const dbg::LockGuard lk(handle_state_->m);
  handle_state_->center = nullptr;
}

EventCenter::Handle EventCenter::handle() { return Handle(handle_state_); }

void EventCenter::Handle::dispatch(Handler h) const {
  if (state_ == nullptr) return;
  const dbg::LockGuard lk(state_->m);
  if (state_->center != nullptr) state_->center->dispatch(std::move(h));
}

void EventCenter::run() {
  loop_thread_.store(sim::TimeKeeper::current_thread());
  dbg::UniqueLock lk(mutex_);
  while (true) {
    // Drain dispatched handlers and due timers together, in order.
    std::vector<Handler> batch;
    while (!pending_.empty()) {
      batch.push_back(std::move(pending_.front()));
      pending_.pop_front();
    }
    const sim::Time now = env_.now();
    while (!timers_.empty() && timers_.begin()->first.first <= now) {
      batch.push_back(std::move(timers_.begin()->second));
      timers_.erase(timers_.begin());
    }
    if (!batch.empty()) {
      wakeups_.fetch_add(1, std::memory_order_relaxed);
      lk.unlock();
      for (auto& h : batch) h();
      lk.lock();
      continue;
    }
    if (stopping_) break;  // drained everything; exit
    const sim::Time next =
        timers_.empty() ? sim::kTimeInfinity : timers_.begin()->first.first;
    (void)cv_.wait_until(lk, next);
  }
  loop_thread_.store(nullptr);
}

void EventCenter::stop() {
  const dbg::LockGuard lk(mutex_);
  stopping_ = true;
  cv_.notify_all();
}

void EventCenter::dispatch(Handler h) {
  const dbg::LockGuard lk(mutex_);
  pending_.push_back(std::move(h));
  cv_.notify_one();
}

EventCenter::TimerId EventCenter::add_timer(sim::Duration d, Handler h) {
  const dbg::LockGuard lk(mutex_);
  const TimerId id = next_timer_id_++;
  timers_.emplace(std::make_pair(env_.now() + std::max<sim::Duration>(d, 0), id),
                  std::move(h));
  cv_.notify_one();
  return id;
}

bool EventCenter::cancel_timer(TimerId id) {
  const dbg::LockGuard lk(mutex_);
  for (auto it = timers_.begin(); it != timers_.end(); ++it) {
    if (it->first.second == id) {
      timers_.erase(it);
      return true;
    }
  }
  return false;
}

}  // namespace doceph::event
