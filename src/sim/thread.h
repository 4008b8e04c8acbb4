#pragma once

#include <functional>
#include <string>
#include <utility>

#include "sim/stats.h"
#include "sim/time_keeper.h"

namespace doceph::sim {

class CpuDomain;

/// A named simulation thread: a fiber of the TimeKeeper (see there) that
/// runs `body` with its own thread name, ThreadStats (allocated in the
/// registry) and ambient ExecContext (keeper + CPU domain). The constructor
/// queues the fiber for the run baton and returns at once; the thread first
/// runs when the baton reaches it, which from an outside spawner means at
/// the next outside join.
///
/// join() waits for `body` to return: in *simulated* time when called from
/// a sim thread of the same keeper (so the clock keeps advancing while the
/// target winds down); from anywhere else the caller's OS thread runs the
/// simulation until `body` returns, and nothing simulated runs after that
/// until the next outside join. Joins in the destructor.
class Thread {
 public:
  Thread() = default;

  Thread(TimeKeeper& tk, StatsRegistry& stats, std::string name, CpuDomain* domain,
         std::function<void()> body);

  Thread(Thread&& other) noexcept
      : tk_(other.tk_), rec_(std::exchange(other.rec_, nullptr)) {}
  /// Joins the currently owned thread first, which blocks (in simulated
  /// time from a sim thread).
  Thread& operator=(Thread&& other) {
    if (this == &other) return *this;
    join();
    tk_ = other.tk_;
    rec_ = std::exchange(other.rec_, nullptr);
    return *this;
  }
  Thread(const Thread&) = delete;
  Thread& operator=(const Thread&) = delete;

  ~Thread() { join(); }  // NOLINT(bugprone-exception-escape): join at scope exit; a throw terminates, by design

  void join();
  [[nodiscard]] bool joinable() const noexcept { return rec_ != nullptr; }

 private:
  TimeKeeper* tk_ = nullptr;
  TimeKeeper::ThreadRec* rec_ = nullptr;  // owned until join() frees it
};

}  // namespace doceph::sim
