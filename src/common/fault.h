#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "dbg/mutex.h"

namespace doceph::fault {

/// One trigger armed on a fault point. A spec fires when its budget
/// (`count`) is not exhausted and any of its triggers matches the hit:
///
///   - `force_next`   unconditional fires for the next N matching hits
///   - `fire_at_hit`  fire exactly on the k-th matching hit (1-based)
///   - `fire_at_time` fire on every hit at/after the given sim time
///   - `probability`  fire with probability p, drawn from the entry's
///                    private deterministic stream
///
/// `match` scopes the spec to hits whose `scope` string contains it
/// (empty = every hit at the point). `delay_ns` is advisory extra latency
/// the hook applies when the spec fires (latency-spike style faults).
struct FaultSpec {
  double probability = 0.0;
  std::int64_t fire_at_hit = -1;
  std::int64_t fire_at_time = -1;
  std::int64_t count = -1;  ///< max fires; -1 = unlimited, 1 = one-shot
  std::int64_t force_next = 0;
  std::uint64_t delay_ns = 0;
  std::string match{};
};

/// Result of consulting a fault point: whether any armed spec fired for
/// this hit, and the largest advisory delay among the specs that fired.
struct FaultHit {
  bool fired = false;
  std::uint64_t delay_ns = 0;
};

/// Deterministically seeded registry of named fault points.
///
/// Instrumented components call `should_fire("net.drop", now, scope)` (or
/// `hit()` when they also want the advisory delay) at the moment the fault
/// would take effect; the call is free when nothing is armed (one relaxed
/// atomic load). Tests, per-daemon config, and the admin socket
/// (`fault set/list/clear`) arm specs.
///
/// Determinism contract: each (point, match) entry owns a private
/// mt19937_64 seeded from splitmix(registry_seed, hash(point, match)), and
/// consumes exactly one draw per probabilistic evaluation, under the
/// registry lock. Whether hit #k fires is therefore a pure function of
/// (seed, k) — independent of thread interleaving and of wall/sim time.
/// The firing log records `point[@match]#hit_index` (no timestamps), so
/// two same-seed runs of a workload with identical per-point hit counts
/// produce byte-identical logs. Scripted time triggers (`fire_at_time`)
/// are deterministic when the consulting site runs at a fixed virtual-time
/// cadence (e.g. the cluster chaos monitor).
class FaultRegistry {
 public:
  explicit FaultRegistry(std::uint64_t seed = 42) : seed_(seed) {}

  FaultRegistry(const FaultRegistry&) = delete;
  FaultRegistry& operator=(const FaultRegistry&) = delete;

  /// Arm (or replace) the spec for (point, spec.match). Replacing resets
  /// that entry's hit/fire counters and random stream. A spec with no
  /// trigger (no probability/at-hit/at-time/force) disarms that entry.
  void set(const std::string& point, FaultSpec spec);

  /// Force the next `n` matching hits at `point` to fire. Merges into an
  /// existing (point, match) entry, preserving its counters and stream.
  void fire_next(const std::string& point, std::int64_t n, const std::string& match = "");

  /// Disarm all specs at `point`; returns true if any were armed.
  bool clear(const std::string& point);
  void clear_all();

  /// Cheap guard for hot paths: false iff no spec is armed anywhere.
  /// (Per-point probes still take the lock; callers gate on this first.)
  [[nodiscard]] bool any_armed() const noexcept {
    return armed_entries_.load(std::memory_order_relaxed) != 0;
  }

  /// Record one hit at `point` and evaluate every armed spec whose match
  /// is contained in `scope`. Returns the combined outcome.
  FaultHit hit(std::string_view point, std::int64_t now, std::string_view scope = {});

  /// Convenience wrapper for hooks that only need a boolean.
  bool should_fire(std::string_view point, std::int64_t now, std::string_view scope = {}) {
    return hit(point, now, scope).fired;
  }

  /// Total hits / fires across all entries at `point`.
  [[nodiscard]] std::uint64_t hits(std::string_view point) const;
  [[nodiscard]] std::uint64_t fires(std::string_view point) const;

  /// Ordered record of every fire: "point[@match]#hit_index".
  [[nodiscard]] std::vector<std::string> firing_log() const;

  /// JSON dump of every armed entry plus counters (admin `fault list`).
  [[nodiscard]] std::string list_json() const;

  /// Admin-socket verbs. `args` excludes the leading "fault" token:
  ///   set <point> [match=S] [p=F] [at_hit=N] [at_time=NS] [count=N]
  ///               [force=N] [delay_ns=NS]
  ///   list
  ///   clear [point]
  /// Returns a JSON reply (never throws; errors are {"error": ...}).
  std::string admin_command(const std::vector<std::string>& args);

 private:
  struct Entry {
    FaultSpec spec;
    std::uint64_t hit_count = 0;
    std::uint64_t fire_count = 0;
    std::mt19937_64 rng;
  };

  static std::uint64_t entry_seed(std::uint64_t seed, std::string_view point,
                                  std::string_view match) noexcept;
  Entry make_entry(std::string_view point, FaultSpec spec) const;
  void refresh_armed_locked() DOCEPH_REQUIRES(mutex_);

  // hit() is called from arbitrary hot paths, some while component locks
  // are held, so this mutex must stay a leaf: no FaultRegistry method may
  // acquire anything else while holding it. lockdep now verifies that
  // instead of the old plain-std::mutex code merely promising it.
  mutable dbg::Mutex mutex_{"common.fault_registry"};
  std::uint64_t seed_;  // set at construction, immutable afterwards
  std::atomic<std::uint64_t> armed_entries_{0};
  std::map<std::string, std::vector<Entry>, std::less<>> points_
      DOCEPH_GUARDED_BY(mutex_);
  std::vector<std::string> log_ DOCEPH_GUARDED_BY(mutex_);
};

}  // namespace doceph::fault
