#pragma once

#include <cstdint>
#include <memory>

#include "common/fault.h"
#include "common/trace.h"
#include "sim/rng.h"
#include "sim/stats.h"
#include "sim/thread.h"
#include "sim/time_keeper.h"

namespace doceph::sim {

/// One simulation universe: clock (with its timed callbacks, see
/// TimeKeeper::call_at) + thread stats + seed. Everything in a cluster
/// (fabric, daemons, devices, benches) hangs off one Env; tests create a
/// fresh Env each and destroy it at the end.
class Env {
 public:
  explicit Env(TimeKeeper::Mode mode = TimeKeeper::Mode::virtual_time,
               std::uint64_t seed = 42)
      : keeper_(mode), seed_(seed), faults_(seed), tracer_(seed) {
    tracer_.set_clock([this] { return keeper_.now(); });
  }

  [[nodiscard]] TimeKeeper& keeper() noexcept { return keeper_; }
  [[nodiscard]] StatsRegistry& stats() noexcept { return stats_; }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

  /// Deterministic fault-injection registry shared by every component in
  /// this universe (see common/fault.h for the determinism contract).
  [[nodiscard]] fault::FaultRegistry& faults() noexcept { return faults_; }

  /// Universe-wide distributed tracer: every daemon, device and store in
  /// this Env records spans here (see common/trace.h for the determinism
  /// contract). Sampling is off until set_sample_every() arms it.
  [[nodiscard]] trace::Tracer& tracer() noexcept { return tracer_; }

  [[nodiscard]] Time now() const { return keeper_.now(); }

  /// Spawn a named sim thread bound to a CPU domain (may be null). From
  /// outside the simulation it first runs at the next outside join.
  Thread spawn(std::string name, CpuDomain* domain, std::function<void()> body) {
    return Thread(keeper_, stats_, std::move(name), domain, std::move(body));
  }

  /// Derive a deterministic RNG for a component.
  [[nodiscard]] Rng make_rng(std::uint64_t salt) const {
    return Rng(Rng::derive_seed(seed_, salt));
  }

  /// Run `body` to completion on a registered sim thread and join. The
  /// entry point for drivers (tests, benches, examples): blocking sim
  /// primitives are only legal on such threads. The calling thread runs the
  /// simulation until `body` returns; every other sim thread then stays
  /// parked, and the clock stopped, until the next outside join.
  void run_on_sim_thread(const std::function<void()>& body,
                         const std::string& name = "driver") {
    Thread t(keeper_, stats_, name, nullptr, body);
    t.join();
  }

 private:
  TimeKeeper keeper_;
  StatsRegistry stats_;
  std::uint64_t seed_;
  fault::FaultRegistry faults_;
  trace::Tracer tracer_;
};

}  // namespace doceph::sim
