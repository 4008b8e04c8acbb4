#pragma once

#include <memory>

#include "sim/stats.h"

namespace doceph::sim {

class TimeKeeper;
class CpuDomain;

/// Ambient per-thread execution context, established by sim::Thread. Cost
/// models use it to find the calling thread's CPU domain and stats without
/// threading them through every call.
struct ExecContext {
  TimeKeeper* keeper = nullptr;
  CpuDomain* domain = nullptr;          ///< may be null (housekeeping threads)
  std::shared_ptr<ThreadStats> stats;   ///< may be null

  /// Context of the calling sim thread (default-empty outside one). Backed
  /// by a thread-local that the TimeKeeper swaps on every fiber switch.
  static ExecContext& current() noexcept;
};

}  // namespace doceph::sim
