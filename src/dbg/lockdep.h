#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace doceph::dbg {

/// Runtime lockdep: a lock-order checker in the spirit of the Linux kernel's
/// lockdep, scaled to this codebase. Every dbg::Mutex belongs to a named
/// *lock class* (e.g. "bluestore.store", "msgr.messenger"); instances of the
/// same class share one node in a global lock-order graph. While checking is
/// enabled the engine maintains, per thread, the stack of held locks and, on
/// every acquisition, records held-class -> acquired-class edges. It reports:
///
///  (a) lock-order inversion — acquiring B while holding A after some thread
///      has acquired A while holding B (any cycle, not just length 2);
///  (b) recursive self-deadlock — re-acquiring a mutex instance the calling
///      thread already holds (including same-class instance pairs, which are
///      a potential ABBA between two threads unless the class is explicitly
///      registered as rank-ordered);
///  (c) block-while-holding — any keeper block (a sim/dbg CondVar wait,
///      TimeKeeper::sleep_for/sleep_until, and so CpuDomain::charge) while
///      holding a tracked lock other than the one associated with the wait,
///      from a thread registered with a TimeKeeper. The block hands the
///      keeper's run baton on while the extra lock stays held; the first
///      thread that then contends for it blocks in the OS *with* the baton,
///      which wedges the whole simulation, not just that thread.
///
/// Checking costs one hash lookup + small vector scan per lock op and is
/// disabled by default; enable per-build with -DDOCEPH_LOCKDEP=ON or per
/// test/process with set_enabled(true). The engine itself is always compiled
/// so any build can run the checker's own tests.
///
/// Violations go to the installed handler; the default prints the report to
/// stderr and aborts. Tests install a recording handler; when a handler
/// returns normally the offending operation proceeds (the report has been
/// made; aborting twice on one bug helps nobody).
namespace lockdep {

using ClassId = std::uint32_t;
constexpr ClassId kInvalidClass = 0;

struct Violation {
  enum class Kind {
    lock_inversion,     ///< cycle in the lock-order graph
    recursive_lock,     ///< same instance (or same class) already held
    cond_wait_holding,  ///< keeper block with an unrelated tracked lock held
  };
  Kind kind;
  std::string report;  ///< multi-line human-readable report
};

using Handler = std::function<void(const Violation&)>;

/// Master switch. Starts as `true` when built with -DDOCEPH_LOCKDEP=ON
/// (compile definition DOCEPH_LOCKDEP), else `false`.
[[nodiscard]] bool enabled() noexcept;
void set_enabled(bool on) noexcept;

/// Replace the violation handler (pass nullptr to restore the default
/// print-and-abort behavior). Returns the previous handler.
Handler set_handler(Handler h);

/// Intern a lock class. Same name -> same id, across all call sites.
/// `rank_ordered` permits holding several *instances* of this class at once
/// (callers guarantee a consistent instance order, e.g. by address); the
/// default treats same-class nesting as a potential ABBA deadlock.
ClassId register_class(const std::string& name, bool rank_ordered = false);

/// Name of a registered class (for reports/tests).
[[nodiscard]] std::string class_name(ClassId cls);

/// Called by dbg::Mutex before blocking on the underlying mutex: runs checks
/// (a)/(b) against the calling thread's held set, records order edges, and
/// pushes the lock onto the held stack. The push happens even when a check
/// fires and the handler returns, keeping bookkeeping consistent with the
/// acquisition that is about to happen anyway.
void acquire(const void* instance, ClassId cls);

/// Bookkeeping for a lock acquired via a *successful* try_lock: pushes the
/// held entry and records order edges, but never fires a violation —
/// probing locks in reverse order is a legitimate deadlock-avoidance idiom
/// (try_lock cannot block). An edge that would close a cycle is skipped so
/// the probe does not poison the graph for checked acquisitions.
void acquire_trylock(const void* instance, ClassId cls);

/// Called by dbg::Mutex after releasing: pops the lock from the held stack
/// (out-of-order release is fine).
void release(const void* instance) noexcept;

/// Check (c): about to block in the TimeKeeper (a sim thread's wait, or a
/// join that hands the run baton to other sim threads); `wait_mutex` is the
/// lock the block releases (a condvar's mutex) or null (a sleep, a join).
/// `what` names the condvar or keeper primitive for the report.
void cond_wait_check(const void* wait_mutex, const char* what);

/// One entry of a thread's held-lock stack.
struct HeldLock {
  const void* instance;
  ClassId cls;
};
/// A thread's held locks, oldest first.
using HeldStack = std::vector<HeldLock>;

/// Exchange the calling OS thread's held stack with `other`. Every sim
/// thread is a fiber on one OS thread; sim::TimeKeeper swaps each fiber's
/// own stack in and out as it switches between them, so the checks and
/// is_held() see the running sim thread's locks only.
void swap_held_stack(HeldStack& other) noexcept;

/// Number of tracked locks the calling thread currently holds.
[[nodiscard]] std::size_t held_count() noexcept;

/// Does the calling thread currently hold `instance`? Backed by the
/// thread-local held stack, which is maintained even with checking disabled,
/// so this is always accurate for locks taken through dbg wrappers. Powers
/// dbg::Mutex::assert_held() (the runtime side of the static
/// ASSERT_CAPABILITY annotation used in condvar predicates).
[[nodiscard]] bool is_held(const void* instance) noexcept;

/// Test hook: forget all recorded order edges (class registrations persist).
/// Lets independent test cases seed contradictory orders without tripping
/// over each other. Not for production code.
void reset_graph_for_testing();

}  // namespace lockdep
}  // namespace doceph::dbg
