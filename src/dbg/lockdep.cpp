#include "dbg/lockdep.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "common/thread_name.h"

namespace doceph::dbg::lockdep {
namespace {

#ifdef DOCEPH_LOCKDEP
constexpr bool kEnabledDefault = true;
#else
constexpr bool kEnabledDefault = false;
#endif

std::atomic<bool> g_enabled{kEnabledDefault};

struct ClassInfo {
  std::string name;
  bool rank_ordered = false;
};

struct EdgeInfo {
  std::string first_thread;  ///< thread that first recorded this edge
};

/// Registry + order graph. Guarded by a bare std::mutex: the engine must not
/// recurse into itself, and these sections never block on anything else.
struct Engine {
  std::mutex m;
  std::unordered_map<std::string, ClassId> by_name;
  std::vector<ClassInfo> classes;  // index = ClassId - 1
  // held-class -> acquired-class. Map (not multimap): one witness per edge.
  std::map<std::pair<ClassId, ClassId>, EdgeInfo> edges;
  std::map<ClassId, std::set<ClassId>> out;
  Handler handler;  // empty = default print-and-abort
};

Engine& engine() {
  static Engine* e = new Engine;  // leaked: threads may release at exit
  return *e;
}

thread_local HeldStack t_held;

const ClassInfo& info_locked(const Engine& e, ClassId cls) {
  static const ClassInfo kUnknown{"<untracked>", false};
  if (cls == kInvalidClass || cls > e.classes.size()) return kUnknown;
  return e.classes[cls - 1];
}

/// DFS: is `to` reachable from `from` in the order graph? On success fills
/// `path` with the class chain from..to. Requires e.m held.
bool reachable_locked(const Engine& e, ClassId from, ClassId to,
                      std::vector<ClassId>& path, std::set<ClassId>& seen) {
  if (from == to) {
    path.push_back(from);
    return true;
  }
  if (!seen.insert(from).second) return false;
  auto it = e.out.find(from);
  if (it == e.out.end()) return false;
  for (const ClassId next : it->second) {
    if (reachable_locked(e, next, to, path, seen)) {
      path.push_back(from);
      return true;
    }
  }
  return false;
}

std::string held_dump_locked(const Engine& e) {
  std::ostringstream os;
  os << "held locks (oldest first):\n";
  if (t_held.empty()) os << "  (none)\n";
  for (std::size_t i = 0; i < t_held.size(); ++i) {
    os << "  #" << i << ' ' << info_locked(e, t_held[i].cls).name
       << " (instance " << t_held[i].instance << ")\n";
  }
  return os.str();
}

void fire_locked(Engine& e, std::unique_lock<std::mutex>& lk, Violation v) {
  // Run the handler (or default) without the engine lock: a recording
  // handler may itself allocate/log, and an aborting one never returns.
  Handler h = e.handler;
  lk.unlock();
  if (h) {
    h(v);
    lk.lock();
    return;
  }
  std::fprintf(stderr, "%s", v.report.c_str());
  std::fflush(stderr);
  std::abort();
}

}  // namespace

bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }
void set_enabled(bool on) noexcept { g_enabled.store(on, std::memory_order_relaxed); }

Handler set_handler(Handler h) {
  Engine& e = engine();
  const std::lock_guard<std::mutex> lk(e.m);
  Handler prev = std::move(e.handler);
  e.handler = std::move(h);
  return prev;
}

ClassId register_class(const std::string& name, bool rank_ordered) {
  Engine& e = engine();
  const std::lock_guard<std::mutex> lk(e.m);
  auto it = e.by_name.find(name);
  if (it != e.by_name.end()) {
    e.classes[it->second - 1].rank_ordered |= rank_ordered;
    return it->second;
  }
  e.classes.push_back(ClassInfo{name, rank_ordered});
  const auto id = static_cast<ClassId>(e.classes.size());
  e.by_name.emplace(name, id);
  return id;
}

std::string class_name(ClassId cls) {
  Engine& e = engine();
  const std::lock_guard<std::mutex> lk(e.m);
  if (cls == kInvalidClass || cls > e.classes.size()) return "<invalid>";
  return e.classes[cls - 1].name;
}

void acquire(const void* instance, ClassId cls) {
  if (!enabled() || cls == kInvalidClass) {
    t_held.push_back(HeldLock{instance, cls});
    return;
  }
  Engine& e = engine();
  std::unique_lock<std::mutex> lk(e.m);

  // (b) recursive self-deadlock / unannotated same-class nesting.
  for (const HeldLock& h : t_held) {
    const bool same_instance = h.instance == instance;
    const bool same_class = h.cls == cls;
    if (!same_instance && !(same_class && !info_locked(e, cls).rank_ordered)) continue;
    std::ostringstream os;
    os << "== doceph lockdep: RECURSIVE LOCK ==\n"
       << "thread: " << current_thread_name() << '\n'
       << "acquiring: " << info_locked(e, cls).name << " (instance " << instance
       << ")\n"
       << (same_instance
               ? "already held by this thread (self-deadlock)\n"
               : "another instance of this class is already held; two threads "
                 "doing this in opposite instance order deadlock (register "
                 "the class rank_ordered if an instance order is enforced)\n")
       << held_dump_locked(e);
    fire_locked(e, lk, Violation{Violation::Kind::recursive_lock, os.str()});
    t_held.push_back(HeldLock{instance, cls});
    return;
  }

  // (a) order edges from every held class; report the first cycle found.
  for (const HeldLock& h : t_held) {
    if (h.cls == cls || h.cls == kInvalidClass) continue;
    const auto key = std::make_pair(h.cls, cls);
    if (e.edges.contains(key)) continue;
    std::vector<ClassId> path;
    std::set<ClassId> seen;
    if (reachable_locked(e, cls, h.cls, path, seen)) {
      // path is filled callee-first: [h.cls, ..., cls] reversed.
      std::ostringstream os;
      os << "== doceph lockdep: LOCK-ORDER INVERSION ==\n"
         << "thread: " << current_thread_name() << '\n'
         << "acquiring: " << info_locked(e, cls).name << " (instance " << instance
         << ")\n"
         << held_dump_locked(e) << "dependency cycle:\n";
      // Reconstruct forward order: cls -> ... -> h.cls -> cls(attempted).
      for (auto it = path.rbegin(); it != path.rend(); ++it) {
        auto next = std::next(it);
        if (next == path.rend()) break;
        const auto ekey = std::make_pair(*it, *next);
        os << "  " << info_locked(e, *it).name << " -> "
           << info_locked(e, *next).name;
        auto edge = e.edges.find(ekey);
        if (edge != e.edges.end())
          os << "   [first taken in this order on thread '"
             << edge->second.first_thread << "']";
        os << '\n';
      }
      os << "  " << info_locked(e, h.cls).name << " -> " << info_locked(e, cls).name
         << "   <- attempted now\n";
      fire_locked(e, lk, Violation{Violation::Kind::lock_inversion, os.str()});
      t_held.push_back(HeldLock{instance, cls});
      return;  // do not record the cycle-closing edge
    }
    e.edges.emplace(key, EdgeInfo{current_thread_name()});
    e.out[h.cls].insert(cls);
  }
  t_held.push_back(HeldLock{instance, cls});
}

void acquire_trylock(const void* instance, ClassId cls) {
  if (!enabled() || cls == kInvalidClass) {
    t_held.push_back(HeldLock{instance, cls});
    return;
  }
  Engine& e = engine();
  const std::lock_guard<std::mutex> lk(e.m);
  for (const HeldLock& h : t_held) {
    if (h.cls == cls || h.cls == kInvalidClass) continue;
    const auto key = std::make_pair(h.cls, cls);
    if (e.edges.contains(key)) continue;
    std::vector<ClassId> path;
    std::set<ClassId> seen;
    if (reachable_locked(e, cls, h.cls, path, seen)) continue;  // skip, no report
    e.edges.emplace(key, EdgeInfo{current_thread_name()});
    e.out[h.cls].insert(cls);
  }
  t_held.push_back(HeldLock{instance, cls});
}

void release(const void* instance) noexcept {
  for (auto it = t_held.rbegin(); it != t_held.rend(); ++it) {
    if (it->instance == instance) {
      t_held.erase(std::next(it).base());
      return;
    }
  }
}

void cond_wait_check(const void* wait_mutex, const char* what) {
  if (!enabled()) return;
  bool extra = false;
  for (const HeldLock& h : t_held) extra |= h.instance != wait_mutex;
  if (!extra) return;
  Engine& e = engine();
  std::unique_lock<std::mutex> lk(e.m);
  std::ostringstream os;
  os << "== doceph lockdep: SIM BLOCK WHILE HOLDING LOCKS ==\n"
     << "thread: " << current_thread_name() << "\n"
     << "blocking in: " << what << " (mutex " << wait_mutex << ")\n"
     << "the block hands the run baton to other sim threads, but this thread "
        "still holds:\n"
     << held_dump_locked(e)
     << "a thread contending on those locks blocks while holding the run "
        "baton, which deadlocks the simulation.\n";
  fire_locked(e, lk, Violation{Violation::Kind::cond_wait_holding, os.str()});
}

void swap_held_stack(HeldStack& other) noexcept { t_held.swap(other); }

std::size_t held_count() noexcept { return t_held.size(); }

bool is_held(const void* instance) noexcept {
  for (const HeldLock& h : t_held)
    if (h.instance == instance) return true;
  return false;
}

void reset_graph_for_testing() {
  Engine& e = engine();
  const std::lock_guard<std::mutex> lk(e.m);
  e.edges.clear();
  e.out.clear();
}

}  // namespace doceph::dbg::lockdep
