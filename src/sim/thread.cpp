#include "sim/thread.h"

#include <utility>

#include "sim/cpu_model.h"
#include "sim/exec_context.h"

namespace doceph::sim {

Thread::Thread(TimeKeeper& tk, StatsRegistry& stats, std::string name,
               CpuDomain* domain, std::function<void()> body)
    : tk_(&tk) {
  auto thread_stats = stats.add(name, domain != nullptr ? domain->name() : "");
  rec_ = tk.spawn(std::move(name), ExecContext{&tk, domain, std::move(thread_stats)},
                  std::move(body));
}

void Thread::join() {
  if (rec_ != nullptr) tk_->join(std::exchange(rec_, nullptr));
}

}  // namespace doceph::sim
