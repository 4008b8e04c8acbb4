// Exercises the paper's §4 robustness machinery under injected DMA errors:
// adaptive fallback to the RPC path, cooldown, and probe-based reactivation.
// The system must keep committing writes correctly at every error rate.
#include "benchcore/experiment.h"
#include "benchcore/table.h"

using namespace doceph;
using namespace doceph::benchcore;

int main() {
  print_banner("Ablation", "DMA error injection: fallback + cooldown + probe");

  Table t({"error rate", "IOPS", "avg lat (s)", "fallback events",
           "RPC fallback MB"});
  for (const double rate : {0.0, 0.001, 0.01, 0.05}) {
    RunSpec spec;
    spec.mode = cluster::DeployMode::doceph;
    spec.object_size = 4 << 20;
    spec.dma_failure_rate = rate;
    const auto r = run_experiment(spec);
    t.row({Table::pct(rate, 1), Table::num(r.iops, 1), Table::num(r.avg_lat_s, 3),
           std::to_string(r.dma_fallback_events),
           Table::num(static_cast<double>(r.rpc_fallback_bytes) / 1e6, 1)});
  }
  t.print();
  std::printf(
      "\nReading: throughput degrades gracefully; every write still commits\n"
      "(completed segments are preserved, the rest re-routes over RPC).\n");
  return 0;
}
