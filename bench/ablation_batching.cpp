// Ablation of the batched offload hot path: sweep the scatter-gather DMA
// coalescing depth (segments per flush) and the doorbell flush deadline, at
// a 16 KB small-write workload where per-op fixed costs (comch doorbells,
// DMA job setup, per-send syscalls) dominate. The "off" row is the paper
// profile's unbatched hot path for reference; the batched rows run the
// production profile. The depth stops at 16: 16 writers never queue more
// than 16 segments per flush, so deeper caps repeat the 16 rows exactly.
#include "benchcore/experiment.h"
#include "benchcore/table.h"
#include "cluster/profiles.h"

using namespace doceph;
using namespace doceph::benchcore;

int main() {
  print_banner("Ablation", "offload batching: SG depth x flush deadline (16KB qd16)");

  Table t({"batch", "max segs", "deadline (us)", "IOPS", "p99 (s)", "DMA-wait (s)",
           "host CPU"});

  // Reference: the paper profile (no corking, RPC or DMA batching).
  {
    RunSpec spec;
    spec.mode = cluster::DeployMode::doceph;
    spec.object_size = 16 << 10;
    spec.concurrency = 16;
    spec.reuse_objects = 32;  // bounded inline-write set (see RunSpec)
    const auto r = run_experiment(spec);
    t.row({"off", "-", "-", Table::num(r.iops, 1), Table::num(r.p99_lat_s, 4),
           Table::num(r.bd_dma_wait_s, 4), Table::pct(r.host_cores)});
  }

  for (const int max_segments : {4, 16}) {
    for (const sim::Duration deadline : {50'000, 150'000, 500'000}) {
      RunSpec spec;
      spec.mode = cluster::DeployMode::doceph;
      spec.object_size = 16 << 10;
      spec.concurrency = 16;
      spec.reuse_objects = 32;
      spec.profile = cluster::Profile::production;
      auto p = cluster::ClusterConfig::testbed(spec.profile, spec.mode).proxy;
      p.dma_batch.max_segments = max_segments;
      p.dma_batch.flush_delay = deadline;
      p.rpc_batch.flush_delay = deadline / 2;
      spec.proxy_override = p;
      const auto r = run_experiment(spec);
      t.row({"on", std::to_string(max_segments),
             Table::num(static_cast<double>(deadline) / 1e3, 0),
             Table::num(r.iops, 1), Table::num(r.p99_lat_s, 4),
             Table::num(r.bd_dma_wait_s, 4), Table::pct(r.host_cores)});
    }
  }
  t.print();
  std::printf(
      "\nReading: deeper coalescing amortizes the DMA setup and doorbell\n"
      "overheads across more segments; past the sweet spot the flush\n"
      "deadline itself shows up in p99.\n");
  return 0;
}
