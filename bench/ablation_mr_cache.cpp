// Ablation of memory-region caching (paper §3.3): with the MR cache off,
// every DMA transfer renegotiates its region over the CommChannel, adding a
// round trip per 2 MB segment.
#include "benchcore/experiment.h"
#include "benchcore/table.h"
#include "cluster/profiles.h"

using namespace doceph;
using namespace doceph::benchcore;

int main() {
  print_banner("Ablation", "MR cache: reuse pre-established regions vs per-transfer "
               "negotiation");

  Table t({"size", "MR cache", "IOPS", "avg lat (s)", "DMA-wait (s)"});
  for (const std::uint64_t size : {1u << 20, 16u << 20}) {
    for (const bool cache : {true, false}) {
      RunSpec spec;
      spec.mode = cluster::DeployMode::doceph;
      spec.object_size = size;
      auto p = cluster::default_proxy();
      p.mr_cache = cache;
      spec.proxy_override = p;
      const auto r = run_experiment(spec);
      t.row({size == (1u << 20) ? "1MB" : "16MB", cache ? "on" : "off",
             Table::num(r.iops, 1), Table::num(r.avg_lat_s, 3),
             Table::num(r.bd_dma_wait_s, 4)});
    }
  }
  t.print();
  return 0;
}
