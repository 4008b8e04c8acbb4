// Reproduces the paper's evaluation (§5): Figs. 5-10 and Tables 2-3. They
// all come from one rados-bench sweep: Baseline and DoCeph over 1/4/8/16 MB
// writes at 100 Gbps, plus a 1 Gbps Baseline 4 MB cell for Figs. 5/6. Each
// of those nine cells runs once, every table reads from them, and one raw
// line per cell closes the output (the metrics used to tune
// src/cluster/profiles.h).
//
//   paper_figures [--trace-out FILE] [--trace-sample N]
//
// A `%k` in the trace path expands to the cell's RunSpec::label(). A cell
// that completes no ops or fails any stops the run with a non-zero exit
// before any table is printed, so a broken cell never reads as zeros.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "benchcore/experiment.h"
#include "benchcore/paper.h"
#include "benchcore/table.h"

using namespace doceph;
using namespace doceph::benchcore;

namespace {

static_assert(paper::kSizes[1] == 4u << 20, "Figs. 5/6 and Table 2 use 4 MB");

// Fig. 5: CPU usage breakdown of each Ceph component under 1 Gbps and
// 100 Gbps (Baseline, 4 MB writes), plus total Ceph CPU normalized to a
// single core (the figure's right axis).
void fig5(const RunResult& g1, const RunResult& g100) {
  print_banner("Figure 5", "CPU breakdown: Messenger / ObjectStore / OSD");
  Table t({"network", "Messenger", "ObjectStore", "OSD threads", "total Ceph CPU",
           "paper: msgr share", "paper: total"});
  for (const bool is_100g : {false, true}) {
    const RunResult& r = is_100g ? g100 : g1;
    t.row({is_100g ? "100Gbps" : "1Gbps", Table::pct(r.share_messenger),
           Table::pct(r.share_objectstore), Table::pct(r.share_osd),
           Table::pct(r.total_ceph_cores),
           Table::pct(is_100g ? paper::kFig5MessengerShare100G
                              : paper::kFig5MessengerShare1G),
           Table::pct(is_100g ? paper::kFig5TotalCpu100G : paper::kFig5TotalCpu1G)});
  }
  t.print();
  std::printf(
      "\nKey claim: the Messenger dominates Ceph CPU (~80%%) at BOTH link\n"
      "speeds — the bottleneck is CPU-bound network processing, not the link.\n");
}

// Fig. 6: throughput under 1 Gbps vs 100 Gbps (Baseline, 4 MB writes). At
// 1 Gbps the link caps throughput; at 100 Gbps the SSDs become the
// bottleneck while the messenger's CPU share stays ~constant (Fig. 5).
void fig6(const RunResult& g1, const RunResult& g100) {
  print_banner("Figure 6", "Throughput under 1Gbps vs 100Gbps (Baseline, 4MB)");
  Table t({"network", "throughput MB/s", "IOPS", "link limit MB/s", "bottleneck"});
  for (const bool is_100g : {false, true}) {
    const RunResult& r = is_100g ? g100 : g1;
    t.row({is_100g ? "100Gbps" : "1Gbps", Table::num(r.mbps, 1), Table::num(r.iops, 1),
           is_100g ? "12500" : "125", is_100g ? "SSD (2x ~530 MB/s)" : "client NIC"});
  }
  t.print();
}

// Table 2: context switches of Messenger vs ObjectStore threads (Baseline,
// 4 MB writes, 100 Gbps). The paper reports counts per measurement
// interval; the reproducible quantity is the ratio (~10x), driven by the
// messenger's per-wakeup socket processing.
void tab2(const RunResult& r) {
  print_banner("Table 2", "Context switches: Messenger vs ObjectStore");
  const double per_s_m = static_cast<double>(r.ctx_messenger) / r.window_s;
  const double per_s_o = static_cast<double>(r.ctx_objectstore) / r.window_s;
  const double ratio = per_s_o > 0 ? per_s_m / per_s_o : 0;
  Table t({"component", "ctx switches/s", "measured ratio", "paper count",
           "paper ratio"});
  t.row({"Messenger", Table::num(per_s_m, 0), Table::num(ratio, 2) + "x",
         Table::num(paper::kTab2Messenger, 0), Table::num(paper::kTab2Ratio, 2) + "x"});
  t.row({"ObjectStore", Table::num(per_s_o, 0), "1x",
         Table::num(paper::kTab2ObjectStore, 0), "1x"});
  t.print();
  std::printf(
      "\nKey claim: the messenger's TCP/IP socket path voluntarily context\n"
      "switches ~an order of magnitude more often than the storage backend.\n");
}

// Fig. 7: host CPU usage across request sizes. Utilization follows the
// paper's single-core normalization (0.94 cores busy per storage node =
// "94.2%").
void fig7(const RunResult* base, const RunResult* dpu) {
  print_banner("Figure 7", "Host CPU utilization: Baseline vs DoCeph");
  Table t({"size", "Baseline host", "DoCeph host", "savings", "DPU (DoCeph)",
           "paper: base", "paper: doceph"});
  for (int i = 0; i < paper::kNumSizes; ++i) {
    const RunResult& rb = base[i];
    const RunResult& rd = dpu[i];
    const double savings = rb.host_cores > 0 ? 1.0 - rd.host_cores / rb.host_cores : 0;
    t.row({paper::kSizeNames[i], Table::pct(rb.host_cores), Table::pct(rd.host_cores),
           Table::pct(savings), Table::num(rd.dpu_cores, 2) + " cores",
           Table::num(paper::kFig7Baseline[i], 1) + "%",
           Table::num(paper::kFig7DoCeph[i], 2) + "%"});
  }
  t.print();
  std::printf(
      "\nKey claim: DoCeph cuts host CPU by ~90%%+ at every request size; the\n"
      "host retains only BlueStore + the backend service, flat and low.\n");
}

// Fig. 8: average write latency across request sizes. The offload-induced
// gap is large at 1 MB and shrinks as pipelining amortizes the DMA
// overheads at larger sizes.
void fig8(const RunResult* base, const RunResult* dpu) {
  print_banner("Figure 8", "Average write latency: Baseline vs DoCeph");
  Table t({"size", "Baseline (s)", "DoCeph (s)", "overhead", "paper: base",
           "paper: doceph", "paper overhead"});
  for (int i = 0; i < paper::kNumSizes; ++i) {
    const RunResult& rb = base[i];
    const RunResult& rd = dpu[i];
    const double over = rb.avg_lat_s > 0 ? rd.avg_lat_s / rb.avg_lat_s - 1.0 : 0;
    const double paper_over = paper::kFig8DoCeph[i] / paper::kFig8Baseline[i] - 1.0;
    t.row({paper::kSizeNames[i], Table::num(rb.avg_lat_s, 3),
           Table::num(rd.avg_lat_s, 3), Table::pct(over, 0),
           Table::num(paper::kFig8Baseline[i], 2),
           Table::num(paper::kFig8DoCeph[i], 2), Table::pct(paper_over, 0)});
  }
  t.print();
  std::printf(
      "\nKey claim: DoCeph's latency overhead shrinks from ~2/3 at 1 MB to a\n"
      "few percent at 16 MB as segment pipelining hides the DMA costs.\n");
}

// Table 3: average latency breakdown (seconds) of DoCeph write requests.
// Our Host-write includes host-side queueing at the SSD, which the paper
// books under Others (see EXPERIMENTS.md).
void tab3(const RunResult* dpu) {
  print_banner("Table 3", "DoCeph latency breakdown (seconds)");
  Table t({"row", "1MB", "4MB", "8MB", "16MB"});
  auto row = [&](const char* name, double RunResult::* f, const double* ref) {
    std::vector<std::string> cells{name};
    for (int i = 0; i < paper::kNumSizes; ++i) cells.push_back(Table::num(dpu[i].*f, 4));
    t.row(std::move(cells));
    std::vector<std::string> pcells{std::string("  (paper ") + name + ")"};
    for (int i = 0; i < paper::kNumSizes; ++i) pcells.push_back(Table::num(ref[i], 4));
    t.row(std::move(pcells));
  };
  row("Host write", &RunResult::bd_host_write_s, paper::kTab3HostWrite);
  row("DMA", &RunResult::bd_dma_s, paper::kTab3Dma);
  row("DMA-wait", &RunResult::bd_dma_wait_s, paper::kTab3DmaWait);
  row("Others", &RunResult::bd_others_s, paper::kTab3Others);
  row("Total avg latency", &RunResult::bd_total_s, paper::kTab3Total);
  t.print();
}

// Fig. 9: Table 3 normalized per request size. DMA-wait's share is largest
// at 1 MB and falls as pipelining overlaps segment transfers.
void fig9(const RunResult* dpu) {
  print_banner("Figure 9", "Normalized latency breakdown (share of total)");
  Table t({"size", "Host write", "DMA", "DMA-wait", "Others", "paper DMA-wait share"});
  for (int i = 0; i < paper::kNumSizes; ++i) {
    const RunResult& r = dpu[i];
    const double total = r.bd_total_s > 0 ? r.bd_total_s : 1;
    t.row({paper::kSizeNames[i], Table::pct(r.bd_host_write_s / total),
           Table::pct(r.bd_dma_s / total), Table::pct(r.bd_dma_wait_s / total),
           Table::pct(r.bd_others_s / total),
           Table::pct(paper::kTab3DmaWait[i] / paper::kTab3Total[i])});
  }
  t.print();
}

// Fig. 10: average throughput (IOPS) across request sizes.
void fig10(const RunResult* base, const RunResult* dpu) {
  print_banner("Figure 10", "Throughput (IOPS): Baseline vs DoCeph");
  Table t({"size", "Baseline IOPS", "DoCeph IOPS", "gap", "paper: base",
           "paper: doceph", "paper gap"});
  for (int i = 0; i < paper::kNumSizes; ++i) {
    const RunResult& rb = base[i];
    const RunResult& rd = dpu[i];
    const double gap = rb.iops > 0 ? 1.0 - rd.iops / rb.iops : 0;
    const double paper_gap = 1.0 - paper::kFig10DoCeph[i] / paper::kFig10Baseline[i];
    t.row({paper::kSizeNames[i], Table::num(rb.iops, 0), Table::num(rd.iops, 0),
           Table::pct(gap, 0), Table::num(paper::kFig10Baseline[i], 0),
           Table::num(paper::kFig10DoCeph[i], 0), Table::pct(paper_gap, 0)});
  }
  t.print();
  std::printf(
      "\nKey claim: DoCeph's throughput gap narrows from ~30%% at 1 MB to a\n"
      "few percent at large sizes while host CPU drops by ~90%%+ (Fig. 7).\n");
}

struct Cell {
  RunSpec spec;
  RunResult r;
};

void print_raw(const Cell& c) {
  const RunResult& r = c.r;
  const bool is_doceph = c.spec.mode == cluster::DeployMode::doceph;
  std::printf(
      "%2lluMB %-6s %-4s ops=%llu failed=%llu iops=%.1f lat=%.4f host=%.3f "
      "dpu=%.3f msgr%%=%.1f os%%=%.1f osd%%=%.1f ceph_cores=%.3f ctxM=%llu "
      "ctxO=%llu",
      static_cast<unsigned long long>(c.spec.object_size >> 20),
      is_doceph ? "doceph" : "base",
      c.spec.net == cluster::NetworkKind::gbe_100 ? "100G" : "1G",
      static_cast<unsigned long long>(r.ops),
      static_cast<unsigned long long>(r.failed_ops), r.iops, r.avg_lat_s, r.host_cores,
      r.dpu_cores, r.share_messenger * 100, r.share_objectstore * 100, r.share_osd * 100,
      r.total_ceph_cores, static_cast<unsigned long long>(r.ctx_messenger),
      static_cast<unsigned long long>(r.ctx_objectstore));
  if (is_doceph) {
    std::printf(" host_w=%.4f dma=%.4f dma_wait=%.4f others=%.4f total=%.4f",
                r.bd_host_write_s, r.bd_dma_s, r.bd_dma_wait_s, r.bd_others_s,
                r.bd_total_s);
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<Cell> cells;
  const auto run = [&](cluster::DeployMode mode, cluster::NetworkKind net,
                       std::uint64_t size) {
    RunSpec spec;
    spec.mode = mode;
    spec.net = net;
    spec.object_size = size;
    apply_trace_flags(spec, argc, argv);
    std::fprintf(stderr, "[paper_figures] running %s\n", spec.label().c_str());
    const RunResult r = run_experiment(spec);
    if (r.ops == 0 || r.failed_ops > 0) {
      std::fprintf(stderr, "[paper_figures] FAIL: cell %s: ops=%llu failed_ops=%llu\n",
                   spec.label().c_str(), static_cast<unsigned long long>(r.ops),
                   static_cast<unsigned long long>(r.failed_ops));
      std::exit(1);
    }
    cells.push_back({spec, r});
    return r;
  };

  const RunResult base_1g =
      run(cluster::DeployMode::baseline, cluster::NetworkKind::gbe_1, 4 << 20);
  RunResult base[paper::kNumSizes];
  RunResult dpu[paper::kNumSizes];
  for (int i = 0; i < paper::kNumSizes; ++i) {
    base[i] = run(cluster::DeployMode::baseline, cluster::NetworkKind::gbe_100,
                  paper::kSizes[i]);
    dpu[i] = run(cluster::DeployMode::doceph, cluster::NetworkKind::gbe_100,
                 paper::kSizes[i]);
  }

  fig5(base_1g, base[1]);
  fig6(base_1g, base[1]);
  tab2(base[1]);
  fig7(base, dpu);
  fig8(base, dpu);
  tab3(dpu);
  fig9(dpu);
  fig10(base, dpu);

  print_banner("Raw cells", "calibration metrics, one line per cell");
  for (const auto& c : cells) print_raw(c);
  return 0;
}
