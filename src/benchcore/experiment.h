#pragma once

#include <optional>
#include <string>

#include "cluster/cluster.h"
#include "proxy/proxy_object_store.h"

namespace doceph::benchcore {

/// One experimental configuration (a cell of the paper's sweep).
struct RunSpec {
  cluster::DeployMode mode = cluster::DeployMode::baseline;
  cluster::NetworkKind net = cluster::NetworkKind::gbe_100;
  std::uint64_t object_size = 4 << 20;
  int concurrency = 16;                       // rados bench -t 16 (paper §5.1)
  sim::Duration warmup = 1'000'000'000;       // 1 s
  sim::Duration measure = 4'000'000'000;      // 4 s
  std::uint32_t pg_num = 64;
  std::uint64_t seed = 42;

  /// Named deployment (ClusterConfig::testbed): `paper` is the figure
  /// sweep's calibration, `production` adds coalescing and backpressure.
  cluster::Profile profile = cluster::Profile::paper;

  /// >0: writers cycle through a bounded object working set (see
  /// BenchConfig::reuse_objects). Documented opt-in for bounding metadata
  /// growth; fresh-object small-write floods now degrade gracefully via
  /// chained KV checkpoints + backpressure instead of dying with no_space.
  std::uint64_t reuse_objects = 0;

  /// Write-path sharding (DESIGN.md §15): OsdConfig::op_shards and
  /// ClusterConfig::kv_shards. 1 (default) is the paper's unsharded
  /// pipeline. More than one op lane also provisions one proxy staging
  /// slot per lane (ClusterConfig::proxy_config).
  int op_shards = 1;
  int kv_shards = 1;

  /// Ablation overrides for the proxy (DoCeph mode only). Replaces the
  /// profile's proxy: start from `ClusterConfig::testbed(profile, ...).proxy`.
  std::optional<proxy::ProxyConfig> proxy_override;
  /// DMA error injection rate (fallback experiments).
  double dma_failure_rate = 0.0;

  /// Distributed tracing: sample every Nth client op (0 = off) and, when
  /// `trace_out` is set, write the merged Chrome trace_event JSON for the
  /// run there. A `%k` in the path expands to label(), so multi-cell
  /// harnesses can emit one trace per cell.
  std::uint32_t trace_sample_every = 0;
  std::string trace_out;

  /// Short stable name for this configuration (distinct cells get distinct
  /// labels; the trace fields are not part of it).
  [[nodiscard]] std::string label() const;
};

/// Parse the shared tracing flags (`--trace-out <file>`,
/// `--trace-sample <n>`) out of a harness's argv into the spec. Passing
/// only --trace-out defaults the sampler to 1-in-64. Unknown arguments are
/// left for the harness to reject or ignore.
void apply_trace_flags(RunSpec& spec, int argc, char** argv);

/// Everything the paper's tables/figures need from one run.
struct RunResult {
  // Throughput / latency (Figs. 8, 10; Fig. 6).
  double iops = 0;
  double mbps = 0;
  double avg_lat_s = 0;
  double p50_lat_s = 0;
  double p99_lat_s = 0;

  // CPU (Figs. 5, 7): average cores busy over the measurement window.
  double host_cores = 0;   // per storage node (paper's single-core-normalized %)
  double dpu_cores = 0;

  // Per-class share of storage-node CPU (Fig. 5). Fractions of ceph total.
  double share_messenger = 0;
  double share_objectstore = 0;
  double share_osd = 0;
  double total_ceph_cores = 0;  // messenger+objectstore+osd+other, in cores

  // Context switches over the window (Table 2), storage nodes only.
  std::uint64_t ctx_messenger = 0;
  std::uint64_t ctx_objectstore = 0;
  double window_s = 0;

  // DoCeph proxy breakdown (Table 3 / Fig. 9), averaged per request.
  double bd_host_write_s = 0;
  double bd_dma_s = 0;
  double bd_dma_wait_s = 0;
  double bd_others_s = 0;
  double bd_total_s = 0;

  // OpTracker stage decomposition (Fig. 2 pipeline), averaged per OSD op
  // over the measured window. The clamped event chain makes the five stages
  // sum exactly to the OSD-side latency (recv -> reply_sent).
  double stage_msgr_s = 0;   // recv -> ms_dispatch queue
  double stage_queue_s = 0;  // op queue wait (tp_osd_tp dequeue)
  double stage_store_s = 0;  // ObjectStore prep + WAL commit
  double stage_repl_s = 0;   // waiting on replica acks
  double stage_reply_s = 0;  // commit/acks -> reply on the wire
  double stage_total_s = 0;  // recv -> reply_sent, per op

  std::uint64_t ops = 0;
  std::uint64_t failed_ops = 0;  ///< measured-window ops that returned an error
  std::uint64_t dma_fallback_events = 0;
  std::uint64_t rpc_fallback_bytes = 0;

  // Backpressure telemetry (0 under the paper profile): throttled bounces
  // by layer over the measured window.
  std::uint64_t osd_throttled = 0;
  std::uint64_t client_throttled = 0;
  std::uint64_t proxy_throttled = 0;

  // Simulator self-cost (sim::TimeKeeper::SelfStats): baton handoffs and
  // clock advances over the measured window, and the most sim threads
  // alive at once up to the window's end.
  std::uint64_t keeper_handoffs = 0;
  std::uint64_t keeper_advances = 0;
  int keeper_peak_threads = 0;

  friend bool operator==(const RunResult&, const RunResult&) = default;
};

/// Execute the spec on a fresh simulated cluster (warmup, then measure).
/// A cluster that fails to start yields an all-zero result (ops == 0).
RunResult run_experiment(const RunSpec& spec);

}  // namespace doceph::benchcore
