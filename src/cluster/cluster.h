#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "client/rados_client.h"
#include "cluster/profiles.h"
#include "mon/monitor.h"

namespace doceph::cluster {

/// Assembles the paper's testbed on the simulated fabric: a MON node, a
/// client node, and `storage_nodes` storage servers deployed in Baseline
/// mode (whole OSD on the host) or DoCeph mode (OSD + messenger on the DPU,
/// ProxyObjectStore over CommChannel/DMA, host running only BlueStore + the
/// backend service). Also the metrics tap for every figure in §5.
class Cluster {
 public:
  Cluster(sim::Env& env, ClusterConfig cfg);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Bring everything up (MON, stores, OSDs, pool). Call from a sim thread.
  Status start();
  void stop();

  /// The benchmark client (created during start()).
  [[nodiscard]] client::RadosClient& client() noexcept { return *client_; }
  [[nodiscard]] sim::CpuDomain& client_cpu() noexcept { return *client_cpu_; }

  [[nodiscard]] sim::Env& env() noexcept { return env_; }
  [[nodiscard]] const ClusterConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] mon::Monitor& monitor() noexcept { return *mon_; }

  [[nodiscard]] int num_nodes() const noexcept { return static_cast<int>(nodes_.size()); }
  [[nodiscard]] osd::OSD& osd(int i) { return *nodes_.at(static_cast<std::size_t>(i))->osd; }
  [[nodiscard]] bluestore::BlueStore& blue_store(int i) {
    return *nodes_.at(static_cast<std::size_t>(i))->store;
  }
  /// Null in baseline mode.
  [[nodiscard]] proxy::ProxyObjectStore* proxy_store(int i) {
    return nodes_.at(static_cast<std::size_t>(i))->pstore.get();
  }
  [[nodiscard]] dpu::DpuDevice* dpu(int i) {
    return nodes_.at(static_cast<std::size_t>(i))->dpu.get();
  }
  [[nodiscard]] sim::CpuDomain& host_cpu(int i) {
    return *nodes_.at(static_cast<std::size_t>(i))->host_cpu;
  }

  /// Wait (sim time) until every OSD reports recovery-clean.
  void wait_all_clean();

  /// Restart a (previously shut down or hard-killed) OSD on the same store
  /// and network identity — the "node comes back" half of a failure drill.
  /// If the node was hard-killed, the host store is remounted first
  /// (checkpoint locate + WAL replay) and, in doceph mode, the DPU-side
  /// proxy + host backend are re-created so the proxy re-attaches to the
  /// remounted store. Call from a sim thread.
  Status restart_osd(int i);

  /// Power-loss kill of one storage node, as the "osd.hard_crash" fault
  /// executes it: the host BlueStore crashes first (in-flight transactions
  /// and queued KV txns drop with errors, nothing is drained), then the OSD
  /// — and in doceph mode the proxy store and host backend — are torn down
  /// and discarded. restart_osd() brings the node back through a real
  /// remount. Call from a sim thread.
  Status hard_kill_osd(int i);

  /// Post-recovery consistency scrub: walk every PG's acting set and
  /// compare per-object digests (size + crc32c of the full content) across
  /// the replicas' host stores.
  struct ScrubReport {
    std::uint64_t objects = 0;    ///< distinct (pg, object) pairs compared
    std::uint64_t divergent = 0;  ///< objects whose replica digests disagree
    std::vector<std::string> errors;  ///< one line per divergence/read error
    [[nodiscard]] bool clean() const noexcept {
      return divergent == 0 && errors.empty();
    }
  };
  /// Call from a sim thread, after wait_all_clean(); nodes currently down
  /// are skipped (they have no authoritative data to compare).
  ScrubReport scrub_replicas();

  // ---- metrics --------------------------------------------------------------
  struct CpuSample {
    sim::Time at = 0;
    std::vector<std::uint64_t> host_busy;  // per storage node
    std::vector<std::uint64_t> dpu_busy;   // per storage node (doceph)
  };
  [[nodiscard]] CpuSample cpu_sample() const;

  /// Average host CPU over the window, in *cores* (the paper's
  /// "normalized to a single core" convention: 0.94 = 94%).
  [[nodiscard]] double host_cores_used(const CpuSample& a, const CpuSample& b) const;
  [[nodiscard]] double dpu_cores_used(const CpuSample& a, const CpuSample& b) const;

  // ---- observability --------------------------------------------------------
  /// Run one admin command against every daemon and aggregate the JSON
  /// replies into an object keyed by daemon name ("mon.0", "osd.N",
  /// "dpu.N", "client"). Daemons that don't register the command are
  /// omitted from the result. "perf dump" also carries the simulator's own
  /// counters under "keeper" (TimeKeeper::SelfStats since the universe
  /// started; never reset).
  [[nodiscard]] std::string admin_dump(const std::string& command);

  /// Chrome trace_event JSON covering every daemon in the universe (the
  /// whole cluster shares one Tracer, so client, msgr, DPU, host and
  /// BlueStore spans land in one timeline). Optionally filtered to domains
  /// containing `domain_filter` ("osd.0", "dma", ...).
  [[nodiscard]] std::string dump_traces(std::string_view domain_filter = {}) const;

  /// Zero every perf counter and histogram and drop tracked-op history
  /// across the cluster. Experiments call this between warmup and the
  /// measured window so dumps cover only measured traffic.
  void reset_observability();

 private:
  /// Concurrency contract: the Cluster itself holds no mutex. start()/stop()/
  /// restart_osd()/hard_kill_osd() and the chaos monitor are the only writers
  /// of Node lifecycle state, and the chaos monitor executes restarts/kills
  /// itself (a daemon cannot die from its own tick thread); callers running
  /// drills alongside an armed chaos monitor must target disjoint nodes.
  /// chaos_stop_ is the one cross-thread flag and is atomic.
  struct Node {
    std::unique_ptr<sim::CpuDomain> host_cpu;
    net::NetNode* host_net = nullptr;              // baseline: the public NIC
    std::unique_ptr<dpu::DpuDevice> dpu;           // doceph only
    std::shared_ptr<bluestore::DeviceBacking> backing;
    std::unique_ptr<bluestore::BlueStore> store;   // always on the host
    std::unique_ptr<proxy::HostBackendService> backend;  // doceph only
    std::unique_ptr<proxy::ProxyObjectStore> pstore;     // doceph only
    std::unique_ptr<osd::OSD> osd;
    bool osd_down = false;        // taken down by the chaos monitor
    bool restart_pending = false; // "osd.restart" fired; retried until it works
  };

  /// Body of the chaos monitor thread: polls "osd.crash" / "osd.hard_crash"
  /// / "osd.restart" fault points at cfg_.chaos_poll cadence and executes
  /// the fires (a daemon cannot kill itself from its own tick thread). A
  /// node is marked up again only after a restart actually succeeds; failed
  /// restarts (e.g. a replay hitting an armed bdev fault) are retried every
  /// poll.
  void chaos_loop();

  sim::Env& env_;
  ClusterConfig cfg_;
  net::Fabric fabric_;
  net::NetNode* mon_net_ = nullptr;
  net::NetNode* client_net_ = nullptr;
  std::unique_ptr<sim::CpuDomain> mon_cpu_;
  std::unique_ptr<sim::CpuDomain> client_cpu_;
  std::unique_ptr<mon::Monitor> mon_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::unique_ptr<client::RadosClient> client_;
  std::atomic<bool> chaos_stop_{false};
  std::optional<sim::Thread> chaos_;
  bool started_ = false;
};

}  // namespace doceph::cluster
