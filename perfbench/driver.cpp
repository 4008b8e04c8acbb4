// Closed-loop driver of the DoCeph benchmark; perfbench/run.py builds it and
// runs it once per repetition. One invocation runs one repetition of one
// workload:
//
//   doceph_perfbench --workload NAME --seed N --window-ms MS [--scrub 0|1]
//                    [--trace-every N --trace-out FILE]
//
// It builds a fresh simulated cluster (paper testbed: 2 storage nodes,
// 2 replicas, 100 GbE, pg_num 32; batching and backpressure on, one shard),
// preloads the working set, warms up untimed for 300 simulated ms, then
// measures one window of MS simulated milliseconds with 16 closed-loop
// clients. After the window it checks outputs: sampled objects stat at the
// written size and, with --scrub 1, Cluster::scrub_replicas() finds no
// divergence (doceph_rw_16k also checks every read, warm-up included,
// against the bytes its client last wrote). With
// --trace-every N it samples 1 in N window ops through the distributed
// tracer and writes Cluster::dump_traces() to FILE.
//
// The driver only gathers raw facts through public APIs (perf counters,
// proxy breakdown, DMA engine and comch counters, CPU domains, sim stats,
// getrusage and /proc/self/status) and prints them as one JSON object on
// stdout; run.py derives, checks and reports the metrics.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/json.h"

namespace {

using namespace doceph;

constexpr int kClients = 16;  // rados bench -t 16 (paper §5.1)
constexpr std::uint32_t kPgNum = 32;
/// Untimed simulated warm-up between preload and the measured window.
constexpr sim::Duration kWarmup = 300'000'000;  // 300 ms
/// Objects sampled per client for the post-window stat check.
constexpr int kStatSamplesPerClient = 2;

struct Workload {
  const char* name;
  cluster::DeployMode mode;
  std::uint64_t object_size;
  /// 0: every write goes to a fresh object; >0: each client overwrites its
  /// own set of this many preloaded objects.
  int objects_per_client;
  double read_share;  ///< share of ops that are reads of the client's objects
  bool retain_data;   ///< keep payload bytes so reads can be verified
};

constexpr Workload kWorkloads[] = {
    {"doceph_write_1m", cluster::DeployMode::doceph, 1 << 20, 0, 0.0, false},
    {"doceph_write_16k", cluster::DeployMode::doceph, 16 << 10, 32, 0.0, false},
    {"doceph_rw_16k", cluster::DeployMode::doceph, 16 << 10, 32, 0.7, true},
    {"baseline_write_16k", cluster::DeployMode::baseline, 16 << 10, 32, 0.0, false},
};

/// Deterministic payload bytes for (seed, client, object, version).
BufferList pattern(std::uint64_t seed, int client, std::uint64_t object,
                   std::uint64_t version, std::uint64_t size) {
  Slice s = Slice::allocate(size);
  std::uint64_t x = sim::Rng::derive_seed(
      sim::Rng::derive_seed(seed, static_cast<std::uint64_t>(client)),
      object << 32 | version);
  char* p = s.mutable_data();
  for (std::uint64_t off = 0; off < size; off += 8) {
    x = sim::Rng::derive_seed(x, off);
    std::memcpy(p + off, &x, std::min<std::uint64_t>(8, size - off));
  }
  BufferList bl;
  bl.append(std::move(s));
  return bl;
}

/// getrusage(RUSAGE_SELF) snapshot: process CPU and OS context switches.
struct Rusage {
  double cpu_s = 0;
  long nvcsw = 0;
  long nivcsw = 0;
};
Rusage rusage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return {secs(ru.ru_utime) + secs(ru.ru_stime), ru.ru_nvcsw, ru.ru_nivcsw};
}

/// One `Key:   <n> ...` field of /proc/self/status (Threads, VmHWM in kB).
long proc_status(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t klen = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, klen, key) == 0 && line.size() > klen && line[klen] == ':')
      return std::strtol(line.c_str() + klen + 1, nullptr, 10);
  }
  return -1;
}

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Per-client closed-loop state; it persists across phases so fresh object
/// names never repeat and the read check knows each object's last write.
struct ClientState {
  sim::Rng rng{0};
  std::uint64_t fresh_seq = 0;
  std::vector<std::uint64_t> version;  ///< last acknowledged write per object
  std::vector<bool> uncertain;         ///< a write to it failed: skip checks
  std::vector<std::string> written;    ///< names written in the window
  BufferList payload;                  ///< shared payload (write-only loads)

  // Per-phase results.
  std::vector<std::uint64_t> write_lat;
  std::vector<std::uint64_t> read_lat;
  std::uint64_t failed = 0;
  std::uint64_t bad_reads = 0;
};

std::string object_name(int client, std::uint64_t object) {
  return "c" + std::to_string(client) + "_o" + std::to_string(object);
}

/// Raw counters summed over the storage nodes (and the client) at one
/// instant. Taken only at quiescent phase boundaries, when no client op is
/// in flight.
struct Counters {
  std::map<std::string, double> counts;  ///< cumulative: window = end - start
  std::map<std::string, double> levels;  ///< gauges: window = value at the end
};

/// Counters are cumulative or were zeroed by reset_observability(); levels
/// are high-water gauges (reset there too) and the KV map size.
Counters sample_counters(cluster::Cluster& cl) {
  Counters c;
  const auto count = [&](const std::string& k, double x) { c.counts[k] += x; };
  const auto level_max = [&](const std::string& k, double x) {
    c.levels[k] = std::max(c.levels[k], x);
  };
  const auto& stats = cl.env().stats();
  const auto storage = [&](sim::ThreadClass cls, bool ctx) {
    const auto sum = [&](const char* group) {
      return ctx ? stats.class_ctx_switches(cls, group) : stats.class_cpu_ns(cls, group);
    };
    return static_cast<double>(sum("host-") + sum("dpu-"));
  };
  count("msgr.cpu_ns", storage(sim::ThreadClass::messenger, false));
  count("msgr.ctx", storage(sim::ThreadClass::messenger, true));
  count("osd.cpu_ns", storage(sim::ThreadClass::osd, false));
  count("bluestore.cpu_ns", storage(sim::ThreadClass::objectstore, false));
  count("bluestore.ctx", storage(sim::ThreadClass::objectstore, true));

  const auto cpu = cl.cpu_sample();
  for (int i = 0; i < cl.num_nodes(); ++i) {
    count("host_cpu_ns", static_cast<double>(cpu.host_busy[static_cast<std::size_t>(i)]));
    count("dpu_cpu_ns", static_cast<double>(cpu.dpu_busy[static_cast<std::size_t>(i)]));
  }

  const auto& client = cl.client().perf_counters();
  count("client.retries", static_cast<double>(client->get(client::l_client_op_retry)));
  count("client.throttled",
        static_cast<double>(client->get(client::l_client_op_throttled)));
  count("client.timeouts", static_cast<double>(client->get(client::l_client_op_timeout)));

  for (int i = 0; i < cl.num_nodes(); ++i) {
    auto& osd = cl.osd(i);
    const auto& oc = osd.perf_counters();
    const auto lat = oc->hist(osd::l_osd_op_lat);
    count("osd.ops", static_cast<double>(lat.count));
    count("osd.op_ns", static_cast<double>(lat.sum));
    count("osd.msgr_ns", static_cast<double>(oc->hist(osd::l_osd_op_msgr_lat).sum));
    count("osd.queue_ns", static_cast<double>(oc->hist(osd::l_osd_op_queue_lat).sum));
    count("osd.store_ns", static_cast<double>(oc->hist(osd::l_osd_op_store_lat).sum));
    count("osd.repl_ns", static_cast<double>(oc->hist(osd::l_osd_op_repl_lat).sum));
    count("osd.reply_ns", static_cast<double>(oc->hist(osd::l_osd_op_reply_lat).sum));
    count("osd.throttled", static_cast<double>(oc->get(osd::l_osd_op_throttled)));
    level_max("osd.queue_depth_hw",
              static_cast<double>(oc->get(osd::l_osd_queue_depth_hw)));

    if (const auto mc = osd.perf_collection().get("msgr")) {
      count("msgr.msgs", static_cast<double>(mc->get(msgr::l_msgr_msg_send) +
                                             mc->get(msgr::l_msgr_msg_recv)));
      count("msgr.bytes", static_cast<double>(mc->get(msgr::l_msgr_bytes_send) +
                                              mc->get(msgr::l_msgr_bytes_recv)));
      count("msgr.cork_flush_size",
            static_cast<double>(mc->get(msgr::l_msgr_cork_flush_size)));
      count("msgr.cork_flush_timeout",
            static_cast<double>(mc->get(msgr::l_msgr_cork_flush_timeout)));
    }

    if (const auto bc = cl.blue_store(i).perf_counters()) {
      const auto commit = bc->hist(bluestore::l_bstore_commit_lat);
      count("bluestore.commits", static_cast<double>(commit.count));
      count("bluestore.commit_ns", static_cast<double>(commit.sum));
      count("bluestore.txns", static_cast<double>(bc->get(bluestore::l_bstore_txns)));
      c.levels["bluestore.kv_bytes"] +=
          static_cast<double>(bc->get(bluestore::l_bstore_kv_bytes));
    }

    if (auto* p = cl.proxy_store(i)) {
      const auto bd = p->breakdown();
      count("proxy.writes", static_cast<double>(bd.count));
      count("proxy.total_ns", static_cast<double>(bd.total_ns));
      count("proxy.dma_ns", static_cast<double>(bd.dma_ns));
      count("proxy.dma_wait_ns", static_cast<double>(bd.dma_wait_ns));
      count("proxy.host_write_ns", static_cast<double>(bd.host_write_ns));
      count("proxy.slot_wait_ns", static_cast<double>(p->slots().total_wait_ns()));
      const auto& pc = p->perf_counters();
      const auto fill = pc->hist(proxy::l_dpu_batch_fill);
      count("proxy.batch_fill_count", static_cast<double>(fill.count));
      count("proxy.batch_fill_sum", static_cast<double>(fill.sum));
      count("proxy.batch_flushes",
            static_cast<double>(pc->get(proxy::l_dpu_batch_flushes)));
      count("proxy.throttled", static_cast<double>(pc->get(proxy::l_dpu_throttle_queue) +
                                                   pc->get(proxy::l_dpu_throttle_slot)));
      count("proxy.rpc_timeouts", static_cast<double>(pc->get(proxy::l_dpu_rpc_timeout)));
      level_max("proxy.worker_queue_hw",
            static_cast<double>(pc->get(proxy::l_dpu_worker_queue_depth_hw)));
      count("proxy.rpc_frames", static_cast<double>(p->rpc().frames_sent()));
      count("proxy.rpc_flushes", static_cast<double>(p->rpc().batch_flushes()));
      count("proxy.rpc_bytes", static_cast<double>(p->rpc().bytes_sent()));
    }

    if (auto* d = cl.dpu(i)) {
      auto& dma = d->dma();
      count("doca.dma_jobs", static_cast<double>(dma.jobs_completed()));
      count("doca.dma_passes", static_cast<double>(dma.sg_passes()));
      count("doca.dma_bytes", static_cast<double>(dma.bytes_moved()));
      count("doca.dma_failed", static_cast<double>(dma.jobs_failed()));
      count("doca.comch_msgs",
            static_cast<double>(d->dpu_comch()->sent() + d->host_comch()->sent()));
    }
  }
  return c;
}

struct RepResult {
  double setup_wall_s = 0;
  double window_sim_s = 0;
  double window_wall_s = 0;
  Rusage ru0, ru1;
  Counters c0, c1;
  long os_threads_peak = 0;
  int keeper_threads_peak = 0;
  std::vector<std::uint64_t> write_lat, read_lat;
  std::uint64_t failed = 0;
  std::uint64_t bad_reads = 0;
  std::uint64_t checks = 0;
  std::uint64_t checks_failed = 0;
  std::uint64_t scrub_objects = 0;
  std::vector<std::string> errors;
  std::uint64_t trace_dropped = 0;
  bool started = false;
};

class Runner {
 public:
  Runner(const Workload& w, std::uint64_t seed) : w_(w), seed_(seed) {}

  /// One repetition. `scrub` adds the replica scrub to the output checks;
  /// `trace_every` > 0 samples 1 in that many window ops through the tracer
  /// and writes the dump to `trace_out`.
  RepResult run(sim::Duration window, bool scrub, std::uint64_t trace_every,
                const std::string& trace_out) {
    RepResult r;
    const double t0 = wall_now();
    sim::Env env(sim::TimeKeeper::Mode::virtual_time, seed_);
    // Span rings are sized when their domain first records; the traced
    // window must not overwrite any of its spans.
    if (trace_every > 0) env.tracer().set_ring_capacity(1 << 14);
    auto cfg = cluster::ClusterConfig::paper_testbed(
        w_.mode, cluster::NetworkKind::gbe_100, w_.retain_data);
    cfg.pg_num = kPgNum;
    // perf_smoke's small-write lap: every batching knob on, the standard
    // backpressure envelope, one op/KV shard.
    cfg.msgr.cork.enabled = true;
    cfg.proxy.rpc_batch.enabled = true;
    cfg.proxy.dma_batch.enabled = true;
    cfg.backend.rpc_batch.enabled = true;
    cfg.osd_template.max_queue_depth = 256;
    cfg.osd_template.max_conn_inflight = 128;
    cfg.osd_template.throttle_retry_delay = 2'000'000;  // 2 ms
    cfg.osd_template.nearfull_ratio = 0.85;
    cfg.proxy.max_worker_queue = 512;
    cfg.proxy.slot_acquire_timeout = 5'000'000'000;  // 5 s
    cfg.client.flow_control = true;
    cluster::Cluster cl(env, cfg);

    std::vector<ClientState> clients(kClients);
    for (int c = 0; c < kClients; ++c) {
      auto& cs = clients[static_cast<std::size_t>(c)];
      cs.rng = env.make_rng(0x70657266ull + static_cast<std::uint64_t>(c));
      cs.version.assign(static_cast<std::size_t>(w_.objects_per_client), 0);
      cs.uncertain.assign(static_cast<std::size_t>(w_.objects_per_client), false);
      if (w_.read_share == 0) cs.payload = pattern(seed_, c, 0, 0, w_.object_size);
    }

    env.run_on_sim_thread([&] {
      const Status st = cl.start();
      if (!st.ok()) {
        r.errors.push_back("cluster start: " + st.to_string());
        return;
      }
      r.started = true;
      auto io = cl.client().io_ctx(cfg.pool_id);

      // Preload: each client writes every object it owns once, so reads
      // never miss and every later write is an overwrite.
      if (w_.objects_per_client > 0) run_phase(cl, io, clients, -1, "preload");
      run_phase(cl, io, clients, env.now() + kWarmup, "warm");
      RepResult warm;
      sum_reset(clients, warm);
      if (warm.failed > 0 || warm.bad_reads > 0)
        r.errors.push_back(std::to_string(warm.failed) + " ops failed and " +
                           std::to_string(warm.bad_reads) +
                           " reads returned wrong bytes in preload/warm-up");

      cl.reset_observability();
      for (int i = 0; i < cl.num_nodes(); ++i)
        if (auto* p = cl.proxy_store(i)) p->reset_breakdown();
      if (trace_every > 0)
        env.tracer().set_sample_every(static_cast<std::uint32_t>(trace_every));
      r.setup_wall_s = wall_now() - t0;

      // ---- measured window ----------------------------------------------
      r.c0 = sample_counters(cl);
      r.ru0 = rusage_now();
      const double w0 = wall_now();
      const sim::Time s0 = env.now();
      const sim::Time end = s0 + window;
      // Probe thread: samples OS and keeper thread counts across the window
      // (it is itself one registered thread, excluded from the count).
      sim::Thread probe = env.spawn("bench-probe", nullptr, [&] {
        for (int k = 1; k <= 8; ++k) {
          env.keeper().sleep_until(s0 + window * k / 9);
          r.os_threads_peak = std::max(r.os_threads_peak, proc_status("Threads"));
          r.keeper_threads_peak =
              std::max(r.keeper_threads_peak, env.keeper().registered_threads() - 1);
        }
      });
      run_phase(cl, io, clients, end, "win");
      probe.join();
      r.window_sim_s = sim::to_seconds(env.now() - s0);
      r.window_wall_s = wall_now() - w0;
      r.ru1 = rusage_now();
      r.c1 = sample_counters(cl);
      env.tracer().set_sample_every(0);
      r.trace_dropped = env.tracer().dropped();
      sum_reset(clients, r);

      // ---- output checks (outside the window) ------------------------------
      for (int c = 0; c < kClients; ++c) {
        const auto& cs = clients[static_cast<std::size_t>(c)];
        for (int k = 0; k < kStatSamplesPerClient; ++k) {
          std::string name;
          if (w_.objects_per_client == 0) {
            if (cs.written.empty()) break;
            name = cs.written[cs.written.size() - 1 -
                              static_cast<std::size_t>(k) % cs.written.size()];
          } else {
            name = object_name(
                c, static_cast<std::uint64_t>(k * 7 % w_.objects_per_client));
          }
          ++r.checks;
          const auto info = io.stat(name);
          if (!info.ok() || info->size != w_.object_size) {
            ++r.checks_failed;
            r.errors.push_back("stat " + name + ": " +
                               (info.ok() ? "size " + std::to_string(info->size)
                                          : info.status().to_string()));
          }
        }
      }
      if (scrub) {
        cl.wait_all_clean();
        const auto rep = cl.scrub_replicas();
        ++r.checks;
        r.scrub_objects = rep.objects;
        if (!rep.clean() || rep.objects == 0) {
          ++r.checks_failed;
          r.errors.push_back("scrub: " + std::to_string(rep.divergent) +
                             " divergent of " + std::to_string(rep.objects));
          for (std::size_t e = 0; e < std::min<std::size_t>(4, rep.errors.size()); ++e)
            r.errors.push_back("scrub: " + rep.errors[e]);
        }
      }
      cl.stop();
    });

    if (r.started && !trace_out.empty()) {
      std::ofstream out(trace_out);
      out << cl.dump_traces() << "\n";
      if (!out) r.errors.push_back("cannot write " + trace_out);
    }
    return r;
  }

 private:
  /// Run the closed loop on every client until simulated time `end`
  /// (end < 0: write each owned object once), then wait for all clients.
  void run_phase(cluster::Cluster& cl, client::IoCtx& io,
                 std::vector<ClientState>& clients, sim::Time end, const char* phase) {
    sim::Env& env = cl.env();
    const bool windowed = std::strcmp(phase, "win") == 0;
    std::vector<sim::Thread> threads;
    threads.reserve(clients.size());
    for (int c = 0; c < kClients; ++c) {
      threads.push_back(env.spawn(
          "bench-client-" + std::to_string(c), &cl.client_cpu(),
          [&, c] { client_loop(env, io, clients[static_cast<std::size_t>(c)], c, end,
                               phase, windowed); }));
    }
    for (auto& t : threads) t.join();
  }

  void client_loop(sim::Env& env, client::IoCtx& io, ClientState& cs, int c,
                   sim::Time end, const char* phase, bool windowed) {
    const auto nobj = static_cast<std::uint64_t>(w_.objects_per_client);
    for (std::uint64_t preload = 0;; ++preload) {
      std::uint64_t obj = 0;
      bool is_read = false;
      if (end < 0) {
        if (preload >= nobj) return;
        obj = preload;
      } else {
        if (env.now() >= end) return;
        if (nobj > 0) obj = cs.rng.uniform(0, nobj - 1);
        is_read = w_.read_share > 0 && cs.rng.chance(w_.read_share);
      }
      const sim::Time t0 = env.now();
      if (is_read) {
        auto got = io.read(object_name(c, obj), 0, 0);
        if (!got.ok()) {
          ++cs.failed;
          continue;
        }
        cs.read_lat.push_back(static_cast<std::uint64_t>(env.now() - t0));
        if (!cs.uncertain[obj] &&
            !(*got == pattern(seed_, c, obj, cs.version[obj], w_.object_size)))
          ++cs.bad_reads;
        continue;
      }
      std::string name;
      BufferList data;
      std::uint64_t version = 0;
      if (nobj == 0) {
        name = std::string(phase) + "_c" + std::to_string(c) + "_" +
               std::to_string(cs.fresh_seq++);
      } else {
        name = object_name(c, obj);
        version = cs.version[obj] + 1;
      }
      data = w_.read_share > 0 ? pattern(seed_, c, obj, version, w_.object_size)
                               : cs.payload;
      const Status st = io.write_full(name, std::move(data));
      if (!st.ok()) {
        ++cs.failed;
        if (nobj > 0) cs.uncertain[obj] = true;
        continue;
      }
      cs.write_lat.push_back(static_cast<std::uint64_t>(env.now() - t0));
      if (nobj > 0) {
        cs.version[obj] = version;
        cs.uncertain[obj] = false;
      } else if (windowed) {
        cs.written.push_back(std::move(name));
      }
    }
  }

  /// Collect into `r` and clear the clients' per-phase results.
  static void sum_reset(std::vector<ClientState>& clients, RepResult& r) {
    for (auto& cs : clients) {
      r.failed += cs.failed;
      r.bad_reads += cs.bad_reads;
      r.write_lat.insert(r.write_lat.end(), cs.write_lat.begin(), cs.write_lat.end());
      r.read_lat.insert(r.read_lat.end(), cs.read_lat.begin(), cs.read_lat.end());
      cs.failed = 0;
      cs.bad_reads = 0;
      cs.write_lat.clear();
      cs.read_lat.clear();
    }
  }

  const Workload& w_;
  std::uint64_t seed_;
};

void emit_rep(JsonWriter& w, const RepResult& r, long vm_hwm_kb) {
  w.begin_object();
  w.kv("vm_hwm_kb", static_cast<std::int64_t>(vm_hwm_kb));
  w.kv("started", r.started);
  w.kv("setup_wall_s", r.setup_wall_s);
  w.kv("window_sim_s", r.window_sim_s);
  w.kv("window_wall_s", r.window_wall_s);
  w.kv("cpu_s", r.ru1.cpu_s - r.ru0.cpu_s);
  w.kv("os_vol_ctx", static_cast<std::int64_t>(r.ru1.nvcsw - r.ru0.nvcsw));
  w.kv("os_invol_ctx", static_cast<std::int64_t>(r.ru1.nivcsw - r.ru0.nivcsw));
  w.kv("os_threads_peak", static_cast<std::int64_t>(r.os_threads_peak));
  w.kv("keeper_threads_peak", static_cast<std::int64_t>(r.keeper_threads_peak));
  w.kv("failed", static_cast<std::int64_t>(r.failed));
  w.kv("bad_reads", static_cast<std::int64_t>(r.bad_reads));
  w.kv("checks", static_cast<std::int64_t>(r.checks));
  w.kv("checks_failed", static_cast<std::int64_t>(r.checks_failed));
  w.kv("scrub_objects", static_cast<std::int64_t>(r.scrub_objects));
  w.kv("trace_dropped", static_cast<std::int64_t>(r.trace_dropped));
  w.key("counters");
  w.begin_object();
  for (const auto& [name, end] : r.c1.counts) w.kv(name, end - r.c0.counts.at(name));
  w.end_object();
  w.key("levels");
  w.begin_object();
  for (const auto& [name, end] : r.c1.levels) w.kv(name, end);
  w.end_object();
  for (const auto& [key, lat] : {std::pair{"write_lat_ns", &r.write_lat},
                                 std::pair{"read_lat_ns", &r.read_lat}}) {
    w.key(key);
    w.begin_array();
    for (const auto v : *lat) w.value(static_cast<std::int64_t>(v));
    w.end_array();
  }
  w.key("errors");
  w.begin_array();
  for (const auto& e : r.errors) w.value(e);
  w.end_array();
  w.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  long window_ms = 0;
  bool scrub = false;
  std::uint64_t trace_every = 0;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* val = i + 1 < argc ? argv[i + 1] : nullptr;
    if (val == nullptr) {
      std::fprintf(stderr, "missing value for %s\n", arg.c_str());
      return 2;
    }
    ++i;
    if (arg == "--workload") workload = val;
    else if (arg == "--seed") seed = std::strtoull(val, nullptr, 10);
    else if (arg == "--window-ms") window_ms = std::strtol(val, nullptr, 10);
    else if (arg == "--scrub") scrub = std::strcmp(val, "1") == 0;
    else if (arg == "--trace-every") trace_every = std::strtoull(val, nullptr, 10);
    else if (arg == "--trace-out") trace_out = val;
    else {
      std::fprintf(stderr, "unknown argument %s\n", arg.c_str());
      return 2;
    }
  }
  const Workload* wl = nullptr;
  for (const auto& w : kWorkloads)
    if (workload == w.name) wl = &w;
  if (wl == nullptr || window_ms <= 0 ||
      (trace_every > 0) != !trace_out.empty()) {
    std::fprintf(stderr,
                 "usage: doceph_perfbench --workload NAME --seed N --window-ms MS "
                 "[--scrub 0|1] [--trace-every N --trace-out FILE]\n");
    return 2;
  }

  Runner runner(*wl, seed);
  const RepResult r = runner.run(window_ms * 1'000'000, scrub, trace_every, trace_out);
  JsonWriter w;
  emit_rep(w, r, proc_status("VmHWM"));
  std::printf("%s\n", w.str().c_str());
  return 0;
}
