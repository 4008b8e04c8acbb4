// CI perf smoke: one short rados-bench lap per deploy mode, emitted as
// JSON (ops/s, p50/p99, per-stage latencies) and optionally compared
// against a committed baseline. Exits non-zero when DoCeph throughput
// regresses, p99 latency inflates, or host-CPU cores climb past their
// thresholds, so the perf-smoke CI job fails the PR.
//
// The sim is deterministic: the TimeKeeper runs one sim thread at a time in
// a fixed order, so a rerun of the same binary reproduces the JSON byte for
// byte, and a gate trip is a change in the code, not drift. With
// --repeats N > 1 the DoCeph lap is re-run N-1 more times under the same
// seed, and the binary exits non-zero unless every repeat's result equals
// the first lap's in every field: a full-lap determinism check, recorded
// in the "doceph_variance" block. (The 1 MB lap draws no seeded
// randomness, so repeats under other seeds would only measure 0.)
//
// The "keeper" block records, per lap, the simulator's own work
// (sim::TimeKeeper::SelfStats): baton handoffs and clock advances over the
// measured window and the peak number of sim threads. It is not gated.
//
//   perf_smoke --out BENCH_pr.json [--baseline BENCH_baseline.json]
//              [--repeats N] [--trace-out TRACE.json] [--trace-sample N]
//
// Two laps per deploy mode: the 1 MB DMA-path lap ("baseline"/"doceph")
// and a 16 KB qd64 fresh-object small-write lap ("baseline_smallwrite"/
// "doceph_smallwrite") that exercises the batched offload hot path (comch
// doorbell coalescing + scatter-gather DMA + write corking) plus the
// chained-KV-checkpoint + backpressure degradation path (every write is a
// new object; the map snapshot outgrows one WAL segment mid-run).
// kMeasureMs sizes only the 1 MB laps; the small lap has dedicated
// durations sized against the store's nearfull ratio. The small-write lap
// is then re-run with op_shards = kv_shards = 4 ("*_smallwrite_sharded")
// and gated intra-run: DoCeph sharded ops/s must be >= kShardGate times
// the unsharded lap, with zero failed ops.
// Every lap runs the production cluster profile (every coalescing layer
// plus the backpressure envelope). The committed BENCH_baseline.json comes
// from the CI invocation minus --baseline, so the gate compares like with
// like; ablation_batching keeps the paper profile's unbatched row.
//
// --trace-out makes the DoCeph lap sample 1-in-N client ops (default 64)
// through the distributed tracer and writes the merged Chrome trace_event
// JSON there (open with chrome://tracing or Perfetto).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "benchcore/experiment.h"
#include "common/json.h"

namespace {

using doceph::benchcore::RunResult;
using doceph::benchcore::RunSpec;

// Gates against the committed baseline, as fractions of its value: DoCeph
// ops/s may drop by kIopsDropGate, p99 and host cores grow by the others.
constexpr double kIopsDropGate = 0.20;
constexpr double kP99GrowthGate = 0.30;
constexpr double kCoresGrowthGate = 0.25;
// Intra-run gate: sharded / unsharded DoCeph small-write ops/s.
constexpr double kShardGate = 1.8;
// Measured window of the 1 MB laps.
constexpr long kMeasureMs = 1500;

void emit_result(doceph::JsonWriter& w, const char* name, const RunResult& r) {
  w.key(name);
  w.begin_object();
  w.kv("ops_per_sec", r.iops);
  w.kv("mbps", r.mbps);
  w.kv("avg_lat_s", r.avg_lat_s);
  w.kv("p50_lat_s", r.p50_lat_s);
  w.kv("p99_lat_s", r.p99_lat_s);
  w.kv("host_cores", r.host_cores);
  w.kv("dpu_cores", r.dpu_cores);
  w.kv("failed_ops", static_cast<std::int64_t>(r.failed_ops));
  w.kv("osd_throttled", static_cast<std::int64_t>(r.osd_throttled));
  w.kv("client_throttled", static_cast<std::int64_t>(r.client_throttled));
  w.kv("proxy_throttled", static_cast<std::int64_t>(r.proxy_throttled));
  w.key("stages_s");
  w.begin_object();
  w.kv("messenger", r.stage_msgr_s);
  w.kv("queue", r.stage_queue_s);
  w.kv("store", r.stage_store_s);
  w.kv("replication", r.stage_repl_s);
  w.kv("reply", r.stage_reply_s);
  w.kv("total", r.stage_total_s);
  w.end_object();
  w.end_object();
}

void emit_keeper(doceph::JsonWriter& w, const char* name, const RunResult& r) {
  w.key(name);
  w.begin_object();
  w.kv("handoffs", r.keeper_handoffs);
  w.kv("advances", r.keeper_advances);
  w.kv("peak_threads", r.keeper_peak_threads);
  w.end_object();
}

/// Pull `"key": <number>` out of a flat JSON dump. Good enough for the
/// files this tool writes itself; no general JSON parser needed.
bool extract_number(const std::string& json, const std::string& object,
                    const std::string& key, double& out) {
  const auto obj_pos = json.find("\"" + object + "\"");
  if (obj_pos == std::string::npos) return false;
  const auto key_pos = json.find("\"" + key + "\"", obj_pos);
  if (key_pos == std::string::npos) return false;
  const auto colon = json.find(':', key_pos);
  if (colon == std::string::npos) return false;
  out = std::strtod(json.c_str() + colon + 1, nullptr);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_pr.json";
  std::string baseline_path;
  long repeats = 1;
  std::string trace_out;
  long trace_sample = 64;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : ""; };
    if (arg == "--out") out_path = next();
    else if (arg == "--baseline") baseline_path = next();
    else if (arg == "--repeats") repeats = std::max(1l, std::strtol(next(), nullptr, 10));
    else if (arg == "--trace-out") trace_out = next();
    else if (arg == "--trace-sample")
      trace_sample = std::max(1l, std::strtol(next(), nullptr, 10));
    else {
      std::fprintf(stderr, "unknown arg: %s\n", arg.c_str());
      return 2;
    }
  }

  RunSpec spec;
  spec.object_size = 1 << 20;  // 1 MB: exercises the DMA path, stays quick
  spec.concurrency = 8;
  spec.warmup = 500'000'000;
  spec.measure = kMeasureMs * 1'000'000;
  spec.pg_num = 32;
  spec.profile = doceph::cluster::Profile::production;

  doceph::JsonWriter w;
  w.begin_object();
  std::vector<std::pair<std::string, RunResult>> laps;  // for the keeper block
  // Runs `s` in both deploy modes (baseline first), emits each lap as
  // "<mode><suffix>" and returns the DoCeph lap. `traced` samples the
  // DoCeph lap only: that is the path (client -> msgr -> DPU comch/DMA ->
  // host BlueStore) the artifact is meant to show.
  const auto run_laps = [&](RunSpec s, const std::string& suffix, bool traced) {
    RunResult doceph_lap;
    for (const auto mode :
         {doceph::cluster::DeployMode::baseline, doceph::cluster::DeployMode::doceph}) {
      s.mode = mode;
      const bool is_doceph = mode == doceph::cluster::DeployMode::doceph;
      const bool trace = traced && is_doceph && !trace_out.empty();
      s.trace_out = trace ? trace_out : "";
      s.trace_sample_every = trace ? static_cast<std::uint32_t>(trace_sample) : 0;
      const RunResult r = doceph::benchcore::run_experiment(s);
      if (is_doceph) doceph_lap = r;
      const std::string name = (is_doceph ? "doceph" : "baseline") + suffix;
      emit_result(w, name.c_str(), r);
      laps.emplace_back(name, r);
      std::fprintf(stderr, "[perf-smoke] %s: %.0f ops/s, p50 %.2f ms, p99 %.2f ms\n",
                   name.c_str(), r.iops, r.p50_lat_s * 1e3, r.p99_lat_s * 1e3);
    }
    return doceph_lap;
  };
  const RunResult doceph_result = run_laps(spec, "", /*traced=*/true);

  // Small-write lap (16 KB, qd64, fresh object names): many sub-slot
  // segments per interval — the workload the batched offload hot path is
  // built for. Every write creates a new object, so the 16 KB inline
  // payloads accumulate in the KV map: the baseline lap's snapshot grows
  // past one 32 MiB WAL segment mid-run, exercising the chained
  // checkpoint path (pre-chaining this lap died with no_space).
  // The production profile's backpressure lets the run degrade gracefully
  // instead of collapsing if a queue or the store ever saturates; durations
  // are sized to stay under the 0.85 nearfull ratio (~3300 objects), above
  // which writes shed permanently.
  RunSpec small = spec;
  small.object_size = 16 << 10;
  small.concurrency = 64;
  small.reuse_objects = 0;
  small.warmup = 200'000'000;    // 200 ms
  small.measure = 400'000'000;   // 400 ms: ~2700 fresh objects ≈ 43 MiB of
                                 // inline payloads — past one segment,
                                 // safely under 0.85 * 64 MiB nearfull
  const RunResult doceph_small = run_laps(small, "_smallwrite", /*traced=*/false);

  // Sharded re-run of the same lap (op_shards = kv_shards = 4, DESIGN.md
  // §15): four OSD op lanes, one proxy staging slot per lane, and four
  // independent KV group-commit streams (each with its own full-size WAL
  // ring). Gated intra-run against the unsharded lap below, so a change
  // that quietly re-serializes the write path fails this binary even with
  // no committed baseline on hand. The measure window shrinks so the
  // baseline lap's ~4x higher op rate (~125 MiB of fresh inline payloads
  // over the run) still averages well under each shard's 0.85 * 64 MiB
  // nearfull ceiling with margin for hash imbalance.
  small.op_shards = 4;
  small.kv_shards = 4;
  small.measure = 250'000'000;  // 250 ms
  const RunResult doceph_small_sharded =
      run_laps(small, "_smallwrite_sharded", /*traced=*/false);

  w.key("keeper");
  w.begin_object();
  for (const auto& [name, r] : laps) emit_keeper(w, name.c_str(), r);
  w.end_object();

  bool failed = false;

  if (repeats > 1) {
    // Re-run the DoCeph lap under the same seed, untraced: every field must
    // repeat.
    spec.mode = doceph::cluster::DeployMode::doceph;
    bool identical = true;
    for (long rep = 1; rep < repeats; ++rep) {
      const RunResult r = doceph::benchcore::run_experiment(spec);
      std::fprintf(stderr,
                   "[perf-smoke] doceph repeat %ld: p99 %.2f ms, host %.3f cores, %s\n",
                   rep, r.p99_lat_s * 1e3, r.host_cores,
                   r == doceph_result ? "identical" : "DIFFERS");
      identical &= r == doceph_result;
    }
    w.key("doceph_variance");
    w.begin_object();
    w.kv("repeats", static_cast<std::int64_t>(repeats));
    w.kv("identical", identical);
    w.end_object();
    if (!identical) {
      std::fprintf(stderr,
                   "[perf-smoke] FAIL: a same-seed repeat of the doceph lap "
                   "differs from the first run\n");
      failed = true;
    }
  }
  w.end_object();

  {
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
    out << w.str() << "\n";
  }
  std::fprintf(stderr, "[perf-smoke] wrote %s\n", out_path.c_str());

  // Intra-run sharding gate: needs no committed baseline, so it guards the
  // sharded write path even on a fresh checkout. op_shards=kv_shards=4 must
  // keep a real speedup over the unsharded small-write lap (acceptance:
  // >= 1.8x over the full 400 ms lap; the shorter sharded window is gated
  // at the same bar) and must finish with zero failed ops — backpressure
  // may defer writes, never drop them.
  if (doceph_small.iops > 0) {
    const double speedup = doceph_small_sharded.iops / doceph_small.iops;
    std::fprintf(stderr,
                 "[perf-smoke] doceph_smallwrite sharded/unsharded: %.0f / "
                 "%.0f ops/s = %.2fx (gate: >= %.2fx)\n",
                 doceph_small_sharded.iops, doceph_small.iops, speedup,
                 kShardGate);
    if (speedup < kShardGate) {
      std::fprintf(stderr,
                   "[perf-smoke] FAIL: sharded small-write speedup below gate\n");
      failed = true;
    }
    if (doceph_small_sharded.failed_ops > 0) {
      std::fprintf(stderr,
                   "[perf-smoke] FAIL: sharded small-write lap had %llu "
                   "failed ops\n",
                   static_cast<unsigned long long>(doceph_small_sharded.failed_ops));
      failed = true;
    }
  }

  if (baseline_path.empty()) return failed ? 1 : 0;
  std::ifstream in(baseline_path);
  if (!in) {
    std::fprintf(stderr, "baseline %s missing; skipping regression gate\n",
                 baseline_path.c_str());
    return failed ? 1 : 0;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string baseline_json = ss.str();

  // Gate 1: DoCeph throughput may not DROP past kIopsDropGate — on the 1 MB
  // lap and on the 16 KB small-write lap (the batching hot path).
  const struct {
    const char* object;
    double current;
  } iops_gates[] = {
      {"doceph", doceph_result.iops},
      {"doceph_smallwrite", doceph_small.iops},
  };
  for (const auto& g : iops_gates) {
    double base_iops = 0;
    if (extract_number(baseline_json, g.object, "ops_per_sec", base_iops) &&
        base_iops > 0) {
      const double drop = (base_iops - g.current) / base_iops;
      std::fprintf(stderr,
                   "[perf-smoke] %s ops/s: baseline %.0f, this run %.0f "
                   "(%+.1f%%; gate: -%.0f%%)\n",
                   g.object, base_iops, g.current, -drop * 100,
                   kIopsDropGate * 100);
      if (drop > kIopsDropGate) {
        std::fprintf(stderr, "[perf-smoke] FAIL: %s throughput regression beyond gate\n",
                     g.object);
        failed = true;
      }
    } else {
      std::fprintf(stderr, "baseline %s has no %s ops_per_sec; skipping iops gate\n",
                   baseline_path.c_str(), g.object);
    }
  }

  // Gates 2+3: p99 latency and host-CPU cores may not GROW past their
  // thresholds. Host cores is the paper's headline metric — DoCeph exists
  // to shrink it — so a silent climb is as much a regression as lost iops.
  const struct {
    const char* key;
    const char* label;
    double current;
    double limit;
  } growth_gates[] = {
      {"p99_lat_s", "p99 latency", doceph_result.p99_lat_s, kP99GrowthGate},
      {"host_cores", "host-CPU cores", doceph_result.host_cores, kCoresGrowthGate},
  };
  for (const auto& g : growth_gates) {
    double base = 0;
    if (!extract_number(baseline_json, "doceph", g.key, base) || base <= 0) {
      std::fprintf(stderr, "baseline %s has no doceph %s; skipping %s gate\n",
                   baseline_path.c_str(), g.key, g.label);
      continue;
    }
    const double growth = (g.current - base) / base;
    std::fprintf(stderr,
                 "[perf-smoke] doceph %s: baseline %.4g, this run %.4g "
                 "(%+.1f%%; gate: +%.0f%%)\n",
                 g.label, base, g.current, growth * 100, g.limit * 100);
    if (growth > g.limit) {
      std::fprintf(stderr, "[perf-smoke] FAIL: %s regression beyond gate\n", g.label);
      failed = true;
    }
  }
  return failed ? 1 : 0;
}
