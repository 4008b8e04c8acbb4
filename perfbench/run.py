#!/usr/bin/env python3
"""DoCeph benchmark: one closed-loop workload against the simulated cluster.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. Builds the driver (perfbench/driver.cpp plus
the simulator library from src/) into .bench_build/perfbench, runs it, and
prints every metric by name with its unit, then as the last line of stdout
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
--trace 1 the per-layer ones, including the self time of every traced span.

--seconds scales the measured windows: each workload converts it to a fixed
simulated window (SIM_PER_HOST_S below), so a seed gives the same inputs on
any machine and a busy host makes a run longer, not different. NOTES.md
explains the workloads and metrics.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD, "doceph_perfbench")
FIXTURE = os.path.join(HERE, "fixtures", "trace_fixture.json")

REPS = 5            # untraced repetitions per run, each on a fresh cluster
RUN_TIMEOUT_S = 170
MIN_BEYOND = 10     # a percentile needs this many samples beyond it
TRACE_TARGET_OPS = 256  # ops the traced repetition samples, roughly

# Simulated seconds of window per --seconds, per workload. Chosen so the
# write p99 keeps at least ~25 samples beyond it (about 2.5x the minimum)
# and a run stays near 20 host seconds on an idle 4-core x86 box, where
# the windows take 0.7x (baseline_write_16k) to 1.7x (doceph_write_1m)
# of --seconds. Fixed constants: the simulated window, and so the inputs,
# must not depend on host load.
SIM_PER_HOST_S = {
    "doceph_write_1m": 0.6,
    "doceph_write_16k": 1.0,
    "doceph_rw_16k": 0.6,
    "baseline_write_16k": 0.25,
}

DOCEPH_WRITE_SPANS = ["dpu.write", "dpu.batch", "dpu.rpc.submit_txn", "doca.dma_job",
                      "host.submit_txn", "host.stage_batch"]
COMMON_SPANS = ["client.op", "msgr.dispatch", "osd.op", "osd.stage.messenger",
                "osd.stage.queue", "osd.stage.store", "osd.stage.replication",
                "osd.stage.reply", "bluestore.txn"]
TRACE_SPANS = COMMON_SPANS + DOCEPH_WRITE_SPANS + ["dpu.read"]
# Spans each workload's ops are expected to pass through.
PATH_SPANS = {
    "doceph_write_1m": COMMON_SPANS + DOCEPH_WRITE_SPANS,
    "doceph_write_16k": COMMON_SPANS + DOCEPH_WRITE_SPANS,
    "doceph_rw_16k": COMMON_SPANS + DOCEPH_WRITE_SPANS + ["dpu.read"],
    "baseline_write_16k": COMMON_SPANS,
}
# Path spans the simulator never records at this commit (a known defect, see
# NOTES.md); any other unrecorded path span fails the run.
KNOWN_UNRECORDED = {"dpu.read"}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---- build -------------------------------------------------------------------

def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        raise RuntimeError("no src/ next to perfbench/: run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", BUILD, "-j", jobs]):
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)


def run_driver(workload, seed, window_ms, scrub=False, trace_every=0, trace_path=None):
    """One repetition in its own process, so its peak RSS is its own."""
    cmd = [DRIVER, "--workload", workload, "--seed", str(seed),
           "--window-ms", str(window_ms), "--scrub", "1" if scrub else "0"]
    if trace_every:
        cmd += ["--trace-every", str(trace_every), "--trace-out", trace_path]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=RUN_TIMEOUT_S, check=True)
    rep = json.loads(proc.stdout)
    if not rep["started"]:
        raise RuntimeError("cluster failed to start: " + "; ".join(rep["errors"]))
    return rep


def run_reps(workload, seed, window_ms):
    """REPS untraced repetitions, each seeded from (seed, repetition); the
    replica scrub reads every replica of every object, which for 1 MB
    objects costs more host time than the window, so only the last
    repetition runs it."""
    return [run_driver(workload, seed * 1000 + i, window_ms, scrub=i == REPS - 1)
            for i in range(REPS)]


# ---- statistics --------------------------------------------------------------

def percentile(sorted_ns, q):
    """Nearest-rank percentile in ms, and how many samples lie beyond it."""
    n = len(sorted_ns)
    if n == 0:
        return None, 0
    k = max(1, math.ceil(q * n))
    return sorted_ns[k - 1] / 1e6, n - k


def ratio(num, den):
    return num / den if den else 0.0


# ---- trace self times ----------------------------------------------------------

def self_times(trace):
    """Per span name: total self time (us) and span count, plus the number
    of sampled ops (client.op roots). A span's self time is its duration
    minus the union of its children's intervals, clipped to the span."""
    spans = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
    children = defaultdict(list)
    for s in spans:
        children[(s["args"]["trace_id"], s["args"]["parent_id"])].append(s)
    total = defaultdict(float)
    count = defaultdict(int)
    for s in spans:
        lo, hi = s["ts"], s["ts"] + s["dur"]
        covered, cur_lo, cur_hi = 0.0, None, None
        kids = children[(s["args"]["trace_id"], s["args"]["span_id"])]
        for a, b in sorted((max(lo, c["ts"]), min(hi, c["ts"] + c["dur"])) for c in kids):
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        total[s["name"]] += (hi - lo) - covered
        count[s["name"]] += 1
    return total, count, count.get("client.op", 0)


def self_test():
    """Check self_times() on the hand-written fixture: its first trace nests
    without overlap, so the self times must sum to the root span; the second
    has overlapping and overhanging children."""
    with open(FIXTURE) as f:
        fx = json.load(f)
    failures = []
    for case in fx["cases"]:
        total, _, ops = self_times(case["trace"])
        for name, want in case["self_us"].items():
            if abs(total.get(name, 0.0) - want) > 1e-6:
                failures.append(f"{case['name']}: {name} self {total.get(name)} != {want}")
        if case.get("sums_to_root"):
            roots = [e for e in case["trace"]["traceEvents"]
                     if e.get("ph") == "X" and e["name"] == "client.op"]
            if ops != 1 or abs(sum(total.values()) - roots[0]["dur"]) > 1e-6:
                failures.append(f"{case['name']}: self times sum to {sum(total.values())}, "
                                f"root is {roots[0]['dur']}")
    return failures


# ---- metrics -------------------------------------------------------------------

def derive(reps):
    """Every metric of the untraced repetitions: name -> (value, unit, note)."""
    c = defaultdict(float)
    hw = defaultdict(float)
    for r in reps:
        for k, v in r["counters"].items():
            c[k] += v
        for k, v in r["levels"].items():
            hw[k] = max(hw[k], v)
    writes = sorted(x for r in reps for x in r["write_lat_ns"])
    reads = sorted(x for r in reps for x in r["read_lat_ns"])
    ops = len(writes) + len(reads)
    sim_s = sum(r["window_sim_s"] for r in reps)
    failed = sum(r["failed"] + r["bad_reads"] + r["checks_failed"] for r in reps)
    attempted = ops + sum(r["failed"] + r["checks"] for r in reps)

    m = {}

    def put(name, value, unit, note=""):
        m[name] = (value, unit, note)

    def lat(prefix, samples):
        for q, tag in ((0.5, "p50"), (0.99, "p99")):
            v, beyond = percentile(samples, q)
            supported = v is not None and beyond >= MIN_BEYOND
            note = f"n={len(samples)}, {beyond} beyond"
            if not supported:
                note = ("unsupported: " if samples else "no samples: ") + note
            put(f"{prefix}_lat_{tag}_ms", v if supported else None, "ms", note)

    put("ops_per_s", ratio(ops, sim_s), "ops/s", f"{ops} ops in {sim_s:.3f} simulated s")
    lat("write", writes)
    lat("read", reads)
    put("host_cpu_us_per_op", ratio(c["host_cpu_ns"], ops) / 1e3, "us",
        "simulated, all storage hosts")
    put("dpu_cpu_us_per_op", ratio(c["dpu_cpu_ns"], ops) / 1e3, "us", "simulated, all DPUs")
    put("failed_ops_ratio", ratio(failed, attempted), "ratio",
        f"{failed} of {attempted}; the scrub compared "
        f"{sum(r['scrub_objects'] for r in reps)} objects")
    put("sim_cpu_s_per_sim_s",
        statistics.median(ratio(r["cpu_s"], r["window_sim_s"]) for r in reps), "s/s",
        "simulator user+sys CPU, median of repetitions")
    put("setup_s", statistics.median(r["setup_wall_s"] for r in reps), "s",
        "build+start+preload+warmup, median of repetitions")
    put("peak_rss_mb", statistics.median(r["vm_hwm_kb"] for r in reps) / 1024.0, "MB",
        "VmHWM, median of repetitions")
    put("write_lat_samples", len(writes), "count")
    put("read_lat_samples", len(reads), "count")

    put("client.retries_per_op", ratio(c["client.retries"], ops), "1/op")
    put("client.throttled_per_op", ratio(c["client.throttled"], ops), "1/op")
    put("client.timeouts", c["client.timeouts"], "count")

    put("msgr.msgs_per_op", ratio(c["msgr.msgs"], ops), "1/op", "OSD messengers, sent+received")
    put("msgr.bytes_per_op", ratio(c["msgr.bytes"], ops), "B/op")
    flushes = c["msgr.cork_flush_size"] + c["msgr.cork_flush_timeout"]
    put("msgr.cork_flushes_per_op", ratio(flushes, ops), "1/op")
    put("msgr.cork_timeout_share", ratio(c["msgr.cork_flush_timeout"], flushes), "ratio")
    put("msgr.stage_ms", ratio(c["osd.msgr_ns"], c["osd.ops"]) / 1e6, "ms", "per OSD op")
    put("msgr.cpu_us_per_op", ratio(c["msgr.cpu_ns"], ops) / 1e3, "us")
    put("msgr.ctx_switches_per_op", ratio(c["msgr.ctx"], ops), "1/op", "simulated")

    for stage in ("op", "queue", "store", "repl", "reply"):
        key = "osd.op_ns" if stage == "op" else f"osd.{stage}_ns"
        put(f"osd.{stage}_ms", ratio(c[key], c["osd.ops"]) / 1e6, "ms", "per OSD op")
    put("osd.queue_depth_hw", hw["osd.queue_depth_hw"], "count")
    put("osd.throttled_per_op", ratio(c["osd.throttled"], ops), "1/op")
    put("osd.cpu_us_per_op", ratio(c["osd.cpu_ns"], ops) / 1e3, "us")

    pw = c["proxy.writes"]
    put("proxy.write_ms", ratio(c["proxy.total_ns"], pw) / 1e6, "ms", "per proxy write txn")
    put("proxy.dma_wait_ms", ratio(c["proxy.dma_wait_ns"], pw) / 1e6, "ms")
    put("proxy.dma_ms", ratio(c["proxy.dma_ns"], pw) / 1e6, "ms", "formula-derived")
    put("proxy.host_write_ms", ratio(c["proxy.host_write_ns"], pw) / 1e6, "ms")
    others = max(0.0, c["proxy.total_ns"] - c["proxy.dma_ns"] - c["proxy.dma_wait_ns"]
                 - c["proxy.host_write_ns"])
    put("proxy.others_ms", ratio(others, pw) / 1e6, "ms", "residual: total minus the rest")
    put("proxy.slot_wait_ms", ratio(c["proxy.slot_wait_ns"], pw) / 1e6, "ms")
    put("proxy.batch_fill", ratio(c["proxy.batch_fill_sum"], c["proxy.batch_fill_count"]),
        "segments")
    put("proxy.batch_flushes_per_op", ratio(c["proxy.batch_flushes"], ops), "1/op")
    put("proxy.rpc_frames_per_flush", ratio(c["proxy.rpc_frames"], c["proxy.rpc_flushes"]),
        "frames")
    put("proxy.rpc_bytes_per_op", ratio(c["proxy.rpc_bytes"], ops), "B/op")
    put("proxy.worker_queue_hw", hw["proxy.worker_queue_hw"], "count")
    put("proxy.throttled_per_op", ratio(c["proxy.throttled"], ops), "1/op")
    put("proxy.rpc_timeouts", c["proxy.rpc_timeouts"], "count")

    put("doca.dma_jobs_per_op", ratio(c["doca.dma_jobs"], ops), "1/op")
    put("doca.dma_sg_passes_per_op", ratio(c["doca.dma_passes"], ops), "1/op")
    put("doca.dma_bytes_per_op", ratio(c["doca.dma_bytes"], ops), "B/op")
    put("doca.dma_failed", c["doca.dma_failed"], "count")
    put("doca.comch_msgs_per_op", ratio(c["doca.comch_msgs"], ops), "1/op", "both endpoints")

    put("bluestore.commit_ms", ratio(c["bluestore.commit_ns"], c["bluestore.commits"]) / 1e6,
        "ms")
    put("bluestore.txns_per_op", ratio(c["bluestore.txns"], ops), "1/op")
    put("bluestore.kv_bytes", hw["bluestore.kv_bytes"], "B", "all stores, end of window")
    put("bluestore.cpu_us_per_op", ratio(c["bluestore.cpu_ns"], ops) / 1e3, "us")
    put("bluestore.ctx_switches_per_op", ratio(c["bluestore.ctx"], ops), "1/op", "simulated")

    put("sim.wall_s_per_sim_s",
        statistics.median(ratio(r["window_wall_s"], r["window_sim_s"]) for r in reps), "s/s")
    put("sim.os_vol_ctx_switches_per_op", ratio(sum(r["os_vol_ctx"] for r in reps), ops), "1/op")
    put("sim.os_invol_ctx_switches_per_op",
        ratio(sum(r["os_invol_ctx"] for r in reps), ops), "1/op")
    put("sim.os_threads_peak", max(r["os_threads_peak"] for r in reps), "count")
    put("sim.keeper_threads", max(r["keeper_threads_peak"] for r in reps), "count")
    return m, attempted, failed


def derive_trace(traced, trace_path, every, untraced_cpu):
    m = {}
    with open(trace_path) as f:
        total, count, ops = self_times(json.load(f))
    for name in TRACE_SPANS:
        if count.get(name, 0) == 0:
            m[f"trace.{name}.self_ms"] = (None, "ms", "missing: never recorded")
        else:
            m[f"trace.{name}.self_ms"] = (ratio(total[name], ops) / 1e3, "ms",
                                          f"{count[name]} spans")
    m["trace.sampled_ops"] = (ops, "count", f"1 in {every} ops")
    cpu = ratio(traced["cpu_s"], traced["window_sim_s"])
    m["trace.overhead_sim_cpu_pct"] = (100.0 * (ratio(cpu, untraced_cpu) - 1.0), "%",
                                       "traced vs untraced sim_cpu_s_per_sim_s")
    return m, count


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(SIM_PER_HOST_S))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="check the trace self-time computation on its fixture")
    args = ap.parse_args()

    if args.self_test:
        failures = self_test()
        for f in failures:
            log(f"self-test: {f}")
        print("self-test " + ("FAILED" if failures else "passed"))
        return 1 if failures else 0
    if args.workload is None:
        ap.error("--workload is required")
    if args.seconds <= 0 or args.seed < 0:
        ap.error("--seconds must be positive and --seed non-negative")

    build()
    window_ms = max(1, round(args.seconds * SIM_PER_HOST_S[args.workload] * 1000 / REPS))
    t0 = time.monotonic()
    reps = run_reps(args.workload, args.seed, window_ms)
    metrics, attempted, failed = derive(reps)
    problems = [e for r in reps for e in r["errors"]]

    if args.trace == 1:
        problems += [f"self-test: {f}" for f in self_test()]
        # Sample about TRACE_TARGET_OPS of the traced window's ops.
        per_rep = metrics["write_lat_samples"][0] + metrics["read_lat_samples"][0]
        every = max(1, round(per_rep / REPS / TRACE_TARGET_OPS))
        trace_path = os.path.join(BUILD, f"trace_{args.workload}.json")
        traced = run_driver(args.workload, args.seed * 1000 + REPS, window_ms,
                            trace_every=every, trace_path=trace_path)
        tm, count = derive_trace(traced, trace_path, every,
                                 metrics["sim_cpu_s_per_sim_s"][0])
        metrics.update(tm)
        problems += traced["errors"]
        attempted += len(traced["write_lat_ns"]) + len(traced["read_lat_ns"]) \
            + traced["failed"] + traced["checks"]
        failed += traced["failed"] + traced["bad_reads"] + traced["checks_failed"]
        missing = [s for s in PATH_SPANS[args.workload] if count.get(s, 0) == 0]
        for s in missing:
            if s in KNOWN_UNRECORDED:
                log(f"[perfbench] known defect: span {s} on the {args.workload} path "
                    "is never recorded")
            else:
                problems.append(f"span {s} on the {args.workload} path never recorded")
        if traced["trace_dropped"]:
            problems.append(f"tracer dropped {traced['trace_dropped']} spans")
    log(f"[perfbench] driver took {time.monotonic() - t0:.1f} s "
        f"({REPS} x {window_ms} simulated ms)")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace == 1 else spec["end_to_end"]

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for name, (value, unit, note) in metrics.items():
        shown = note.split(":")[0] if value is None else f"{value:.6g}"
        print(f"{name:40s} {shown:>14s} {unit:8s} {note}")
    for p in problems:
        print(f"# check failed: {p}")

    out = {}
    for w in wanted:
        value, unit, note = metrics[w["name"]]
        if unit != w["unit"]:
            raise ValueError(f"{w['name']}: BENCHMARK.json says {w['unit']}, run.py {unit}")
        if value is None:
            if w in spec["end_to_end"]:
                log(f"[perfbench] {w['name']} is {note}; lengthen the window")
                return 1
            # A per-layer latency of an op type the workload never issues, or
            # a span off its path: 0 in the JSON, which holds numbers only;
            # the text above marks it.
            value = 0.0
        out[w["name"]] = {"value": value, "unit": w["unit"]}
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log(f"[perfbench] error: {e}")
        sys.exit(1)
