#!/usr/bin/env python3
"""Serving benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload search-200k --seed 1 --seconds 30 \\
        --trace 0

Builds the C++ binary (perfbench.cc, CMakeLists.txt here) from the
repository's sources into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), runs it, and turns its raw records into metrics.
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones. The
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The exit code is nonzero when the output oracle or the receipt determinism
check fails. See README.md for the workloads and the metric table.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402

WORKLOADS = ("search-200k", "columns-socket-20k", "mutate-50k")
# A whole run must end within 180 s; the binary gets most of it.
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT,
                                                              ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build(out_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"library sources not found under {ROOT}")
    jobs = str(len(os.sched_getaffinity(0)))
    steps = [["cmake", "--build", out_dir, "--target", "perfbench", "-j",
              jobs]]
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", out_dir,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(out_dir, "perfbench")


def run_binary(binary, args, records_path):
    # Only the generated inputs reach the program: drop ambient CSRPLUS_*
    # settings (pool width, kernel ISA, stats toggles).
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("CSRPLUS_")}
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", records_path]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s", 1)
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        fail(f"benchmark binary exited with code {proc.returncode}",
             proc.returncode)


def parse(path):
    rec = {"meta": {}, "setups": [], "reqs": [], "spans": [], "cache": [],
           "updates": []}
    with open(path) as f:
        for line in f:
            kind, *fields = line.split()
            if kind == "meta":
                rec["meta"][fields[0]] = fields[1]
            elif kind == "setup":
                rec["setups"].append(dict(zip(
                    ("graph_s", "svd_s", "subspace_s", "serve_start_s",
                     "total_s"), map(float, fields))))
            elif kind == "window":
                rec["window"] = tuple(map(int, fields))
            elif kind == "req":
                rec["reqs"].append(dict(zip(
                    ("client", "start", "end", "ok", "wait", "total",
                     "batch_requests", "batch_queries", "send", "traced"),
                    map(int, fields))))
            elif kind == "span":
                rec["spans"].append((fields[0], *map(int, fields[1:])))
            elif kind == "cache":
                rec["cache"].append(dict(zip(stats.CACHE_FIELDS,
                                             map(int, fields[1:]))))
            elif kind == "update":
                rec["updates"].append(dict(zip(
                    ("due", "start", "end", "ok", "effective", "touched",
                     "rebuilt"), map(int, fields))))
            elif kind == "oracle":
                rec["oracle"] = tuple(map(int, fields))
            elif kind == "net_bytes":
                rec["net_bytes"] = float(fields[0])
    return rec


def ms(micros):
    return micros / 1000.0


def end_to_end(rec, seconds):
    open_, _, close = rec["window"]
    done = [r for r in rec["reqs"] if r["ok"] and r["end"] <= close]
    latencies = [ms(r["end"] - r["start"]) for r in done]
    p95 = stats.checked_percentile(latencies, 0.95)
    print(f"# window {seconds} s: {len(done)} requests completed, "
          f"{stats.beyond(len(latencies), 0.95)} beyond p95")
    return {
        "setup_s": (statistics.median(s["total_s"] for s in rec["setups"]),
                    "s"),
        "qps": (len(done) / ((close - open_) / 1e6), "1/s"),
        "latency_p50_ms": (stats.percentile(latencies, 0.50), "ms"),
        "latency_p95_ms": (p95, "ms"),
        "peak_rss_mb": (int(rec["meta"]["peak_rss_kb"]) / 1024.0, "MB"),
    }


def per_layer(rec):
    open_, mid, close = rec["window"]
    n = int(rec["meta"]["n"])
    rank = int(rec["meta"]["rank"])
    half = [(open_, mid), (mid, close)]
    qps = [sum(1 for r in rec["reqs"] if r["ok"] and a <= r["end"] < b)
           / ((b - a) / 1e6) for a, b in half]

    traced = [r for r in rec["reqs"] if r["traced"] and r["ok"]
              and r["end"] <= close]
    if not traced:
        raise ValueError("no traced request completed in the window")
    # Spans of one request share its id; engine spans have none and are
    # given to the dispatch spans they overlap.
    by_request = {}
    engine = []
    columns = 0
    for name, start, end, _parent, request, cols in rec["spans"]:
        if name == "engine":
            engine.append((start, end))
            columns += cols
        else:
            by_request.setdefault(request, {})[name] = (start, end)
    spans = [s for s in by_request.values() if s["request"][1] <= close]
    dispatch = [s["service.dispatch"] for s in spans]
    engine_us = sum(b - a for a, b in engine)
    engine_per_req = [stats.union_length(kids, window=d) for d, kids in
                      zip(dispatch, stats.attribute(dispatch, engine))]
    # The service layer's own time. In process, the request span is the
    # QueryService::Query call, so its self time also covers the return
    # (wake-up, response copy); over a socket, the tail belongs to net.
    if rec["meta"]["transport"] == "socket":
        self_us = [(d[1] - d[0]) - e for d, e in zip(dispatch, engine_per_req)]
    else:
        self_us = [stats.self_time(s["request"], [s["service.wait"]]) - e
                   for s, e in zip(spans, engine_per_req)]
    busy_us = stats.union_length(dispatch, window=(mid, close))
    latency = [ms(s["request"][1] - s["request"][0]) for s in spans]
    wait = [ms(s["service.wait"][1] - s["service.wait"][0]) for s in spans]
    p50 = stats.median_or_zero

    m = {
        "service.queue_wait_p50_ms": (p50(wait), "ms"),
        "service.dispatch_p50_ms": (p50([ms(b - a) for a, b in dispatch]),
                                    "ms"),
        "service.self_p50_ms": (p50([ms(u) for u in self_us]), "ms"),
        "service.busy_share": (busy_us / (close - mid), "ratio"),
        "service.batch_requests_mean": (
            statistics.fmean(r["batch_requests"] for r in traced), "count"),
        "service.batch_queries_mean": (
            statistics.fmean(r["batch_queries"] for r in traced), "count"),
        "engine.batch_p50_ms": (p50([ms(b - a) for a, b in engine]), "ms"),
        "engine.columns_per_req": (columns / len(traced), "count"),
        "engine.share": (engine_us / busy_us if busy_us else 0.0, "ratio"),
        "engine.gflops_computed": (
            2.0 * n * rank * columns / engine_us / 1e3 if engine_us else 0.0,
            "GFLOP/s"),
    }
    m["trace.accounted_share"] = (
        (p50(wait) + p50([ms(u) for u in engine_per_req])
         + m["service.self_p50_ms"][0]) / p50(latency), "ratio")

    delta = (stats.cache_delta(rec["cache"][1], rec["cache"][2])
             if len(rec["cache"]) == 3 else None)
    m.update({
        "cache.hit_rate": (delta["hit_rate"] if delta else 0.0, "ratio"),
        "cache.evictions_per_req": (
            delta["evictions"] / len(traced) if delta else 0.0, "count"),
        "cache.invalidations": (delta["invalidations"] if delta else 0,
                                "count"),
        "cache.rejections": (delta["rejections"] if delta else 0, "count"),
        "cache.resident_mb": (
            delta["resident_bytes"] / 2**20 if delta else 0.0, "MB"),
    })

    socket = [r for r in traced if r["send"] > 0]
    m.update({
        "net.overhead_p50_ms": (
            p50([ms(r["end"] - r["start"] - r["total"]) for r in socket]),
            "ms"),
        "net.send_p50_ms": (p50([ms(r["send"]) for r in socket]), "ms"),
        "net.response_bytes": (rec.get("net_bytes", 0.0), "bytes"),
    })

    ups = [u for u in rec["updates"] if u["ok"]]
    m.update({
        "update.apply_p50_ms": (p50([ms(u["end"] - u["start"]) for u in ups]),
                                "ms"),
        "update.due_p50_ms": (p50([ms(u["end"] - u["due"]) for u in ups]),
                              "ms"),
        "update.lag_max_ms": (
            max((ms(u["start"] - u["due"]) for u in ups), default=0.0), "ms"),
        "update.effective": (sum(u["effective"] for u in ups), "count"),
        "update.touched_mean": (
            statistics.fmean(u["touched"] for u in ups) if ups else 0.0,
            "count"),
        "update.rebuilds": (sum(u["rebuilt"] for u in ups), "count"),
    })

    for key in ("graph_s", "svd_s", "subspace_s", "serve_start_s"):
        m["setup." + key] = (
            statistics.median(s[key] for s in rec["setups"]), "s")
    m["trace.overhead_qps_ratio"] = (qps[1] / qps[0], "ratio")
    return m


def receipts_repeat(rec, args, out_dir):
    """Receipt counts of one seed must repeat exactly across runs."""
    if not rec["updates"]:
        return True
    ups = rec["updates"]
    counts = [len(ups), sum(u["effective"] for u in ups),
              sum(u["touched"] for u in ups), sum(u["rebuilt"] for u in ups)]
    path = os.path.join(out_dir, "receipts.json")
    seen = {}
    if os.path.isfile(path):
        with open(path) as f:
            seen = json.load(f)
    key = f"{args.workload}/{args.seed}/{args.seconds}"
    print(f"# receipts {key}: batches={counts[0]} effective={counts[1]} "
          f"touched={counts[2]} rebuilds={counts[3]}")
    if key in seen:
        return seen[key] == counts
    seen[key] = counts
    with open(path, "w") as f:
        json.dump(seen, f)
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out_dir = build_dir()
    binary = build(out_dir)
    records_path = os.path.join(
        out_dir, f"records-{args.workload}-{args.seed}-{args.trace}.txt")
    run_binary(binary, args, records_path)
    rec = parse(records_path)

    print(f"# process: peak_rss_kb={rec['meta']['peak_rss_kb']} "
          f"minor_faults={rec['meta']['minor_faults']} "
          f"involuntary_switches={rec['meta']['involuntary_switches']}")
    checked, mismatches = rec["oracle"]
    print(f"# oracle: {checked} answers checked, {mismatches} mismatches")
    correct = checked > 0 and mismatches == 0
    if not receipts_repeat(rec, args, out_dir):
        print("# receipt counts differ from an earlier run of this seed")
        correct = False
    try:
        metrics = per_layer(rec) if args.trace else end_to_end(rec,
                                                               args.seconds)
    except ValueError as e:
        fail(str(e), 1)
    attempted = len(rec["reqs"]) + len(rec["updates"])
    failed = (sum(1 for r in rec["reqs"] if not r["ok"])
              + sum(1 for u in rec["updates"] if not u["ok"]))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
