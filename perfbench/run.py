#!/usr/bin/env python3
"""End-to-end benchmark of the gum library.

Builds the harness (perfbench/harness, linked against ../src) into
.bench_build/, runs one workload and prints one JSON object as the last line
of stdout: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json; with --trace 1 the run
is traced and the metrics are its per-layer metrics, including the span.*
self times and pool.utilization reduced here from the Chrome traces.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --selftest        # determinism self-test
"""

import argparse
import collections
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "gum_perfbench")
TRACE_DIR = os.path.join(BUILD_ROOT, "trace")
HARNESS_TIMEOUT_S = 170

# Engine spans whose self time a traced run reports.
SELF_TIME_SPANS = [
    "gum.census", "gum.osteal", "solver.steal_problem", "gum.fsteal",
    "expand.unit", "merge.shard", "apply.shard", "gum.account",
    "comm.settle", "serve.batch",
]
# Harness spans that wrap one engine-running public call.
ENGINE_SPAN_PREFIX = "bench.engine."


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the harness; output goes to stderr."""
    tmp = os.path.join(BUILD_ROOT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"] + generator,
            check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j4"], check=True,
                   stdout=sys.stderr, env=env)


def self_times(path):
    """Per-span totals, self times and counts (ms) of one Chrome trace, and
    the self time of each host lane. A span's self time is its duration
    minus the durations of the spans nested directly inside it on its lane.
    """
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    lanes = collections.defaultdict(list)
    for e in events:
        if e.get("ph") == "X" and e.get("pid") == 2:
            lanes[e["tid"]].append(e)
    total = collections.Counter()
    self_ms = collections.Counter()
    count = collections.Counter()
    lane_self = collections.Counter()
    for lane, spans in lanes.items():
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        children = [0.0] * len(spans)
        stack = []
        for i, e in enumerate(spans):
            while stack and (spans[stack[-1]]["ts"] + spans[stack[-1]]["dur"]
                             <= e["ts"]):
                stack.pop()
            if stack:
                children[stack[-1]] += e["dur"]
            stack.append(i)
        for e, child_us in zip(spans, children):
            total[e["name"]] += e["dur"] / 1e3
            self_ms[e["name"]] += (e["dur"] - child_us) / 1e3
            count[e["name"]] += 1
            lane_self[lane] += (e["dur"] - child_us) / 1e3
    return total, self_ms, count, lane_self


def reduce_traces(rounds, threads):
    """Span metrics per round, averaged over the traced rounds; also writes
    the whole reduction to .bench_build/trace/summary.json."""
    summary = {}
    per_round = [collections.Counter() for _ in range(4)]
    for name in sorted(os.listdir(TRACE_DIR)):
        if not name.endswith(".json") or name == "summary.json":
            continue
        parts = self_times(os.path.join(TRACE_DIR, name))
        summary[name[:-5]] = {
            "spans": {n: {"total_ms": parts[0][n], "self_ms": parts[1][n],
                          "count": parts[2][n]} for n in sorted(parts[0])},
            "lane_self_ms": {str(k): v for k, v in sorted(parts[3].items())},
        }
        if name.startswith("round-"):
            for acc, part in zip(per_round, parts):
                acc.update(part)
    with open(os.path.join(TRACE_DIR, "summary.json"), "w") as f:
        json.dump(summary, f, indent=1, sort_keys=True)

    total, self_ms = per_round[0], per_round[1]
    metrics = {"span.%s.self_ms" % n: self_ms[n] / rounds
               for n in SELF_TIME_SPANS}
    engine_ms = sum(v for n, v in total.items()
                    if n.startswith(ENGINE_SPAN_PREFIX))
    metrics["pool.utilization"] = (
        total["pool.busy"] / (threads * engine_ms) if engine_ms > 0 else 0.0)
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--threads", type=int,
                        help="host threads (default: the workload's own)")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log("perfbench: build failed: %s" % e)
        return 1
    if args.selftest:
        return subprocess.run([BINARY, "--selftest", "--seed",
                               str(args.seed)]).returncode
    if not args.workload:
        parser.error("--workload is required")

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if args.threads is not None:
        cmd += ["--threads", str(args.threads)]
    if args.trace:
        shutil.rmtree(TRACE_DIR, ignore_errors=True)
        os.makedirs(TRACE_DIR)
        cmd += ["--trace-dir", TRACE_DIR]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: harness did not finish in %d s" % HARNESS_TIMEOUT_S)
        return 1
    if proc.returncode != 0:
        log("perfbench: harness exited with code %d" % proc.returncode)
        return 1
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    measured = report["metrics"]
    if args.trace:
        measured.update(reduce_traces(report["rounds"], report["threads"]))

    # Units come from BENCHMARK.json. A per-layer metric a workload has no
    # layer for reads 0; a missing end-to-end metric, or a name the
    # benchmark does not define, is an error.
    known = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    unknown = sorted(set(measured) - known)
    missing = [m["name"] for m in spec["end_to_end"]
               if m["name"] not in measured]
    if unknown or missing:
        log("perfbench: metrics not in BENCHMARK.json: %s; end-to-end "
            "metrics missing: %s" % (unknown, missing))
        return 1
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": measured.get(m["name"], 0.0),
                           "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": report["correct"],
                      "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
