#!/usr/bin/env python3
"""Measured end-to-end benchmark of the repository (see perfbench/README.md).

Run one workload:
    python3 perfbench/run.py --workload allvsall_align --seed 1 --seconds 15 --trace 0

Builds perfbench/ (the library from src/ plus the benchmark program) under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
workload, appends the full record to <build dir>/results.jsonl (and to
--record FILE if given), and prints as its last line one JSON object with
the keys correct, attempted, failed and metrics.

Other modes:
    python3 perfbench/run.py --selftest [--seed N]
        generator self-test: same seed, same input digest; other seed, other
    python3 perfbench/run.py --compare BEFORE.jsonl AFTER.jsonl
        report-only comparison of two recorded result files
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "pastis.hpp")):
        raise RuntimeError("no library sources under %s/src" % ROOT)
    out = build_dir()
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", "perfbench"])
    for cmd in steps:
        left = max(1.0, deadline - time.monotonic())
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, timeout=left)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout.decode(errors="replace")[-4000:])
            raise RuntimeError("build step failed: %s" % " ".join(cmd))
    return os.path.join(out, "perfbench")


def declared_metrics():
    """Metric names and units BENCHMARK.json declares, or None without it."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {
        "end_to_end": [(m["name"], m["unit"]) for m in spec["end_to_end"]],
        "per_layer": [(m["name"], m["unit"]) for m in spec["per_layer"]],
    }


def check_declared(binary):
    """The binary's metric tables must match BENCHMARK.json exactly."""
    want = declared_metrics()
    if want is None:
        return
    text = subprocess.run([binary, "--list-metrics"], stdout=subprocess.PIPE,
                          check=True, timeout=60).stdout.decode()
    got = {"end_to_end": [], "per_layer": []}
    for line in text.splitlines():
        kind, name, unit = line.split()
        got[kind].append((name, unit))
    if got != want:
        raise RuntimeError("metric tables of the binary and BENCHMARK.json "
                           "disagree")


def host_info(record):
    info = {"nproc": len(os.sched_getaffinity(0)), "cpu_model": "unknown"}
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    text = record.get("text", {})
    for key in ("compiler", "build_type", "pool_threads"):
        info[key] = text.get(key, "unknown")
    return info


def run(args):
    binary = build()
    check_declared(binary)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.decode(errors="replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("perfbench exited with code %d" % proc.returncode)
    record = json.loads(lines[-1])
    record["host"] = host_info(record)
    record["seconds"] = args.seconds
    line = json.dumps(record, sort_keys=True)
    targets = [os.path.join(build_dir(), "results.jsonl")]
    if args.record:
        targets.append(args.record)
    for path in targets:
        with open(path, "a") as f:
            f.write(line + "\n")
    result = {
        "correct": bool(record["correct"]),
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


def selftest(args):
    binary = build()
    return subprocess.run([binary, "--selftest", "--seed", str(args.seed)],
                          timeout=RUN_TIMEOUT_S).returncode


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def summary(values):
    """(median, q1, q3) as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def compare(args):
    before, after = load(args.compare[0]), load(args.compare[1])
    for name, recs in (("before", before), ("after", after)):
        hosts = {json.dumps(r.get("host", {}), sort_keys=True) for r in recs}
        for h in sorted(hosts):
            print("%s host: %s" % (name, h))
    workloads = sorted({r["workload"] for r in before + after})
    for trace, title in ((0, "end-to-end"), (1, "per-layer")):
        for w in workloads:
            a = [r for r in before if r["workload"] == w and r["trace"] == trace]
            b = [r for r in after if r["workload"] == w and r["trace"] == trace]
            if not a or not b:
                continue
            print("\n%s  %s  (runs: %d before, %d after)" %
                  (w, title, len(a), len(b)))
            print("  %-26s %30s %30s %9s" %
                  ("metric", "before median [q1, q3]", "after median [q1, q3]",
                   "delta"))
            for m in a[0]["metrics"]:
                va = [r["metrics"][m]["value"] for r in a if m in r["metrics"]]
                vb = [r["metrics"][m]["value"] for r in b if m in r["metrics"]]
                if not va or not vb:
                    continue
                ma, qa1, qa3 = summary(va)
                mb, qb1, qb3 = summary(vb)
                delta = "n/a" if ma == 0 else "%+.1f%%" % (100 * (mb - ma) / abs(ma))
                print("  %-26s %12.5g [%7.4g, %7.4g] %12.5g [%7.4g, %7.4g] %9s %s" %
                      (m, ma, qa1, qa3, mb, qb1, qb3, delta,
                       a[0]["metrics"][m]["unit"]))
    print("\n(report only: wall-clock deltas are not a pass/fail gate)")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload",
                   choices=["allvsall_align", "allvsall_sensitive", "serve_mixed"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--record", help="also append the full record here")
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    args = p.parse_args()
    try:
        if args.compare:
            return compare(args)
        if args.selftest:
            return selftest(args)
        if not args.workload:
            p.error("--workload is required")
        if args.seconds < 1:
            p.error("--seconds must be at least 1")
        return run(args)
    except (RuntimeError, OSError, subprocess.SubprocessError,
            json.JSONDecodeError, KeyError) as e:
        log("perfbench: %s" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
