#!/usr/bin/env python3
"""Build and run the end-to-end benchmark, then report its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload suite_select --seed 1 \
        --seconds 15 --trace 0

The script configures and builds perfbench/ (which compiles ../src)
under $CARGO_TARGET_DIR or .bench_build/, runs the benchmark binary,
prints every metric with its unit and better direction, writes a
stamped result file under <build>/perfbench/results/, and prints as
its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. --tiny runs the benchmark's own small
configuration (see perfbench/selftest.py); tiny or shorter-than-
run_seconds runs are stamped "short" and never overwrite full results.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def build(build_dir, env):
    """Configure (once) and build the benchmark binary; return its path."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                env=env).returncode
            if rc != 0:
                break
    if rc != 0:
        with open(log_path) as log:
            tail = log.read()[-4000:]
        # A failed configure must be retried from scratch next time.
        cache = os.path.join(build_dir, "CMakeCache.txt")
        if len(steps) == 2 and os.path.exists(cache):
            os.remove(cache)
        fail("build failed (log: %s)\n%s" % (log_path, tail))
    return os.path.join(build_dir, "perfbench")


def source_digest():
    """sha256 over the library and benchmark sources, so results from
    a checkout without git history still name the code they ran."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_rev():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def parse(stdout):
    info, metrics, spans, checks = {}, {}, [], None
    for line in stdout.splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "I" and len(parts) == 3:
            info[parts[1]] = parts[2]
        elif parts[0] == "M" and len(parts) == 3:
            metrics[parts[1]] = float(parts[2])
        elif parts[0] == "S" and len(parts) == 5:
            spans.append((parts[1], float(parts[2]), float(parts[3]),
                          float(parts[4])))
        elif parts[0] == "C" and len(parts) == 3:
            checks = (int(parts[1]), int(parts[2]))
    return info, metrics, spans, checks


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small configuration for the self-test")
    ap.add_argument("--inject-malformed", action="store_true",
                    help="feed one truncated serialized recording")
    args = ap.parse_args()

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    catalogue = load_json(os.path.join(HERE, "metrics.json"))
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        fail("unknown workload %r (known: %s)" %
             (args.workload, ", ".join(names)))

    build_root = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(build_root, "perfbench")
    tmp_dir = os.path.join(build_dir, "tmp")
    work_dir = os.path.join(build_dir, "work")
    results_dir = os.path.join(build_dir, "results")
    for d in (tmp_dir, work_dir, results_dir):
        os.makedirs(d, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)

    binary = build(build_dir, env)

    short = args.tiny or args.seconds < bench["run_seconds"]
    mode = "short" if short else "full"
    stem = "%s-seed%d-%s%s" % (args.workload, args.seed, mode,
                               "-trace" if args.trace else "")
    trace_path = os.path.join(results_dir, stem + ".chrome.json")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir,
           "--digests", os.path.join(build_dir, "digests.tsv")]
    if args.trace:
        cmd += ["--trace-out", trace_path]
    if args.tiny:
        cmd += ["--tiny"]
    if args.inject_malformed:
        cmd += ["--inject-malformed"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=env, cwd=work_dir,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        fail("benchmark binary exited with code %d" % proc.returncode)
    info, measured, spans, checks = parse(proc.stdout)
    if checks is None:
        fail("benchmark binary printed no check totals")
    attempted, failed = checks
    measured["failed_frac"] = failed / attempted if attempted else 1.0

    # Every metric must be catalogued, and every catalogued metric of
    # this workload (per-layer ones in traced runs) must be measured.
    defs = catalogue["metrics"]
    unknown = sorted(set(measured) - set(defs))
    expected = sorted(
        n for n, d in defs.items()
        if args.workload in d["workloads"]
        and (args.trace or not d.get("trace")))
    missing = [n for n in expected if n not in measured]
    if unknown or missing:
        fail("metric mismatch: unknown %s, missing %s" % (unknown, missing))

    gated = bench["per_layer"] if args.trace else bench["end_to_end"]
    result_metrics = {}
    for m in gated:
        # Per-layer metrics of layers this workload does not run are 0.
        value = measured.get(m["name"], 0.0)
        result_metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    stamp = dict(info)
    stamp.update(git_rev=git_rev(), source_digest=source_digest(),
                 run_seconds=args.seconds, trace=args.trace, mode=mode)

    print("perfbench %s seed=%d mode=%s trace=%d" %
          (args.workload, args.seed, mode, args.trace))
    print("  " + "  ".join("%s=%s" % kv for kv in sorted(stamp.items())))
    print("%-30s %18s  %-9s %s" % ("metric", "value", "unit", "better"))
    shown = sorted(set(measured) | set(result_metrics),
                   key=lambda n: (defs[n]["kind"] != "end_to_end", n))
    for n in shown:
        d = defs[n]
        value = measured.get(n, 0.0)
        note = "" if n in measured else "  (layer not on this workload)"
        print("%-30s %18.6g  %-9s %s%s" %
              (n, value, d["unit"], d["better"], note))
    if args.trace:
        print("\nself time per traced pass (median over traced passes)")
        print("%-20s %8s %12s %12s" % ("span", "count", "total_s",
                                       "self_s"))
        for name, count, total, self_s in spans:
            print("%-20s %8d %12.6f %12.6f" % (name, count, total, self_s))
        overhead = measured["trace.overhead_s"]
        print("tracing overhead: %.6f s per pass (median over %s pairs "
              "of traced - untraced wall)" % (overhead, info["trace_pairs"]))
        print("tracer's own cost: %.6f s per pass (%s spans x %s ns)" %
              (measured["trace.direct_s"], info["spans_per_pass"],
               info["span_cost_ns"]))
        iqr = float(info["untraced_wall_iqr_s"])
        if abs(overhead) < iqr:
            print("warning: the measured overhead is within the untraced "
                  "passes' interquartile range (%.6f s), so it is host "
                  "noise rather than tracing cost" % iqr)
        print("chrome trace: %s" % os.path.relpath(trace_path, ROOT))
    print("checks: %d attempted, %d failed" % (attempted, failed))

    correct = failed == 0
    record = {"stamp": stamp, "correct": correct, "attempted": attempted,
              "failed": failed,
              "metrics": {n: {"value": measured[n],
                              "unit": defs[n]["unit"],
                              "better": defs[n]["better"]}
                          for n in sorted(measured)},
              "self_time": [{"span": s[0], "count": s[1], "total_s": s[2],
                             "self_s": s[3]} for s in spans]}
    with open(os.path.join(results_dir, stem + ".json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": result_metrics}))


if __name__ == "__main__":
    main()
