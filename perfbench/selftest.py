#!/usr/bin/env python3
"""The benchmark's own test.

Runs every workload in the tiny configuration, untraced and traced,
and checks that each run passes its output checks and prints every
metric of BENCHMARK.json and perfbench/metrics.json by name with its
unit. Then feeds one truncated serialized recording to the workloads
that parse recordings and checks it counts exactly once as a failed
operation instead of aborting the run.

    python3 perfbench/selftest.py        # from the repository root
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

problems = []


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "11", "--seconds", "1", "--trace",
           str(trace), "--tiny"] + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    label = "%s trace=%d %s" % (workload, trace, " ".join(extra))
    if proc.returncode != 0:
        problems.append("%s: exit %d\n%s" % (label, proc.returncode,
                                             proc.stderr[-2000:]))
        return label, None, ""
    lines = proc.stdout.strip().splitlines()
    return label, json.loads(lines[-1]), proc.stdout


def expect(cond, msg):
    if not cond:
        problems.append(msg)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "metrics.json")) as f:
        defs = json.load(f)["metrics"]

    for w in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            label, result, text = run(w, trace)
            if result is None:
                continue
            expect(result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1,
                   "%s: checks failed: %s" % (label, result))
            gated = bench["per_layer"] if trace else bench["end_to_end"]
            expect(set(result["metrics"]) == {m["name"] for m in gated},
                   "%s: result metrics differ from BENCHMARK.json" % label)
            for m in gated:
                got = result["metrics"].get(m["name"], {})
                expect(got.get("unit") == m["unit"],
                       "%s: %s printed without unit %s" %
                       (label, m["name"], m["unit"]))
            # The report prints every catalogued metric of the workload
            # as "<name> <value> <unit> <better>".
            for name, d in defs.items():
                if w not in d["workloads"] or (d.get("trace") and not trace):
                    continue
                row = r"^%s\s+\S+\s+%s\s+%s" % (
                    re.escape(name), re.escape(d["unit"]), d["better"])
                expect(re.search(row, text, re.M),
                       "%s: report lacks %s with unit %s" %
                       (label, name, d["unit"]))
            if trace:
                expect("tracing overhead:" in text
                       and "tracer's own cost:" in text,
                       "%s: no tracing overhead lines" % label)

    for w in ("suite_select", "serve_tenants"):
        label, result, _ = run(w, 0, "--inject-malformed")
        if result is None:
            continue
        expect(result["failed"] == 1 and result["attempted"] > 1
               and not result["correct"],
               "%s: malformed recording should fail exactly one of the "
               "operations, got %s" % (label, result))

    if problems:
        print("selftest FAILED:")
        for p in problems:
            print("  " + p)
        sys.exit(1)
    print("selftest passed")


if __name__ == "__main__":
    main()
