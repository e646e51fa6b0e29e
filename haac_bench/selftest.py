#!/usr/bin/env python3
"""Fast self-test of haac_bench (about two minutes on 4 vCPUs).

Run from the root of the repository:

    python3 haac_bench/selftest.py

On every workload, at a one-second run length, it checks that:

  - the untraced run prints exactly the end_to_end metrics of
    BENCHMARK.json, each with its unit, and the traced run exactly the
    per_layer metrics;
  - every checked output is correct and the serve hit ratios are 1;
  - an injected wrong expected bit is counted: failed >= 1,
    correct false, exit code 1;
  - the exact counts (units "count" and "B") of the traced run are the
    same for two seeds, since garbled circuits are data-oblivious.

Exits 0 when every check passes, 1 otherwise.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
EXACT_UNITS = ("count", "B")
failures = []


def run(workload, seed, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace)] + list(extra)
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, result


def expect(ok, what):
    print("  %s %s" % ("ok  " if ok else "FAIL", what))
    if not ok:
        failures.append(what)


def check_shape(workload, trace, code, result, metrics_key):
    want = {m["name"]: m["unit"] for m in SPEC[metrics_key]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    expect(code == 0 and result["correct"] and result["failed"] == 0,
           "%s trace=%d: correct, exit 0" % (workload, trace))
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           "%s trace=%d: result keys" % (workload, trace))
    expect(got == want, "%s trace=%d: every %s metric with its unit%s" % (
        workload, trace, metrics_key,
        "" if got == want else " (diff: %s)" % sorted(
            set(got.items()) ^ set(want.items()))))


def main():
    for w in (x["name"] for x in SPEC["workloads"]):
        print(w)
        code, res = run(w, 1, 0)
        check_shape(w, 0, code, res, "end_to_end")

        code, first = run(w, 1, 1)
        check_shape(w, 1, code, first, "per_layer")
        for name in ("serve.pool_hit_ratio",
                     "serve.component_pool_hit_ratio"):
            expect(first["metrics"][name]["value"] == 1,
                   "%s: %s is 1" % (w, name))

        _, second = run(w, 2, 1)
        exact = sorted(k for k, v in first["metrics"].items()
                       if v["unit"] in EXACT_UNITS)
        drift = [k for k in exact if first["metrics"][k]["value"] !=
                 second["metrics"][k]["value"]]
        expect(not drift, "%s: %d exact counts equal for seeds 1 and 2%s"
               % (w, len(exact), " (drift: %s)" % drift if drift else ""))

        code, res = run(w, 1, 0, "--inject-fault")
        expect(code == 1 and res is not None and not res["correct"] and
               res["failed"] >= 1,
               "%s: injected wrong expected bit counted as failed" % w)

    print("selftest: %s" % ("FAILED: %d checks" % len(failures)
                            if failures else "all checks passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
