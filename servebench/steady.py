#!/usr/bin/env python3
"""Steadiness check: runs each workload repeatedly and judges the spread.

    python3 servebench/steady.py --json first.json
    python3 servebench/steady.py --baseline first.json

Run it from the root of the repository. Every workload of BENCHMARK.json
runs RUNS times for its run_seconds, with seeds 1 to RUNS. For every
end-to-end metric it prints the median, the first and third quartiles
(statistics.quantiles, n=4), the spread (Q3 - Q1) / median, the metric's
bound, and whether the spread is within the bound and within a third of
it. It also prints the share of failed operations per workload and the
host fingerprint; with --json it writes every run's figures to a file.
With --baseline (a file an earlier --json wrote) it also judges each median
against the baseline's: no worse by more than the metric's bound. It exits
with 0 only if every run was correct, no operation failed, every spread is
within its bound and no median is worse than the baseline's by more than
the bound.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit("run failed (%s, seed %d):\n%s" % (workload, seed,
                                                    done.stderr[-2000:]))
    return json.loads(lines[-1]), done.stderr


def fingerprint(stderr):
    simd = "unknown"
    for line in stderr.splitlines():
        if "simd path" in line:
            simd = line.split("simd path")[-1].strip()
    cxx = subprocess.run(["c++", "--version"], stdout=subprocess.PIPE,
                         text=True).stdout.splitlines()
    return {"nproc": os.cpu_count(), "simd_path": simd,
            "compiler": cxx[0] if cxx else "unknown",
            "build_type": "Release", "machine": platform.machine()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--json", help="write every run's figures here")
    ap.add_argument("--baseline", help="an earlier --json file to compare with")
    args = ap.parse_args()
    baseline = None
    if args.baseline:
        with open(args.baseline) as f:
            baseline = json.load(f)["runs"]

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    record = {"runs": {}}
    all_ok = True
    for w in workloads:
        results = []
        for seed in range(1, RUNS + 1):
            res, stderr = run_once(w, seed, seconds)
            results.append(res)
            if "fingerprint" not in record:
                record["fingerprint"] = fingerprint(stderr)
        record["runs"][w] = results
        shares = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        print("%s: %d runs, correct=%s, failed share=%s" %
              (w, len(results), correct, sorted(shares)))
        print("  %-24s %12s %12s %12s %8s %6s  %-12s %s" %
              ("metric", "median", "q1", "q3", "spread", "bound", "verdict",
               "vs baseline" if baseline else ""))
        for name, spec in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            bound = spec["bound"]
            verdict = ("steady" if spread < bound / 3 else
                       "within bound" if spread <= bound else "TOO WIDE")
            if spread > bound:
                all_ok = False
            drift = ""
            if baseline and w in baseline:
                base = statistics.median(r["metrics"][name]["value"]
                                         for r in baseline[w])
                worse = (med - base if spec["better"] == "lower"
                         else base - med) / base
                drift = "%+.4f %s" % (worse, "ok" if worse <= bound else "WORSE")
                if worse > bound:
                    all_ok = False
            print("  %-24s %12.6g %12.6g %12.6g %8.4f %6.2f  %-12s %s" %
                  (name, med, q1, q3, spread, bound, verdict, drift))
        all_ok = all_ok and correct and max(shares) == 0
    print("host:", json.dumps(record.get("fingerprint", {})))
    if args.json:
        with open(args.json, "w") as f:
            json.dump(record, f, indent=1)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
