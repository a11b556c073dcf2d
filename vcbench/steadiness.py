#!/usr/bin/env python3
"""Steadiness and determinism report for the vcflight benchmark.

Run from the repository root:

    python3 vcbench/steadiness.py                      # 10 seeds, every workload
    python3 vcbench/steadiness.py --workloads campaign_cold --seeds 5
    python3 vcbench/steadiness.py --determinism 20110318

Steadiness: runs each workload once per seed (--trace 0) and prints, for
every end-to-end metric, the sample count, median and quartiles (Python's
statistics.quantiles, n=4) and the quartile spread as a share of the
median, against the metric's bound in BENCHMARK.json. A spread above the
bound fails; setup_s is reported but exempt, as its bound only limits the
median.

Determinism: runs each workload's traced run twice at one seed. The work
counters and the record digest must repeat exactly; a difference is a
determinism failure, not noise.

Exits 1 on any incorrect run, spread above its bound, or determinism
failure.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Per-layer metrics that count work: they must repeat exactly at one seed.
COUNTERS = (
    "pass.rtl_rounds", "pass.rewrites", "regalloc.spills",
    "validate.checks", "machine.insns", "machine.monitored_steps",
    "ilp.pivots", "ilp.bnb_nodes", "ilp.lp_vars", "ilp.lp_constraints",
    "support.allocs_per_job", "artifact.full_hits", "artifact.image_hits",
    "artifact.misses", "artifact.publishes", "service.memo_hit_ratio",
    "trace.jobs",
)


def run(workload, seed, seconds, trace):
    """One benchmark run; returns (result dict, record digest or None)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-3000:])
        return None, None
    digest = re.search(r"record digest ([0-9a-f]{32})", proc.stderr)
    return json.loads(lines[-1]), digest.group(1) if digest else None


def steadiness(bench, workloads, seeds, seconds):
    ok = True
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    for workload in workloads:
        values = {name: [] for name in bounds}
        for seed in seeds:
            result, _ = run(workload, seed, seconds, 0)
            if result is None or not result["correct"]:
                print("%s seed %d: run failed" % (workload, seed))
                ok = False
                continue
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.6g" % (n, result["metrics"][n]["value"])
                for n in bounds)), flush=True)
        print("\n%s: %d runs" % (workload, len(seeds)))
        print("  %-20s %4s %14s %14s %14s %8s %6s" % (
            "metric", "n", "median", "q1", "q3", "spread", "bound"))
        for name, metric in bounds.items():
            v = values[name]
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            verdict = ""
            if name != "setup_s" and spread > metric["bound"]:
                verdict = "ABOVE BOUND"
                ok = False
            elif name != "setup_s" and spread > metric["bound"] / 3:
                verdict = "above a third of the bound"
            print("  %-20s %4d %14.6g %14.6g %14.6g %8.4f %6.3f %s" % (
                name, len(v), med, q1, q3, spread, metric["bound"], verdict))
        print(flush=True)
    return ok


def determinism(workloads, seed, seconds):
    ok = True
    for workload in workloads:
        (a, da), (b, db) = (run(workload, seed, seconds, 1) for _ in range(2))
        if a is None or b is None or not (a["correct"] and b["correct"]):
            print("%s: traced run failed" % workload)
            ok = False
            continue
        drifted = [n for n in COUNTERS
                   if a["metrics"][n]["value"] != b["metrics"][n]["value"]]
        if da != db:
            drifted.append("record digest")
        print("%s seed %d: %s" % (
            workload, seed,
            "DETERMINISM FAILURE: " + ", ".join(drifted) if drifted else
            "counters and record digest identical (%s)" % da))
        ok = ok and not drifted
    return ok


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", type=int, default=10,
                        help="runs per workload, seeds 1..N")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--determinism", type=int, metavar="SEED",
                        help="check counter repeatability at SEED instead")
    args = parser.parse_args()
    if args.determinism is not None:
        ok = determinism(args.workloads, args.determinism, args.seconds)
    else:
        seeds = range(args.first_seed, args.first_seed + args.seeds)
        ok = steadiness(bench, args.workloads, list(seeds), args.seconds)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
