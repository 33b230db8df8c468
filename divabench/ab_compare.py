#!/usr/bin/env python3
"""Interleaved A/B of two source trees on the benchmark (divabench/README.md).

    python3 divabench/ab_compare.py PARENT CHANGE [--pairs 10]
            [--workload NAME ...] [--seconds S] [--first-seed N]

PARENT and CHANGE are checkouts that both hold divabench/; each builds its
own .bench_build. Pair i runs both sides on seed first-seed + i, the parent
first on even pairs and the change first on odd ones, so drift on a shared
machine hits both sides alike. For every end-to-end metric in CHANGE's
BENCHMARK.json the script prints one row per workload: each side's median
and quartiles, the share of pairs the change won (ties count for neither)
and a verdict:

  unresolved   the parent's quartile spread exceeds the metric's bound and
               not every change run beats every parent run
  regression   the change's median is worse than the parent's by more than
               the bound
  gain         the change won at least 9/10 of at least 10 pairs and the
               medians differ by more than the parent's quartile spread
  same         none of the above

Exit code 1 when any run failed its checks or any metric regressed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_side(tree, workload, seed, seconds):
    cmd = ["python3", os.path.join("divabench", "run_benchmark.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}}
    ok = result["correct"] and proc.returncode == 0
    if not ok:
        sys.stderr.write(proc.stderr)  # build output and failed checks
    return ok, result["metrics"]


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    return tuple(statistics.quantiles(xs, n=4))


def verdict(parent, change, bound, higher_is_better, pairs):
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    better = (lambda c, p: c > p) if higher_is_better else (lambda c, p: c < p)
    wins = sum(better(c, p) for p, c in zip(parent, change))
    dominates = all(better(c, p) for c in change for p in parent)
    worse_by = (pm - cm if higher_is_better else cm - pm) / pm if pm else 0.0
    if pm and (p3 - p1) / pm > bound and not dominates:
        label = "unresolved"
    elif worse_by > bound:
        label = "regression"
    elif pairs >= 10 and wins >= 0.9 * pairs and abs(cm - pm) > p3 - p1 and better(cm, pm):
        label = "gain"
    else:
        label = "same"
    return wins, label


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workload", action="append", help="repeatable (default: all)")
    ap.add_argument("--seconds", type=float, help="default: BENCHMARK.json run_seconds")
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    workloads = args.workload or [w["name"] for w in manifest["workloads"]]
    seconds = args.seconds or manifest["run_seconds"]
    sides = {"parent": args.parent, "change": args.change}

    samples = {}  # (workload, side) -> metric -> [values]
    failed_runs = []
    for w in workloads:
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                ok, metrics = run_side(sides[side], w, seed, seconds)
                print(f"{w} pair {i} seed {seed} {side}: {'ok' if ok else 'FAILED'}",
                      file=sys.stderr, flush=True)
                if not ok:
                    failed_runs.append(f"{w} seed {seed} {side}")
                for name, m in metrics.items():
                    samples.setdefault((w, side), {}).setdefault(name, []).append(m["value"])

    regressed = False
    for metric in manifest["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        higher = metric["better"] == "higher"
        print(f"\n{name} ({metric['unit']}, {metric['better']} is better, bound {bound:.0%})")
        print(f"  {'workload':14s} {'parent median [q1, q3]':34s} "
              f"{'change median [q1, q3]':34s} {'won':>7s}  verdict")
        for w in workloads:
            parent = samples.get((w, "parent"), {}).get(name, [])
            change = samples.get((w, "change"), {}).get(name, [])
            if not parent or len(parent) != len(change):
                print(f"  {w:14s} missing runs")
                continue
            p1, pm, p3 = quartiles(parent)
            c1, cm, c3 = quartiles(change)
            wins, label = verdict(parent, change, bound, higher, len(parent))
            regressed |= label == "regression"
            p_cell = f"{pm:.6g} [{p1:.6g}, {p3:.6g}]"
            c_cell = f"{cm:.6g} [{c1:.6g}, {c3:.6g}]"
            print(f"  {w:14s} {p_cell:34s} {c_cell:34s} {wins:3d}/{len(parent):<3d}  {label}")
    if args.pairs < 10:
        print("\nfewer than 10 pairs: no gain can be claimed")
    for r in failed_runs:
        print(f"run failed its checks: {r}", file=sys.stderr)
    return 1 if failed_runs or regressed else 0


if __name__ == "__main__":
    sys.exit(main())
