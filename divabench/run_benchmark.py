#!/usr/bin/env python3
"""Host-time benchmark of the DIVA simulator (divabench/README.md).

Builds divabench/diva_bench from source into .bench_build/diva, runs each
workload in its own process, prints every metric with its unit, checks the
outputs and prints one JSON result object as the last line of stdout.

    python3 divabench/run_benchmark.py                  # every workload
    python3 divabench/run_benchmark.py --workload read_hot --seed 3
    python3 divabench/run_benchmark.py --trace 1        # per-layer metrics

Metric names, units and bounds come from BENCHMARK.json at the repository
root. --trace 1 reports the per-layer metrics instead of the end-to-end
ones and writes <workload>.host-trace.json into --trace-dir. Exit codes:
0 every check passed, 1 a check failed, 2 bad usage, 3 the build failed.
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
BUILD_DIR = os.path.join(ROOT, ".bench_build", "diva")
BINARY = os.path.join(BUILD_DIR, "diva_bench")
PINNED = os.path.join(HERE, "pinned_digests.json")
# Digests are pinned for this seed only; other seeds check determinism
# across reps but have no reference.
PINNED_SEED = 1
RUN_TIMEOUT_S = 170


def load_manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", BUILD_DIR, "--target", "diva_bench", "-j", jobs]):
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True)


def ratio(a, b):
    return a / b if b else 0.0


def end_to_end(raw):
    """Metric name -> list of samples; the reported value is their median."""
    reps = raw["reps"]
    return {
        "wall_s": [r["wall_s"] for r in reps],
        "setup_s": raw["setup_samples"],
        "at_ops_per_s": [r["at_ops"] / r["at_run_s"] for r in reps],
        "fh_ops_per_s": [r["fh_ops"] / r["fh_run_s"] for r in reps],
        "peak_rss_mb": [raw["peak_rss_mb"]],
        "ops_served_frac": [ratio(raw["served"], raw["offered"])],
    }


def per_layer(L):
    """The ladder arithmetic of README "Ladder" on one strategy's raw numbers."""
    sim, far, near, diva = L["sim_rung"], L["net_rung"], L["net_rung_near"], L["diva_rung"]
    s_event = sim["s"] / sim["events"]
    # Net self cost = a per message + b per link crossing, solved from the
    # random-destination and the neighbour-destination relay rungs.
    y_far = far["s"] - far["events"] * s_event
    y_near = near["s"] - near["events"] * s_event
    det = far["msgs"] * near["crossings"] - near["msgs"] * far["crossings"]
    a = (y_far * near["crossings"] - y_near * far["crossings"]) / det
    b = (far["msgs"] * y_near - near["msgs"] * y_far) / det

    def net_s(rung):
        return a * rung["msgs"] + b * rung["crossings"]

    s_op = (diva["s"] - diva["events"] * s_event - net_s(diva)) / diva["ops"]
    run = L["run_s"]
    sim_frac = L["events"] * s_event / run
    net_frac = net_s(L) / run
    diva_frac = L["ops"] * s_op / run
    pushes = L["ring_pushes"] + L["sorted_pushes"] + L["overflow_pushes"]
    return {
        "sim.events": L["events"],
        "sim.events_per_msg": ratio(L["events"], L["msgs"]),
        "sim.ns_per_event": s_event * 1e9,
        "sim.frac": sim_frac,
        "sim.ring_push_share": ratio(L["ring_pushes"], pushes),
        "sim.overflow_push_share": ratio(L["overflow_pushes"], pushes),
        "net.msgs": L["msgs"],
        "net.link_crossings": L["crossings"],
        "net.hops_per_msg": ratio(L["crossings"], L["msgs"]),
        "net.ns_per_msg": ratio(net_s(L), L["msgs"]) * 1e9,
        "net.frac": net_frac,
        "net.route_ns": L["route_ns"],
        "net.topology_build_s": L["machine_s"],
        "net.rerouted": L["rerouted"],
        "net.parked": L["parked"],
        "diva.runtime_build_s": L["runtime_s"],
        "diva.ns_per_op": s_op * 1e9,
        "diva.frac": diva_frac,
        "diva.reads": L["reads"],
        "diva.read_hit_ratio": ratio(L["read_hits"], L["reads"]),
        "diva.writes": L["writes"],
        "diva.invalidations": L["invalidations"],
        "diva.locks": L["locks"],
        "diva.msgs_per_op": ratio(L["msgs"], L["ops"]),
        "diva.recovery_msgs": L["recovery_msgs"],
        "diva.repaired_vars": L["repaired_vars"],
        "diva.migration_msgs": L["migration_msgs"],
        "diva.migrated_vars": L["migrated_vars"],
        "diva.epochs": L["epochs"],
        "workload.frac": 1.0 - sim_frac - net_frac - diva_frac,
        "workload.retried_ops": L["retried_ops"],
        "workload.failed_ops": L["failed_ops"],
        "workload.forwarded_ops": L["forwarded_ops"],
        "serve.arrivals_build_s": L["arrivals_build_s"],
        "serve.arrived": L["arrived"],
        "serve.dropped": L["dropped"],
        "serve.late": L["late"],
        "serve.max_in_flight": L["max_in_flight"],
        "serve.p99_sim_us": L["p99_sim_us"],
        "obs.trace_records": L["trace_records"],
        "obs.trace_overhead": L["traced_run_s"] / run,
        "obs.export_s": L["export_s"],
        "obs.trace_mb": L["trace_bytes"] / 1e6,
    }


def run_workload(name, args, manifest, pinned):
    """Run one workload's process; returns (metrics, attempted, failed, errors)."""
    scenario = os.path.join(HERE, "workloads", name + ".scenario")
    cmd = [BINARY, scenario, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    trace_file = None
    if args.trace:
        os.makedirs(args.trace_dir, exist_ok=True)
        trace_file = os.path.join(args.trace_dir, name + ".host-trace.json")
        cmd += ["--trace", "--host-trace", trace_file]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {}, 1, 1, [f"{name}: no result within {RUN_TIMEOUT_S} s"]
    lines = proc.stdout.strip().splitlines()
    try:
        raw = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {}, 1, 1, [f"{name}: diva_bench exited {proc.returncode} without a result"]
    errors = [f"{name}: {e}" for e in raw["errors"]]
    if proc.returncode != 0 and not errors:
        errors.append(f"{name}: diva_bench exited {proc.returncode}")
    if args.seed == PINNED_SEED:
        want = pinned.get(name)
        if want != raw["digests"]:
            errors.append(f"{name}: report digests {raw['digests']} differ from the "
                          f"pinned {want} (a speed-only change must keep them)")

    metrics = {}
    if args.trace:
        units = {m["name"]: m["unit"] for m in manifest["per_layer"]}
        try:
            for strategy, layers in raw.get("layers", {}).items():
                for base, value in per_layer(layers).items():
                    metrics[f"{base}.{strategy}"] = ([value], units[f"{base}.{strategy}"])
        except ZeroDivisionError:
            errors.append(f"{name}: a ladder rung did no work (run too small)")
        if set(metrics) != set(units):
            errors.append(f"{name}: per-layer metrics differ from BENCHMARK.json")
        try:
            with open(trace_file) as f:
                json.load(f)["traceEvents"]
        except (OSError, ValueError, KeyError) as e:
            errors.append(f"{name}: host trace {trace_file} unreadable: {e}")
    else:
        units = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
        for base, samples in end_to_end(raw).items():
            metrics[base] = (samples, units[base])
    return metrics, raw["legs"], raw["failed_legs"], errors


def main():
    manifest = load_manifest()
    names = [w["name"] for w in manifest["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names, help="run one workload (default: all)")
    ap.add_argument("--seed", type=int, default=PINNED_SEED)
    ap.add_argument("--seconds", type=float, default=manifest["run_seconds"],
                    help="host-time budget of each workload's reps")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: per-layer ladder, obs tracer and host trace")
    ap.add_argument("--trace-dir", default=os.path.join(ROOT, ".bench_build", "traces"))
    args = ap.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run_benchmark: build failed: {e}", file=sys.stderr)
        return 3
    with open(PINNED) as f:
        pinned = json.load(f)

    selected = [args.workload] if args.workload else names
    start = time.monotonic()
    out_metrics, attempted, failed, errors = {}, 0, 0, []
    for name in selected:
        metrics, a, f, errs = run_workload(name, args, manifest, pinned)
        attempted += a
        failed += f
        errors += errs
        print(f"{name} (seed {args.seed})")
        for metric, (samples, unit) in metrics.items():
            value = statistics.median(samples)
            spread = (f"  min {min(samples):.6g}  max {max(samples):.6g}  n {len(samples)}"
                      if len(samples) > 1 else "")
            print(f"  {metric:28s} {value:14.6g} {unit:8s}{spread}")
            key = metric if args.workload else f"{name}/{metric}"
            out_metrics[key] = {"value": value, "unit": unit}
    if not args.workload:
        print(f"set finished in {time.monotonic() - start:.1f} s")
    for e in errors:
        print(f"CHECK FAILED {e}", file=sys.stderr)
    correct = not errors
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
