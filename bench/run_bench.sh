#!/usr/bin/env bash
# Reproducible micro-engine benchmark runner: builds the Release bench
# binary, runs the steady-state churn benchmarks and emits/updates
# BENCH_engine.json with events/sec, messages/sec and peak RSS, so every
# PR records the simulator-core perf trajectory.
#
# Usage:
#   bench/run_bench.sh                 # full run (7 repetitions)
#   BENCH_SMOKE=1 bench/run_bench.sh   # CI smoke: 1 repetition, tiny time
#   BENCH_LABEL=baseline bench/run_bench.sh   # record under a label
#                                             # (default: "current")
set -euo pipefail

cd "$(dirname "$0")/.."
REPO_ROOT=$(pwd)
BUILD_DIR=${BUILD_DIR:-build}
OUT=${BENCH_OUT:-$REPO_ROOT/BENCH_engine.json}
LABEL=${BENCH_LABEL:-current}
REPS=${BENCH_REPS:-7}
if [[ "${BENCH_SMOKE:-0}" != "0" ]]; then
  REPS=1
fi

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD_DIR" --target micro_engine fig03_matmul_blocksize \
  fig04_matmul_scaling fig06_bitonic_keys fig07_bitonic_scaling \
  fig08_barneshut_bodies fig09_barneshut_treebuild fig10_barneshut_force \
  fig11_barneshut_scaling abl_arity_bitonic abl_arity_matmul \
  abl_bounded_memory abl_embedding scenario_runner -j >/dev/null

GIT_SHA=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
CXX_BIN=$(sed -n 's/^CMAKE_CXX_COMPILER:[^=]*=//p' "$BUILD_DIR/CMakeCache.txt" | head -1)
COMPILER=$("${CXX_BIN:-c++}" --version 2>/dev/null | head -1 || echo unknown)

# Per-figure topology datapoints: "DATAPOINT <fig> topology=<shape>
# <field>=<x>" lines (field is at_fh_time for every bench with a fixed
# home leg), quick sweeps. The scaling figures (4/7) run on the torus
# leg; the parameter figures (3/6), the Barnes–Hut figures (8–11) and
# the ablations on the paper's own mesh, so their ratios are directly
# comparable against the published bars (see docs/benchmarks.md). The
# Barnes–Hut quick sweeps are the slow ones (~1 min each for 8/9/10,
# which share the sweep; ~30 s for 11) — the rest are a couple hundred
# ms to ~10 s.
FIG_DATA=$(
  for fig in fig04_matmul_scaling fig07_bitonic_scaling; do
    DIVA_QUICK=1 DIVA_TOPOLOGY=torus2d "$BUILD_DIR/bench/$fig" | grep '^DATAPOINT'
  done
  for fig in fig03_matmul_blocksize fig06_bitonic_keys \
             fig08_barneshut_bodies fig09_barneshut_treebuild \
             fig10_barneshut_force fig11_barneshut_scaling \
             abl_arity_bitonic abl_arity_matmul abl_bounded_memory \
             abl_embedding; do
    DIVA_QUICK=1 DIVA_TOPOLOGY=mesh2d "$BUILD_DIR/bench/$fig" | grep '^DATAPOINT'
  done
)

# Saturation sweep (docs/serving.md): open-loop Poisson rungs over the
# committed hotspot scenario, both strategies — "SWEEP rung=..." lines
# with achieved rate and p99 latency per offered rate.
SWEEP_DATA=$("$BUILD_DIR/tools/scenario_runner" scenarios/hotspot.scenario \
  --sweep 2e3:6.4e4:6 | grep '^SWEEP')

# Elastic sweep (docs/faults.md "Reconfiguration"): the same offered-rate
# ladder over the committed elastic scenario, whose phases grow, rewire
# and shrink the machine mid-run — each rung reports availability next to
# p99, so the latency-vs-availability trade of serving through
# reconfiguration is recorded per PR.
ELASTIC_SWEEP_DATA=$("$BUILD_DIR/tools/scenario_runner" scenarios/elastic.scenario \
  --sweep 1e4:4e4:3 | grep '^SWEEP')

BIN="$BUILD_DIR/bench/micro_engine" RAW="$BUILD_DIR/bench_raw.json" \
OUT="$OUT" LABEL="$LABEL" REPS="$REPS" GIT_SHA="$GIT_SHA" COMPILER="$COMPILER" \
FIG_DATA="$FIG_DATA" SWEEP_DATA="$SWEEP_DATA" \
ELASTIC_SWEEP_DATA="$ELASTIC_SWEEP_DATA" \
python3 - <<'EOF'
import json, os, resource, statistics, subprocess, sys

bin_path = os.environ["BIN"]
raw_path = os.environ["RAW"]
out_path = os.environ["OUT"]
label = os.environ["LABEL"]
reps = os.environ["REPS"]

cmd = [
    bin_path,
    "--benchmark_filter=BM_EngineEventChurn|BM_NetworkMessageChurn"
    "|BM_NetworkMessageChurnTorus|BM_NetworkMessageChurnGraph"
    "|BM_HierRoutingMessageChurn|BM_HierRoutingAppendRoute"
    "|BM_WorkloadZipfChurn|BM_WorkloadTraced|BM_WorkloadChurn"
    "|BM_WorkloadReconfig|BM_WorkloadOpenLoop",
    f"--benchmark_repetitions={reps}",
    # Keep every repetition in the output file (the console shows only the
    # aggregates): the spread below is computed from them.
    "--benchmark_display_aggregates_only=true",
    f"--benchmark_out={raw_path}",
    "--benchmark_out_format=json",
]
subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
peak_rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

with open(raw_path) as f:
    raw = json.load(f)

def bench(name):
    # single-repetition runs emit the plain name, aggregate runs the _mean
    for suffix in ("_mean", ""):
        for b in raw["benchmarks"]:
            if b["name"] == name + suffix:
                return b
    raise SystemExit(f"benchmark {name} missing from output")

# Spread of every rate recorded below, by benchmark name: the median and
# min/max items/s over the repetitions, beside the mean the entry keeps.
spread = {}

def rate(name):
    runs = sorted(b["items_per_second"] for b in raw["benchmarks"]
                  if b["name"] == name and b.get("run_type") == "iteration")
    spread[name] = {"median": round(statistics.median(runs)),
                    "min": round(runs[0]), "max": round(runs[-1])}
    return bench(name)["items_per_second"]

figures = {}
for line in os.environ.get("FIG_DATA", "").splitlines():
    parts = line.split()
    if not parts or parts[0] != "DATAPOINT":
        continue
    fields = dict(kv.split("=", 1) for kv in parts[2:])
    # topology stays a string; every other field is a numeric ratio
    # (at_fh_time for most benches, random_regular_time for the
    # embedding ablation — see bench_common.hpp printDatapoint).
    figures[parts[1]] = {
        k: (v if k == "topology" else float(v)) for k, v in fields.items()
    }

# Saturation-sweep rungs (offered vs achieved req/s + p99 latency +
# availability per strategy) from scenario_runner --sweep runs.
def parse_sweep(env_name):
    rungs = []
    for line in os.environ.get(env_name, "").splitlines():
        parts = line.split()
        if not parts or parts[0] != "SWEEP":
            continue
        fields = dict(kv.split("=", 1) for kv in parts[1:])
        rungs.append({
            "offered_per_sec": float(fields["offered"]),
            "access_tree": {"achieved_per_sec": float(fields["at_achieved"]),
                            "p99_us": float(fields["at_p99_us"]),
                            "availability": float(fields["at_avail"])},
            "fixed_home": {"achieved_per_sec": float(fields["fh_achieved"]),
                           "p99_us": float(fields["fh_p99_us"]),
                           "availability": float(fields["fh_avail"])},
        })
    return rungs

sweep = parse_sweep("SWEEP_DATA")
elastic_sweep = parse_sweep("ELASTIC_SWEEP_DATA")

mesh = bench("BM_NetworkMessageChurn")
entry = {
    "events_per_sec": round(rate("BM_EngineEventChurn")),
    "messages_per_sec": round(rate("BM_NetworkMessageChurn")),
    "torus_messages_per_sec": round(rate("BM_NetworkMessageChurnTorus")),
    "graph_messages_per_sec": round(rate("BM_NetworkMessageChurnGraph")),
    # Same graph, routed by the hierarchical landmark-ball scheme instead
    # of the dense all-pairs table (docs/routing.md): tracks the per-hop
    # lookup overhead plus the stretch the compact state costs.
    "hier_routing_messages_per_sec": round(rate("BM_HierRoutingMessageChurn")),
    # Route computations/s on a 1024-node random-regular graph — a size
    # where only the hierarchical router exists (dense caps at 4096 and
    # would burn 4 GB at 32k).
    "hier_routing_routes_per_sec": round(rate("BM_HierRoutingAppendRoute")),
    # Full-protocol-stack churn (strategy + locks + barriers) driven by
    # the synthetic-workload subsystem; see bench/micro_engine.cpp.
    "workload_messages_per_sec": round(rate("BM_WorkloadZipfChurn")),
    # The identical workload with an enabled all-categories tracer
    # attached (docs/observability.md): the ratio to the line above is
    # the traced-run recording overhead.
    "workload_traced_messages_per_sec": round(rate("BM_WorkloadTraced")),
    # Same workload with per-phase link flaps and a processor
    # crash/recover: detour BFS, crash repair and availability retries on
    # the measured path (docs/faults.md).
    "workload_churn_messages_per_sec": round(rate("BM_WorkloadChurn")),
    # Elastic churn: structural reconfiguration (add/remove node, rewire)
    # on a graph-backed machine under zipf load — epoch delivery, tree
    # re-decomposition, state migration and handoff forwarding all on the
    # measured path (docs/faults.md "Reconfiguration").
    "workload_reconfig_messages_per_sec": round(rate("BM_WorkloadReconfig")),
    # Open-loop serving churn (scheduled Poisson arrivals below the knee,
    # latency histogram on the hot path — docs/serving.md); the p99 is
    # simulated µs, a model property pinned against drift, not host time.
    "workload_openloop_messages_per_sec": round(rate("BM_WorkloadOpenLoop")),
    "workload_openloop_p99_us": round(bench("BM_WorkloadOpenLoop")["p99_us"], 2),
    # Share of the open-loop run's pushes that took the O(1) bucket ring:
    # a deterministic count ratio. A queue whose ring the pre-loaded
    # arrival burst can mis-size drops to a few percent (docs/architecture.md).
    "workload_openloop_ring_push_share":
        round(bench("BM_WorkloadOpenLoop")["ring_push_share"], 4),
    # Derived pipeline metric + event-queue tier occupancy, from the mesh
    # churn's benchmark counters (see docs/benchmarks.md).
    "events_per_message": round(mesh["events_per_message"], 2),
    "queue": {
        "bucket_width_us": round(mesh["bucket_width_us"], 3),
        "ring_push_share": round(mesh["ring_push_share"], 4),
        "overflow_push_share": round(mesh["overflow_push_share"], 6),
    },
    "spread": spread,
    "peak_rss_kb": peak_rss_kb,
    "repetitions": int(reps),
    "topology": {
        "messages_per_sec": "mesh2d-8x8",
        "torus_messages_per_sec": "torus2d-8x8",
        "graph_messages_per_sec": "graph-rr64d3s1",
        "hier_routing_messages_per_sec": "graph-rr64d3s1-hier16",
        "hier_routing_routes_per_sec": "graph-rr1024d4s3-hier16",
        "workload_messages_per_sec": "mesh2d-8x8 zipf-churn (access tree)",
        "workload_traced_messages_per_sec":
            "mesh2d-8x8 zipf-churn (access tree), tracer enabled (all cats)",
        "workload_churn_messages_per_sec":
            "mesh2d-8x8 zipf-churn + link flaps + node crash (access tree)",
        "workload_reconfig_messages_per_sec":
            "graph-rr64d3s1 zipf + grow/rewire/shrink reconfig (access tree)",
        "workload_openloop_messages_per_sec":
            "mesh2d-8x8 open-loop poisson 2k req/s (access tree)",
    },
    "figures": figures,
    # Offered-rate ladder over scenarios/hotspot.scenario, both
    # strategies (scenario_runner --sweep; docs/serving.md).
    "saturation_sweep": sweep,
    # Same ladder over scenarios/elastic.scenario — p99 vs availability
    # while the machine grows, rewires and shrinks under load
    # (docs/faults.md "Reconfiguration").
    "elastic_sweep": elastic_sweep,
    "git_sha": os.environ.get("GIT_SHA", "unknown"),
    "compiler": os.environ.get("COMPILER", "unknown"),
}

doc = {}
if os.path.exists(out_path):
    with open(out_path) as f:
        doc = json.load(f)
doc.setdefault("benchmark", "micro_engine steady-state churn "
               "(BM_EngineEventChurn / BM_NetworkMessageChurn)")
doc[label] = entry
base = doc.get("baseline")
cur = doc.get("current")
if base and cur:
    doc["speedup"] = {
        "events": round(cur["events_per_sec"] / base["events_per_sec"], 2),
        "messages": round(cur["messages_per_sec"] / base["messages_per_sec"], 2),
    }
with open(out_path, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(f"{label}: {entry['events_per_sec']:,} events/s, "
      f"{entry['messages_per_sec']:,} messages/s, peak RSS {peak_rss_kb} KB")
EOF
