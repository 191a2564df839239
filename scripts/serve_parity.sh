#!/usr/bin/env bash
# Serving-cluster differential (run by ctest as `serve_parity`, and by CI
# on both simulator cores):
#
#   the `cluster` capacity-planning scenario must be bit-identical whether
#   the driver runs in 1 process or on a --pool 2 persistent fleet. The
#   serving replications are a discrete-event simulation fanned out on
#   the shared SweepEngine, so every K x batch x load cell — latency
#   percentiles, knee loads, preemption/eviction/batching totals — must
#   match byte for byte; only wall-clock-derived metrics may differ.
#
#   usage: scripts/serve_parity.sh <floretsim_run> [extra driver args...]
#
# Extra arguments (e.g. --core reference) are passed through to every
# driver invocation, so the parity contract can be pinned per simulator
# core.
set -eu

driver=$1
shift

out_dir=$(mktemp -d)
trap 'rm -rf "$out_dir"' EXIT

common="--only cluster --set max_requests=24 --set replications=2"

# shellcheck disable=SC2086
"$driver" $common --threads 2            "$@" --json "$out_dir/p1.json" \
    > "$out_dir/p1.log"
# shellcheck disable=SC2086
"$driver" $common --threads 1 --pool 2   "$@" --json "$out_dir/f2.json" \
    > "$out_dir/f2.log" 2> "$out_dir/f2.err"

python3 - "$out_dir/p1.json" "$out_dir/f2.json" <<'EOF'
import json, sys

p1_path, f2_path = sys.argv[1:3]
docs = {path: json.load(open(path)) for path in sys.argv[1:3]}

# Volatile-by-construction keys: wall-clock timings, the load-imbalance
# ratio derived from them, cache counters, and thread counts.
VOLATILE = ("seconds", "wall", "imbalance", "cache", "threads")

def strip(x):
    if isinstance(x, dict):
        return {k: strip(v) for k, v in x.items()
                if not any(t in k for t in VOLATILE)}
    if isinstance(x, list):
        return [strip(v) for v in x]
    return x

for path, doc in docs.items():
    assert doc["driver"]["scenarios_failed"] == 0, (
        f"{path}: {doc['driver']['scenarios_failed']} scenario(s) failed")
    assert set(doc["scenarios"]) == {"cluster"}, (
        f"{path}: expected exactly the cluster scenario")

base = strip(docs[p1_path]["scenarios"]["cluster"])
for path, doc in docs.items():
    got = strip(doc["scenarios"]["cluster"])
    assert got == base, (
        f"{path}: cluster scenario differs from the 1-process run:\n"
        f"  base: {json.dumps(base)[:400]}\n"
        f"  got:  {json.dumps(got)[:400]}")

# The run exercised the serving features the scenario exists to plan for.
metrics = docs[p1_path]["scenarios"]["cluster"]["metrics"]
assert metrics["serve_preemptions"] > 0, metrics
assert metrics["serve_batched_requests"] > 0, metrics
assert any(k.endswith("_knee_load") for k in metrics), metrics

print("serve parity ok: cluster capacity plan bit-identical across "
      "1 process and --pool 2 "
      f"(preemptions={metrics['serve_preemptions']}, "
      f"batched={metrics['serve_batched_requests']})")
EOF
