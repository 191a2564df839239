#!/usr/bin/env bash
# Persistent-fleet differential (run by ctest as `fleet_parity`, and by
# CI on both simulator cores):
#
#   the full registry's merged report must be bit-identical whether the
#   sweeps run in 1 process or on a --pool 4 persistent fleet — and it
#   must STAY bit-identical when one fleet worker is SIGKILLed mid-run
#   (the coordinator restarts it and leases its un-acked points to the
#   new incarnation as one lease). Only
#   wall-clock-derived metrics (point timings, cache counters, thread
#   counts) may differ; every table cell and derived metric must match
#   byte for byte. The full registry runs, so the fleet path is exercised
#   against spec-driven sweeps (fig3/fig5/table2/ablation_scaling:
#   distributed) AND map()-driven scenarios (fig4/serving/fig6:
#   coordinator-local) in the same document.
#
# Every full-registry run also pins the driver's sweep memo: fig3, fig5
# and table2 sweep one spec, so the driver reports 2 memo hits and 1 miss
# (a spec edit that silently splits them fails here), and under --pool 4
# fig5 and table2 send the workers nothing (0 rows and 0 leases in
# driver.fleet.per_scenario) while their reports still match.
#
# A lease is a worker's whole placed share of a sweep, so the clean fleet
# run issues at most one lease per worker per sweep, and the kill run at
# most one more per death (the restarted worker's requeued points).
#
# A second, smaller pass pins the whole point of a *persistent* fleet:
# fig3 and a copy of it with another run_seed (a different spec, so the
# memo misses) share an arch grid; run on a warm pool, they must build
# every fabric exactly once during the first scenario and none during the
# second (per-scenario fleet fabric_misses 4 then 0). Placement does not
# depend on timing, so these counts are exact.
#
#   usage: scripts/fleet_parity.sh <floretsim_run> [extra driver args...]
#
# Extra arguments (e.g. --core reference) are passed through to every
# driver invocation, so the parity contract can be pinned per simulator
# core.
#
# Every fleet run gets a fresh, empty TMPDIR, which must be empty again
# when the run exits: the coordinator removes its scratch directory even
# after a worker was SIGKILLed.
set -eu

driver=$1
shift

out_dir=$(mktemp -d)
trap 'rm -rf "$out_dir"' EXIT

common="--set grid=8x8 --set traffic_scale=1/128 \
        --set max_requests=16 --set replications=1 --set iterations=40"

# Makes the fresh TMPDIR for one fleet run and prints its path.
fresh_tmp() {
    mkdir "$out_dir/tmp.$1"
    echo "$out_dir/tmp.$1"
}

# Fails if a fleet run left anything in its TMPDIR.
expect_no_scratch() {
    if [ -n "$(ls -A "$1")" ]; then
        echo "fleet run left scratch behind in $1:" >&2
        ls -lAR "$1" >&2
        exit 1
    fi
}

# shellcheck disable=SC2086
"$driver" $common --threads 2            "$@" --json "$out_dir/p1.json" \
    > "$out_dir/p1.log"
tmp=$(fresh_tmp f4)
# shellcheck disable=SC2086
TMPDIR=$tmp \
    "$driver" $common --threads 1 --pool 4 "$@" --json "$out_dir/f4.json" \
    > "$out_dir/f4.log" 2> "$out_dir/f4.err"
expect_no_scratch "$tmp"
# Same fleet run, but worker 1's first incarnation SIGKILLs itself after
# its 3rd row: the report must not change at all.
tmp=$(fresh_tmp f4k)
# shellcheck disable=SC2086
TMPDIR=$tmp FLORETSIM_FLEET_KILL="1:0:3" \
    "$driver" $common --threads 1 --pool 4 "$@" --json "$out_dir/f4k.json" \
    > "$out_dir/f4k.log" 2> "$out_dir/f4k.err"
expect_no_scratch "$tmp"

# Warm-affinity pass: fig3 and fig3 with run_seed 2 share the 6x6 arch
# grid (both get the --set overrides). Placement keeps every fabric group
# on the worker that holds it, so the second scenario must be a pure cache
# hit fleetwide.
cat > "$out_dir/reseeded.json" <<'JSON'
{"scenario": "fig3", "name": "fig3_reseeded",
 "spec": {"archs": ["kite", "siam", "swap", "floret"],
          "mixes": ["WL1", "WL2", "WL3", "WL4", "WL5"],
          "greedy_max_gap": 2, "run_seed": 2}}
JSON
tmp=$(fresh_tmp warm)
# shellcheck disable=SC2086
TMPDIR=$tmp \
    "$driver" --only fig3 --spec "$out_dir/reseeded.json" --set grid=6x6 \
    --set traffic_scale=1/512 --threads 1 --pool 2 "$@" \
    --json "$out_dir/warm.json" \
    > "$out_dir/warm.log" 2> "$out_dir/warm.err"
expect_no_scratch "$tmp"

python3 - "$out_dir/p1.json" "$out_dir/f4.json" "$out_dir/f4k.json" \
    "$out_dir/warm.json" <<'EOF'
import json, sys

p1_path, f4_path, f4k_path, warm_path = sys.argv[1:5]
docs = {path: json.load(open(path)) for path in sys.argv[1:4]}

# Volatile-by-construction keys: wall-clock timings, the load-imbalance
# ratio derived from them, cache counters (distributed sweeps run on
# worker caches, not the coordinator's), and thread counts.
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
    assert set(doc["scenarios"]) == set(docs[p1_path]["scenarios"]), (
        f"{path}: scenario set differs")

base = strip(docs[p1_path]["scenarios"])
for path, doc in docs.items():
    got = strip(doc["scenarios"])
    for name in base:
        assert got[name] == base[name], (
            f"{path}: scenario {name} differs from the 1-process run:\n"
            f"  base: {json.dumps(base[name])[:400]}\n"
            f"  got:  {json.dumps(got[name])[:400]}")

# fig3, fig5 and table2 sweep one spec: one memo miss, two hits, in and
# out of the fleet.
for path, doc in docs.items():
    memo = (doc["driver"]["sweep_memo_hits"], doc["driver"]["sweep_memo_misses"])
    assert memo == (2, 1), f"{path}: sweep memo hits/misses {memo}, want (2, 1)"

# The fleet runs really ran on the fleet.
for path in (f4_path, f4k_path):
    doc = docs[path]
    assert doc["driver"]["run_info"]["executor"] == "fleet", path
    fleet = doc["driver"]["fleet"]
    assert fleet["workers"] == 4, fleet
    assert fleet["rows"] > 0, f"{path}: fleet acked no rows"
    assert fleet["points"] == fleet["rows"], fleet
    # fig5 and table2 reuse fig3's rows: they send the workers nothing.
    per = fleet["per_scenario"]
    assert per["fig3"]["rows"] > 0, f"{path}: fig3 acked no rows"
    for name in ("fig5", "table2"):
        assert per[name]["rows"] == 0 and per[name]["leases"] == 0, (
            f"{path}: {name} reached the workers: " + json.dumps(per[name]))

# Clean fleet run: nobody died, nothing was reassigned, and each worker
# got at most one lease per sweep.
clean = docs[f4_path]["driver"]["fleet"]
assert clean["worker_deaths"] == 0, clean
assert clean["worker_restarts"] == 0, clean
assert clean["leases_issued"] <= clean["workers"] * clean["sweeps"], clean

# Kill run: the injected death happened AND was recovered from.
killed = docs[f4k_path]["driver"]["fleet"]
assert killed["worker_deaths"] >= 1, (
    "FLORETSIM_FLEET_KILL did not fire: " + json.dumps(killed))
assert killed["worker_restarts"] >= 1, json.dumps(killed)
assert killed["leases_issued"] <= (
    killed["workers"] * killed["sweeps"] + killed["worker_deaths"]), killed

# Warm-affinity pass: fig3 (which runs first) builds each of its 4 archs'
# fabrics exactly once fleetwide, the reseeded copy none — the persistent
# ArchCaches plus placement by affinity make the second sweep a pure
# fleetwide cache hit.
warm = json.load(open(warm_path))
assert warm["driver"]["scenarios_failed"] == 0
per = warm["driver"]["fleet"]["per_scenario"]
assert per["fig3"]["fabric_misses"] == 4, (
    "fig3 should build each arch's fabric once: " + json.dumps(per))
assert per["fig3_reseeded"]["rows"] > 0, (
    "the reseeded sweep never reached the workers: " + json.dumps(per))
assert per["fig3_reseeded"]["fabric_misses"] == 0, (
    "warm fleet rebuilt fabrics for the reseeded sweep: " + json.dumps(per))
assert per["fig3_reseeded"]["fabric_hits"] > 0, json.dumps(per)

names = ", ".join(sorted(base))
print(f"fleet parity ok: {names} bit-identical across 1 process, "
      "--pool 4, and --pool 4 with an injected worker kill; fig5 and "
      "table2 reused fig3's rows; warm pool swept a reseeded fig3 with "
      "zero fabric misses")
EOF
