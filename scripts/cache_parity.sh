#!/usr/bin/env bash
# Result-cache differential (run by ctest as `cache_parity`, and by CI):
#
#   1. Cold/warm/fleet-warm parity: the full registry run three times
#      against one --cache-dir — cold (every sweep point evaluated and
#      stored), warm (every point served from the cache), and warm under
#      --pool 2 (the coordinator partitions the hits out BEFORE
#      dispatch, so no worker is ever spawned) — must produce
#      bit-identical merged reports once wall-clock-derived keys are
#      stripped.
#   2. Zero warm evaluations: the warm run's --metrics-out snapshot must
#      show result_cache.hits > 0, result_cache.misses == 0, and NO
#      sweep.points evaluations at all — rows came from disk, not
#      recompute.
#   3. Warm is faster: a second cache dir, cold then warm on the fig3
#      sweep alone; the warm wall time must beat the cold one (the sweep
#      does no simulation on the warm pass).
#   4. Partial warm under a fleet: prime only fig3's floret+kite points,
#      then run the full fig3 arch set with --pool 2 — the merged report
#      must equal an uncached reference run even though half the rows
#      came from the cache and half from worker processes (pins the
#      hit/miss interleave order through the fleet merge).
#
#   usage: scripts/cache_parity.sh <floretsim_run> [extra driver args...]
set -eu

driver=$1
shift

out_dir=$(mktemp -d)
trap 'rm -rf "$out_dir"' EXIT

common="--set grid=8x8 --set traffic_scale=1/128 \
        --set max_requests=16 --set replications=1 --set iterations=40"
cache_a="$out_dir/cache_a"

# shellcheck disable=SC2086
"$driver" $common --threads 2 --cache-dir "$cache_a" "$@" \
    --json "$out_dir/cold.json" > "$out_dir/cold.log"
# shellcheck disable=SC2086
"$driver" $common --threads 2 --cache-dir "$cache_a" "$@" \
    --json "$out_dir/warm.json" --metrics-out "$out_dir/warm.metrics.json" \
    > "$out_dir/warm.log"
# shellcheck disable=SC2086
"$driver" $common --threads 1 --pool 2 --cache-dir "$cache_a" "$@" \
    --json "$out_dir/warm_p2.json" > "$out_dir/warm_p2.log" \
    2> "$out_dir/warm_p2.err"

python3 - "$out_dir/cold.json" "$out_dir/warm.json" "$out_dir/warm_p2.json" \
    "$out_dir/warm.metrics.json" <<'EOF'
import json, sys

cold, warm, warm_p2 = (json.load(open(p)) for p in sys.argv[1:4])
metrics = json.load(open(sys.argv[4]))

# Same volatile-key strip as fleet_parity: wall-clock timings, imbalance,
# cache counters, thread counts are allowed to differ; nothing else.
VOLATILE = ("seconds", "wall", "imbalance", "cache", "threads")

def strip(x):
    if isinstance(x, dict):
        return {k: strip(v) for k, v in x.items()
                if not any(t in k for t in VOLATILE)}
    if isinstance(x, list):
        return [strip(v) for v in x]
    return x

for name, doc in (("cold", cold), ("warm", warm), ("warm_p2", warm_p2)):
    assert doc["driver"]["scenarios_failed"] == 0, f"{name}: scenario failed"

base = strip(cold["scenarios"])
for name, doc in (("warm", warm), ("warm_p2", warm_p2)):
    got = strip(doc["scenarios"])
    for scen in base:
        assert got[scen] == base[scen], (
            f"{name}: scenario {scen} differs from the cold run:\n"
            f"  cold: {json.dumps(base[scen])[:400]}\n"
            f"  got:  {json.dumps(got[scen])[:400]}")

# The cold run stored, the warm runs only hit.
assert cold["driver"]["result_cache_misses"] > 0, "cold run missed nothing?"
for name, doc in (("warm", warm), ("warm_p2", warm_p2)):
    d = doc["driver"]
    assert d["result_cache_hits"] > 0, f"{name}: no cache hits"
    assert d["result_cache_misses"] == 0, (
        f"{name}: {d['result_cache_misses']} misses on a fully warm cache")
# Probe count is deterministic, and fig3/fig5/table2 share point keys, so
# the cold run already hits on the repeats: warm hits == all cold probes.
assert warm["driver"]["result_cache_hits"] == \
    cold["driver"]["result_cache_hits"] + \
    cold["driver"]["result_cache_misses"], (
    "warm hit count != cold probe count")

# Zero point evaluations on the warm pass: the sweep.points counter is
# incremented only by evaluate_point, which a fully warm run never calls.
counters = metrics["counters"]
assert counters.get("sweep.points", 0) == 0, (
    f"warm run evaluated {counters['sweep.points']} points")
assert counters.get("result_cache.hits", 0) > 0
assert counters.get("result_cache.misses", 0) == 0

# A fully warm fleet run dispatches nothing: no worker ever acks a row.
assert warm_p2["driver"]["fleet"]["rows"] == 0, (
    "fully warm --pool run dispatched points: "
    + json.dumps(warm_p2["driver"]["fleet"]))

print("cache parity ok: cold/warm/--pool 2 warm bit-identical, "
      f"{warm['driver']['result_cache_hits']} hits, 0 warm evaluations")
EOF

# Warm must be faster than cold on a sweep-only scenario (fig3 at its
# default size: the warm pass runs no simulation at all, so this holds by
# a wide margin — not a tight perf bound that could flake).
cache_b="$out_dir/cache_b"
# shellcheck disable=SC2086
"$driver" --only fig3 --threads 2 --cache-dir "$cache_b" "$@" \
    --json "$out_dir/fig3_cold.json" > "$out_dir/fig3_cold.log"
# shellcheck disable=SC2086
"$driver" --only fig3 --threads 2 --cache-dir "$cache_b" "$@" \
    --json "$out_dir/fig3_warm.json" > "$out_dir/fig3_warm.log"

# Partial warm under a fleet: prime two of fig3's four archs in a fresh
# cache, then run the full arch set on a fleet against it, and compare to
# an uncached reference.
cache_c="$out_dir/cache_c"
# shellcheck disable=SC2086
"$driver" --only fig3 --set archs=floret,kite --threads 2 \
    --cache-dir "$cache_c" "$@" --json "$out_dir/prime.json" \
    > "$out_dir/prime.log"
# shellcheck disable=SC2086
"$driver" --only fig3 --threads 1 --pool 2 --cache-dir "$cache_c" "$@" \
    --json "$out_dir/partial.json" > "$out_dir/partial.log" \
    2> "$out_dir/partial.err"
# shellcheck disable=SC2086
"$driver" --only fig3 --threads 2 "$@" --json "$out_dir/ref.json" \
    > "$out_dir/ref.log"

python3 - "$out_dir/fig3_cold.json" "$out_dir/fig3_warm.json" \
    "$out_dir/partial.json" "$out_dir/ref.json" <<'EOF'
import json, sys

f3_cold, f3_warm, partial, ref = (json.load(open(p)) for p in sys.argv[1:5])

cold_wall = f3_cold["driver"]["wall_seconds"]
warm_wall = f3_warm["driver"]["wall_seconds"]
assert f3_warm["driver"]["result_cache_hits"] > 0
assert f3_warm["driver"]["result_cache_misses"] == 0
assert warm_wall < cold_wall, (
    f"warm fig3 ({warm_wall:.3f}s) not faster than cold ({cold_wall:.3f}s)")

VOLATILE = ("seconds", "wall", "imbalance", "cache", "threads")

def strip(x):
    if isinstance(x, dict):
        return {k: strip(v) for k, v in x.items()
                if not any(t in k for t in VOLATILE)}
    if isinstance(x, list):
        return [strip(v) for v in x]
    return x

d = partial["driver"]
assert d["result_cache_hits"] > 0, "partial run hit nothing"
assert d["result_cache_misses"] > 0, "partial run missed nothing"
assert d["fleet"]["rows"] == d["result_cache_misses"], (
    "the fleet did not compute exactly the cache misses: "
    + json.dumps(d["fleet"]))
assert strip(partial["scenarios"]) == strip(ref["scenarios"]), (
    "partially-warm fleet fig3 differs from the uncached reference run")

print(f"cache timing ok: warm {warm_wall:.3f}s < cold {cold_wall:.3f}s; "
      f"partial-warm fleet merge ({d['result_cache_hits']} hits + "
      f"{d['result_cache_misses']} misses) matches the uncached reference")
EOF
