#!/usr/bin/env bash
# Bench smoke: exercise every bench code path on a tiny configuration and
# fail on a non-zero exit or an unparseable JSON report. Catches bit-rot
# in rarely-run benches (and the JSON emitter) without paying for
# full-size sweeps in CI.
#
# Both simulator cores are exercised end to end (the activity-driven
# default and the reference cycle loop — via FLORETSIM_SIM_CORE
# for the bench binaries and the --core flag for the driver, so the flag
# path itself is smoke-tested). The paper figures and tables (all
# thirteen registered scenarios: fig2-7, table2, serving, cluster,
# m3d_vs_tsv, hetero_transformer, transformer_storage,
# ablation_scaling) are covered by ONE floretsim_run
# invocation per core: one process, one shared SweepEngine/fabric cache
# — and the driver's own CLI (--set overrides, merged report) is
# smoke-tested for free. The bench binaries (the non-figure benches) run
# in a per-binary loop, also once per core.
#
#   usage: scripts/bench_smoke.sh [build-dir]   (default: build)
set -u

build_dir=${1:-build}
if [ ! -d "$build_dir" ]; then
    echo "bench_smoke: build dir '$build_dir' not found" >&2
    exit 2
fi

out_dir=$(mktemp -d)
trap 'rm -rf "$out_dir"' EXIT

fail=0
ran=0

driver="$build_dir/floretsim_run"
if [ ! -x "$driver" ]; then
    echo "bench_smoke: $driver not found" >&2
    exit 2
fi

smoke_one() {  # smoke_one <label> <log/json stem> <cmd...>
    local label=$1 stem=$2
    shift 2
    local json="$out_dir/$stem.json"
    if ! "$@" --json "$json" > "$out_dir/$stem.log" 2>&1; then
        echo "FAIL $label: non-zero exit" >&2
        tail -20 "$out_dir/$stem.log" >&2
        fail=1
        return
    fi
    if ! python3 -m json.tool "$json" > /dev/null 2>&1; then
        echo "FAIL $label: unparseable JSON report" >&2
        fail=1
        return
    fi
    echo "ok   $label"
    ran=$((ran + 1))
}

for core in activity reference; do
    export FLORETSIM_SIM_CORE=$core

    # Registered scenarios: one driver run, selecting the core with the
    # --core flag (redundant with the export, which keeps the smoke of the
    # flag-parsing path honest: both spell the same core). Tiny sizes: the
    # serving grid and cluster capacity plan drop to 24 requests x 1
    # replication (the sweep scenarios are already CI-sized). Sweep-only --set keys would error
    # here ("applies to none") if the serving scenario ever left the
    # registry, which is exactly the alarm we want.
    smoke_one "floretsim_run ($core: full 13-scenario registry)" \
        "floretsim_run.$core" \
        "$driver" --threads 2 --core "$core" \
        --set max_requests=24 --set replications=1

    # The bench binaries: the per-binary loop. bench_micro_kernels is
    # google-benchmark-driven and has no --json contract, so it is skipped
    # here and run once below.
    for bench in "$build_dir"/bench_*; do
        [ -x "$bench" ] || continue
        name=$(basename "$bench")
        [ "$name" = "bench_micro_kernels" ] && continue
        smoke_one "$name ($core)" "$name.$core" "$bench" --threads 2
    done
done

if [ "$ran" -eq 0 ]; then
    echo "bench_smoke: nothing ran in $build_dir" >&2
    exit 2
fi

# Micro-kernel smoke: bench_micro_kernels (built only when google-benchmark
# is found) runs once, on the two fabric-build kernels, the hotspot drain,
# the single-hop link traffic and the thermal solve, and must exit zero. No
# --benchmark_min_time: its syntax differs between google-benchmark 1.7
# and 1.8.
micro="$build_dir/bench_micro_kernels"
if [ -x "$micro" ]; then
    if "$micro" \
            --benchmark_filter='BM_(SwapSynthesis|FloretTopologyBuild|SimulatorHotspot|SimulatorSingleHop|ThermalSolve)' \
            > "$out_dir/micro_kernels.log" 2>&1; then
        echo "ok   bench_micro_kernels (SWAP synthesis, Floret build, hotspot drain, single hop, thermal solve)"
        ran=$((ran + 1))
    else
        echo "FAIL bench_micro_kernels: non-zero exit" >&2
        tail -20 "$out_dir/micro_kernels.log" >&2
        fail=1
    fi
fi

# Perf smoke: bench_skip_traffic with no forced core runs its in-binary
# reference-vs-activity drain A/B. On the saturated corner drain the
# activity core must (a) produce the exact SimResult the reference core
# produced — same 32-bit fold of every semantic field — and (b) offer
# switch allocation fewer outputs than the reference core, which visits
# every channel every stepped cycle. A regression in either direction
# fails CI here.
unset FLORETSIM_SIM_CORE
perf_json="$out_dir/skip_traffic.perf.json"
if "$build_dir/bench_skip_traffic" --threads 2 --json "$perf_json" \
        > "$out_dir/skip_traffic.perf.log" 2>&1 \
   && python3 - "$perf_json" <<'EOF'
import json, sys
m = json.load(open(sys.argv[1]))["metrics"]
assert m["cores_agree"] == 1.0, "simulator cores disagree on a drain result"
assert m["drain_activity_result_hash"] == m["drain_reference_result_hash"], (
    "activity drain SimResult hash differs from reference")
assert m["drain_activity_arbitrations"] < m["drain_reference_arbitrations"], (
    "activity core arbitrated no fewer outputs than the reference core")
print("perf smoke ok: activity drain bit-identical with "
      f"{int(m['drain_activity_arbitrations'])} of "
      f"{int(m['drain_reference_arbitrations'])} reference arbitrations")
EOF
then
    echo "ok   bench_skip_traffic (perf smoke: activity drain)"
    ran=$((ran + 1))
else
    echo "FAIL bench_skip_traffic perf smoke" >&2
    tail -20 "$out_dir/skip_traffic.perf.log" >&2
    fail=1
fi

# Observability smoke: the obs layer's acceptance contract.
#   1. Report parity: the same run with tracing+metrics on and off must
#      produce identical reports once volatile (wall-clock-derived) keys
#      are stripped — observability can describe a run, never change it.
#   2. --trace-out writes valid Chrome trace JSON with events; the
#      --metrics-out snapshot carries the instrumented counters, and fig3's
#      single-hop pipeline traffic runs single-hop trains (sim.trains).
#   3. A --pool run streams live per-worker progress lines to stderr, ends
#      with the fleet summary, and merges every worker's trace into the
#      coordinator's file.
#   4. Unwritable output paths exit nonzero (driver and bench binaries).
obs_args=(--only fig3 --set traffic_scale=1/128 --threads 2)
obs_ok=1
"$driver" "${obs_args[@]}" --json "$out_dir/obs_off.json" \
    > "$out_dir/obs_off.log" 2>&1 || obs_ok=0
"$driver" "${obs_args[@]}" --json "$out_dir/obs_on.json" \
    --trace-out "$out_dir/obs.trace.json" \
    --metrics-out "$out_dir/obs.metrics.json" \
    > "$out_dir/obs_on.log" 2>&1 || obs_ok=0
"$driver" "${obs_args[@]}" --pool 2 --json "$out_dir/obs_pool.json" \
    --trace-out "$out_dir/obs_pool.trace.json" \
    > "$out_dir/obs_pool.log" 2> "$out_dir/obs_pool.err" || obs_ok=0
if [ "$obs_ok" = 1 ] && python3 - "$out_dir" <<'EOF'
import json, sys
out = sys.argv[1]

VOLATILE = ("seconds", "wall", "imbalance", "cache", "threads")
def strip(o):
    if isinstance(o, dict):
        return {k: strip(v) for k, v in o.items()
                if not any(s in k for s in VOLATILE)}
    if isinstance(o, list):
        return [strip(v) for v in o]
    return o

off = json.load(open(f"{out}/obs_off.json"))
on = json.load(open(f"{out}/obs_on.json"))
pool = json.load(open(f"{out}/obs_pool.json"))
assert strip(off["scenarios"]) == strip(on["scenarios"]), (
    "report changed with tracing/metrics enabled")
assert strip(off["scenarios"]) == strip(pool["scenarios"]), (
    "report changed under --pool with tracing enabled")

trace = json.load(open(f"{out}/obs.trace.json"))
assert trace["traceEvents"], "trace has no events"
for e in trace["traceEvents"]:
    assert {"ph", "pid"} <= set(e), f"malformed trace event: {e}"
names = {e.get("name") for e in trace["traceEvents"]}
assert {"sweep_point", "evaluate_noi", "sim.run", "fig3"} <= names, (
    f"expected spans missing: {sorted(names)}")

merged = json.load(open(f"{out}/obs_pool.trace.json"))
pids = {e.get("pid") for e in merged["traceEvents"]}
assert len(pids) >= 3, (
    f"merged trace should span coordinator + 2 workers, got pids {pids}")

metrics = json.load(open(f"{out}/obs.metrics.json"))
assert metrics["counters"].get("sweep.points", 0) > 0, "no sweep.points"
assert "sim.run_cycles" in metrics["histograms"], "no sim.run_cycles histogram"
assert metrics["counters"].get("sim.trains", 0) > 0, "the activity core ran no trains"

err = open(f"{out}/obs_pool.err").read().splitlines()
progress_lines = [l for l in err if l.startswith("[fleet ") and "leased points" in l]
assert progress_lines, "no live per-worker progress lines on coordinator stderr"
assert any(l.startswith("[fleet] 2 workers") for l in err), (
    "no end-of-run fleet summary")
print(f"obs smoke ok: parity held, {len(trace['traceEvents'])} trace events, "
      f"{len(pids)} processes merged, {len(progress_lines)} progress lines")
EOF
then
    echo "ok   observability (parity, trace, metrics, progress lines)"
    ran=$((ran + 1))
else
    echo "FAIL observability smoke" >&2
    tail -5 "$out_dir/obs_off.log" "$out_dir/obs_on.log" \
        "$out_dir/obs_pool.err" >&2
    fail=1
fi

# Write-failure propagation: requested-but-unwritable outputs must be a
# nonzero exit, for the driver and for a bench binary alike.
if "$driver" --only fig4 --json /nonexistent-dir/x.json \
        > /dev/null 2>&1; then
    echo "FAIL driver: unwritable --json exited zero" >&2
    fail=1
elif "$driver" --only fig4 --trace-out /nonexistent-dir/t.json \
        > /dev/null 2>&1; then
    echo "FAIL driver: unwritable --trace-out exited zero" >&2
    fail=1
elif "$build_dir/bench_fig1_floret_layout" --json /nonexistent-dir/x.json \
        > /dev/null 2>&1; then
    echo "FAIL bench: unwritable --json exited zero" >&2
    fail=1
else
    echo "ok   write-failure propagation (driver + bench exit nonzero)"
    ran=$((ran + 1))
fi

echo "bench_smoke: $ran smoke runs ok"
exit $fail
