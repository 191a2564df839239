#!/usr/bin/env bash
# Golden-schema check for floretsim_run merged reports (run by ctest as
# `report_schema`): run one scenario with a --set override, then pin the
# exact key set of the document — driver block, scenario block, table
# columns, metric names — and require every metric to be a finite number.
# A report regression (renamed metric, dropped table, NaN leaking into
# the document) fails loudly here instead of silently breaking whatever
# parses these reports downstream.
#
#   usage: scripts/report_schema.sh <floretsim_run>
set -eu

driver=$1

out_dir=$(mktemp -d)
trap 'rm -rf "$out_dir"' EXIT

# The simulator core is a per-process choice with exactly two names. A
# stale or misspelled one (the deleted regional core included) is a usage
# error before any work, never a silent fall-back to the default core, and
# specs have no `sim_core` override key.
expect_usage_error() {  # expect_usage_error <message fragment> <cmd...>
    local want=$1
    shift
    local rc=0
    "$@" > "$out_dir/usage.log" 2>&1 || rc=$?
    if [ "$rc" -ne 2 ] || ! grep -qF -- "$want" "$out_dir/usage.log"; then
        echo "FAIL: '$*' exited $rc; expected 2 and a message naming: $want" >&2
        cat "$out_dir/usage.log" >&2
        exit 1
    fi
}
expect_usage_error "'reference' or 'activity'" \
    env FLORETSIM_SIM_CORE=regional "$driver" --only fig3
expect_usage_error "reference or activity" "$driver" --core regional
expect_usage_error "supported: grid" "$driver" --set sim_core=reference
# The on-disk result cache is gone; its flag is an unknown argument.
expect_usage_error "unknown argument --cache-dir" \
    "$driver" --cache-dir "$out_dir/cache" --only fig3
# One validation path: a --set override is a patch re-parsed by the spec
# codec, so a value is rejected at load time whichever way it arrives.
cat > "$out_dir/negative_scale.json" <<'JSON'
{"scenario": "fig3", "spec": {"evals": [{"traffic_scale": -1}]}}
JSON
expect_usage_error "traffic_scale" "$driver" --spec "$out_dir/negative_scale.json"
expect_usage_error "traffic_scale" "$driver" --only fig3 --set traffic_scale=-1
# The 3D studies' inter-tier conductance has a steady state only when it
# is positive; the codec rejects zero and negative values at load time.
for g in -0.5 0; do
    cat > "$out_dir/g_vertical.json" <<JSON
{"scenario": "fig7", "spec": {"workloads": ["DNN2"],
 "variants": [{"name": "M3D", "g_vertical_w_per_k": $g}]}}
JSON
    expect_usage_error "g_vertical_w_per_k" "$driver" --spec "$out_dir/g_vertical.json"
done
# A variant's vertical pitch is gone (no model priced wire length).
cat > "$out_dir/tier_pitch.json" <<'JSON'
{"scenario": "m3d_vs_tsv", "spec": {"workloads": ["DNN1"],
 "variants": [{"name": "TSV", "tier_pitch_mm": 0.3, "g_vertical_w_per_k": 0.25}]}}
JSON
expect_usage_error "unknown key \"tier_pitch_mm\"" "$driver" --spec "$out_dir/tier_pitch.json"
echo "report schema ok: unknown cores, the sim_core key, --cache-dir, a" \
    "negative traffic_scale (--spec and --set), a non-positive" \
    "g_vertical_w_per_k and tier_pitch_mm exit 2"

# Seeds are unsigned 64-bit: the largest one is recorded exactly, in the
# driver's run_info and in the scenario's.
"$driver" --only fig4 --seed 18446744073709551615 --json "$out_dir/seed.json" \
    > "$out_dir/seed.log"
python3 - "$out_dir/seed.json" <<'EOF'
import json, sys

doc = json.load(open(sys.argv[1]))
want = 18446744073709551615
for where, info in (("driver", doc["driver"]["run_info"]),
                    ("fig4", doc["scenarios"]["fig4"]["run_info"])):
    assert info["seed"] == want, f"{where} run_info.seed: {info['seed']!r}"
print("report schema ok: run_info.seed keeps 2^64-1 in the driver and fig4")
EOF

"$driver" --only fig3 --set traffic_scale=1/128 --threads 2 \
    --json "$out_dir/fig3.json" --metrics-out "$out_dir/metrics.json" \
    > "$out_dir/fig3.log"

python3 - "$out_dir/fig3.json" "$out_dir/metrics.json" <<'EOF'
import json, math, sys

doc = json.load(open(sys.argv[1]))

assert set(doc) == {"driver", "scenarios"}, f"top-level keys: {set(doc)}"

DRIVER_KEYS = {"run_info", "threads", "pool", "sim_core",
               "scenarios_run", "scenarios_failed", "wall_seconds",
               "fabric_cache_hits", "fabric_cache_misses",
               "sweep_memo_hits", "sweep_memo_misses"}
assert set(doc["driver"]) == DRIVER_KEYS, (
    f"driver keys: {sorted(set(doc['driver']) ^ DRIVER_KEYS)} changed")
assert doc["driver"]["scenarios_run"] == 1
assert doc["driver"]["scenarios_failed"] == 0
assert doc["driver"]["sweep_memo_hits"] == 0, "fig3 alone sweeps once"
assert doc["driver"]["sweep_memo_misses"] == 1, "fig3 alone sweeps once"
assert doc["driver"]["sim_core"] in {"reference", "activity"}
# No --pool given: fleet off, and the executor is the local thread pool.
assert doc["driver"]["pool"] == 0
assert "fleet" not in doc["driver"], "fleet block present without --pool"

DRIVER_RUN_INFO_KEYS = {"build_type", "compiler", "git_sha", "sim_core",
                        "threads", "seed", "executor"}
driver_info = doc["driver"]["run_info"]
assert set(driver_info) == DRIVER_RUN_INFO_KEYS, (
    f"driver run_info keys: {sorted(set(driver_info) ^ DRIVER_RUN_INFO_KEYS)}")
for key in ("build_type", "compiler", "git_sha"):
    assert isinstance(driver_info[key], str) and driver_info[key], (
        f"run_info.{key} must be a non-empty string")
assert driver_info["seed"] is None, "no --seed given: seed must be null"
assert driver_info["executor"] == "in-process", driver_info["executor"]

assert set(doc["scenarios"]) == {"fig3"}
fig3 = doc["scenarios"]["fig3"]
assert set(fig3) == {"bench", "sim_core", "run_info", "metrics", "tables"}, (
    f"fig3 keys: {set(fig3)}")
assert fig3["bench"] == "fig3_latency"
assert fig3["sim_core"] in {"reference", "activity"}

SCENARIO_RUN_INFO_KEYS = {"build_type", "compiler", "git_sha", "sim_core",
                          "seed", "threads"}
assert set(fig3["run_info"]) == SCENARIO_RUN_INFO_KEYS, (
    f"fig3 run_info keys: "
    f"{sorted(set(fig3['run_info']) ^ SCENARIO_RUN_INFO_KEYS)}")
assert isinstance(fig3["run_info"]["seed"], int), "scenario seed is effective"

METRIC_KEYS = {"sweep_wall_seconds", "sweep_threads",
               "point_seconds_min", "point_seconds_mean", "point_seconds_max",
               "point_imbalance", "worst_ratio",
               "scenario_seconds", "fabric_cache_hits", "fabric_cache_misses"}
assert set(fig3["metrics"]) == METRIC_KEYS, (
    f"fig3 metric keys changed: {sorted(set(fig3['metrics']) ^ METRIC_KEYS)}")
for key, value in fig3["metrics"].items():
    assert isinstance(value, (int, float)) and math.isfinite(value), (
        f"metric {key} is not a finite number: {value!r}")
assert fig3["metrics"]["worst_ratio"] >= 1.0, "ratios normalize to Floret"

assert set(fig3["tables"]) == {"latency_normalized"}
table = fig3["tables"]["latency_normalized"]
assert set(table) == {"columns", "rows"}
cols = table["columns"]
assert cols[0] == "Mix" and len(cols) == 6, f"columns: {cols}"
assert len(table["rows"]) == 5, "one row per Table II mix"
for row in table["rows"]:
    assert len(row) == len(cols)
    assert all(isinstance(c, str) and c for c in row), f"bad cells: {row}"

# The --metrics-out snapshot: top-level shape and the core hot-path
# counters every instrumented run of fig3 must produce.
metrics = json.load(open(sys.argv[2]))
assert set(metrics) == {"counters", "gauges", "histograms"}, (
    f"metrics snapshot keys: {set(metrics)}")
CORE_COUNTERS = {"sweep.points", "sweep.memo_misses", "arch_cache.misses",
                 "noi.evals", "sim.runs", "sim.cycles", "mix.runs"}
missing = CORE_COUNTERS - set(metrics["counters"])
assert not missing, f"metrics counters missing: {sorted(missing)}"
for key, value in metrics["counters"].items():
    assert isinstance(value, int) and value >= 0, f"counter {key}: {value!r}"

print("report schema ok: driver/scenario/run_info/table/metric key sets",
      f"pinned, {len(METRIC_KEYS)} metrics finite, metrics snapshot shape ok")
EOF

# Second document: the scenarios migrated into the registry from the
# bespoke bench mains. Pin each one's bench name, metric key set, and
# table columns so the declarative ports can't silently drop a table or
# rename a metric relative to the original benches.
"$driver" --only fig2,fig6,fig7,m3d_vs_tsv,hetero_transformer \
    --only transformer_storage,ablation_scaling \
    --set iterations=40 --set traffic_scale=1/128 \
    --threads 2 --json "$out_dir/migrated.json" > "$out_dir/migrated.log"

python3 - "$out_dir/migrated.json" <<'EOF'
import json, math, sys

doc = json.load(open(sys.argv[1]))
assert doc["driver"]["scenarios_failed"] == 0

# Every scenario gets these from the driver wrapper, on top of what its
# report emits.
WRAPPER = {"scenario_seconds", "fabric_cache_hits", "fabric_cache_misses"}
SWEEP_TIMING = {"sweep_wall_seconds", "point_seconds_min",
                "point_seconds_mean", "point_seconds_max", "point_imbalance"}

GOLDEN = {
    "fig2": {
        "bench": "fig2_ports_links",
        "metrics": WRAPPER,
        "tables": {
            "ports": ["Ports", "Kite", "SIAM", "SWAP", "Floret"],
            "links": ["NoI", "Total links", "1-hop", "2-hop", ">=3-hop",
                      "Mean length (mm)"],
        },
    },
    "fig6": {
        "bench": "fig6_3d_edp_temp_acc",
        "metrics": WRAPPER | {"mean_edp_gain_pct", "mean_peak_excess_k",
                              "worst_accuracy_drop"},
        "tables": {
            "comparison": ["DNN", "EDP gain of Floret", "Peak K (Floret)",
                           "Peak K (joint)", "Delta K", "Acc drop (Floret)",
                           "Acc drop (joint)"],
        },
    },
    "fig7": {
        "bench": "fig7_thermal_map",
        "metrics": WRAPPER | {"peak_k_perf_only", "peak_k_joint",
                              "peak_delta_k"},
        "tables": {},
    },
    "m3d_vs_tsv": {
        "bench": "m3d_vs_tsv",
        "metrics": WRAPPER,
        "tables": {
            "comparison": ["DNN", "Variant", "EDP (norm)", "Peak K",
                           "Acc drop"],
        },
    },
    "hetero_transformer": {
        "bench": "hetero_transformer",
        "metrics": WRAPPER,
        "tables": {
            "latency": ["Model", "System", "ReRAM chiplets", "Compute (us)",
                        "Write stalls (us)", "Latency (us)", "Slowdown"],
        },
    },
    "transformer_storage": {
        "bench": "transformer_storage",
        "metrics": WRAPPER,
        "tables": {
            "storage": ["Model", "Batch", "Weights (M)", "Intermediates (M)",
                        "Ratio"],
            "kernels": ["Kernel", "Class", "Weights", "GMACs (batch 1)"],
        },
    },
    "ablation_scaling": {
        "bench": "ablation_scaling",
        "metrics": WRAPPER | SWEEP_TIMING,
        "tables": {
            "scaling": ["Chiplets", "NoI", "Mean hops", "Makespan (kcyc)",
                        "NoI energy (uJ)", "NoI area (mm2)", "Cost vs ref"],
            "petal_sweep": ["lambda", "d (Eq.1)", "Links", "2-port routers",
                            "Mean route hops", "NoI area (mm2)"],
            "weight_load": ["NoI", "Inference pass (kcyc)",
                            "+ weight load (kcyc)", "Load overhead"],
        },
    },
}

assert set(doc["scenarios"]) == set(GOLDEN), (
    f"scenario set: {sorted(set(doc['scenarios']) ^ set(GOLDEN))}")
for name, want in GOLDEN.items():
    got = doc["scenarios"][name]
    assert got["bench"] == want["bench"], (
        f"{name}: bench {got['bench']!r} != {want['bench']!r}")
    assert set(got["metrics"]) == want["metrics"], (
        f"{name} metric keys changed: "
        f"{sorted(set(got['metrics']) ^ want['metrics'])}")
    for key, value in got["metrics"].items():
        assert isinstance(value, (int, float)) and math.isfinite(value), (
            f"{name} metric {key} is not a finite number: {value!r}")
    assert set(got["tables"]) == set(want["tables"]), (
        f"{name} tables changed: "
        f"{sorted(set(got['tables']) ^ set(want['tables']))}")
    for tname, cols in want["tables"].items():
        table = got["tables"][tname]
        assert table["columns"] == cols, (
            f"{name}.{tname} columns: {table['columns']}")
        assert table["rows"], f"{name}.{tname} has no rows"
        for row in table["rows"]:
            assert len(row) == len(cols), f"{name}.{tname} ragged row: {row}"
            assert all(isinstance(c, str) and c for c in row), (
                f"{name}.{tname} bad cells: {row}")

print(f"report schema ok: {len(GOLDEN)} migrated scenarios pinned "
      "(bench names, metric keys, table columns)")
EOF

# Third document: the serving-cluster capacity plan. Its metric keys are
# derived from the spec's K x batch x load grid, so the pin reconstructs
# the expected set from the registered lists and requires the serving
# totals (preemptions, evictions, batching, affinity) on top.
"$driver" --only cluster --set max_requests=24 --set replications=1 \
    --threads 2 --json "$out_dir/cluster.json" > "$out_dir/cluster.log"

python3 - "$out_dir/cluster.json" <<'EOF'
import json, math, sys

doc = json.load(open(sys.argv[1]))
assert doc["driver"]["scenarios_failed"] == 0
cluster = doc["scenarios"]["cluster"]
assert cluster["bench"] == "cluster_capacity", cluster["bench"]

assert set(cluster["tables"]) == {"capacity"}
table = cluster["tables"]["capacity"]
COLS = ["K", "Batch", "Load (req/Mcyc)", "Delivered", "p99 (kcyc)",
        "Util", "SLA viol", "Batched", "Preempt", "Evict"]
assert table["columns"] == COLS, f"capacity columns: {table['columns']}"

SIZES, CAPS, LOADS = [1, 2], [1, 4], [500, 4000]  # the registered grid
assert len(table["rows"]) == len(SIZES) * len(CAPS) * len(LOADS), (
    f"capacity rows: {len(table['rows'])}")
for row in table["rows"]:
    assert len(row) == len(COLS), f"ragged row: {row}"
    assert all(isinstance(c, str) and c for c in row), f"bad cells: {row}"

want = {"scenario_seconds", "fabric_cache_hits", "fabric_cache_misses",
        "point_seconds_min", "point_seconds_mean", "point_seconds_max",
        "point_imbalance", "noi_rounds", "noi_cache_hits",
        "serve_preemptions", "serve_evictions", "serve_batched_requests",
        "serve_affinity_hits"}
for k in SIZES:
    for b in CAPS:
        want.add(f"k{k}_b{b}_knee_load")
        for load in LOADS:
            for suffix in ("p99_kcyc", "sla_violation_rate",
                           "throughput_per_mcyc", "batched", "preemptions"):
                want.add(f"k{k}_b{b}_load{load}_{suffix}")
assert set(cluster["metrics"]) == want, (
    f"cluster metric keys changed: {sorted(set(cluster['metrics']) ^ want)}")
for key, value in cluster["metrics"].items():
    assert isinstance(value, (int, float)) and math.isfinite(value), (
        f"cluster metric {key} is not a finite number: {value!r}")
# The capacity plan only means something if the serving features ran.
assert cluster["metrics"]["serve_preemptions"] > 0, cluster["metrics"]
assert cluster["metrics"]["serve_batched_requests"] > 0, cluster["metrics"]

print("report schema ok: cluster capacity plan pinned "
      f"({len(want)} metric keys, {len(COLS)} capacity columns)")
EOF
