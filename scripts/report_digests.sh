#!/usr/bin/env bash
# Published-value pin (run by ctest as `report_digests`, and by CI on both
# simulator cores): run the full registry once at CI sizing and compare
# one digest per scenario with scripts/report_digests.json.
#
# A digest is the SHA-256 of a scenario's report with everything that is
# not a result value stripped: fleet_parity's volatile keys (wall-clock
# timings, the imbalance ratio derived from them, cache counters, thread
# counts), `run_info`, `sim_core`, and the simulator-core work metrics
# (`sim_cycles_*`, `sim_horizon_jumps`, `sim_skip_fraction`), which differ
# between the cores by design. What is left — every table cell and every
# derived metric — must not move: the digests agree at any --threads and
# on either core.
#
# A change that moves a published value on purpose regenerates the file
# (this script prints the new one on a mismatch) and lists every changed
# cell in CHANGES.md.
#
#   usage: scripts/report_digests.sh <floretsim_run> [extra driver args...]
#
# Extra arguments (e.g. --threads 1, --core reference) are passed through
# to the driver after the sizing flags.
set -eu

driver=$1
shift

golden="$(cd "$(dirname "$0")" && pwd)/report_digests.json"

out_dir=$(mktemp -d)
trap 'rm -rf "$out_dir"' EXIT

"$driver" --set traffic_scale=1/128 --set max_requests=16 \
    --set replications=1 --set iterations=40 --threads 4 "$@" \
    --json "$out_dir/registry.json" > "$out_dir/registry.log"

python3 - "$out_dir/registry.json" "$golden" <<'EOF'
import hashlib, json, sys

doc = json.load(open(sys.argv[1]))
golden = json.load(open(sys.argv[2]))
assert doc["driver"]["scenarios_failed"] == 0, (
    f"{doc['driver']['scenarios_failed']} scenario(s) failed")

VOLATILE = ("seconds", "wall", "imbalance", "cache", "threads")
DROPPED = {"run_info", "sim_core", "sim_horizon_jumps", "sim_skip_fraction"}

def keep(key):
    return (key not in DROPPED and not key.startswith("sim_cycles_")
            and not any(t in key for t in VOLATILE))

def strip(x):
    if isinstance(x, dict):
        return {k: strip(v) for k, v in x.items() if keep(k)}
    if isinstance(x, list):
        return [strip(v) for v in x]
    return x

def digest(report):
    text = json.dumps(strip(report), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]

got = {name: digest(report) for name, report in doc["scenarios"].items()}
changed = sorted(name for name in set(got) | set(golden)
                 if got.get(name) != golden.get(name))
if changed:
    for name in changed:
        print(f"FAIL: {name}: digest {got.get(name)}, "
              f"recorded {golden.get(name)}", file=sys.stderr)
    print("If the change is intended, replace scripts/report_digests.json "
          "with:", file=sys.stderr)
    print(json.dumps(got, indent=2), file=sys.stderr)
    sys.exit(1)
print(f"report digests ok: {len(got)} scenarios match the recorded values")
EOF
