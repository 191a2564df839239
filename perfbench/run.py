#!/usr/bin/env python3
"""FloretSim host-time benchmark: one command per workload.

    python3 perfbench/run.py --workload fleet_sweep --seed 1 --seconds 36 --trace 0

Builds the library, the floretsim_run worker binary and the harness from the
sources of this checkout (first run only, into .bench_build/), runs the
workload for --seconds, checks every operation's output against the committed
golden digests, and prints the metrics. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 they are the
per-layer profile built from the library's own spans and counters.
See perfbench/README.md for what each workload and metric means.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
GOLDEN = os.path.join(BENCH_DIR, "golden.json")
WORKLOADS = ("serving_capacity", "hotspot_drain", "fleet_sweep")
PAPER_SCENARIOS = ("fig3", "fig5", "table2")
SERVING_SCENARIOS = ("serving", "cluster")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---- build ------------------------------------------------------------------

def build():
    """Configures (once) and builds the harness; returns (harness, worker)."""
    needed = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tools", "floretsim_run.cpp")]
    for path in needed:
        if not os.path.exists(path):
            raise SystemExit(f"perfbench: {path} is missing; run from a FloretSim checkout")
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return (os.path.join(BUILD_DIR, "perfbench_harness"),
            os.path.join(BUILD_DIR, "floretsim_run"))


def run_harness(harness, worker, args, out_dir):
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    # The fleet coordinator puts its scratch files under TMPDIR: keep them
    # inside the checkout.
    env = dict(os.environ, TMPDIR=tmp)
    cmd = [harness, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--worker-exe", worker, "--out-dir", out_dir]
    if args.quick:
        cmd.append("--quick")
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"perfbench: harness exited with {proc.returncode}")
    return json.loads(lines[-1])


# ---- output check -----------------------------------------------------------

def load_golden(path, mode, workload, seed):
    """The committed digests for this run, or None when the seed has none."""
    if not os.path.exists(path):
        return None
    with open(path) as f:
        doc = json.load(f)
    return doc.get(mode, {}).get(workload, {}).get(str(seed))


def check_outputs(iterations, golden):
    """Counts attempted and failed operations.

    An operation fails when it raised, hit a cycle cap (or, for a scenario,
    left serve requests undrained), or produced a digest different from the
    golden one (or, for a seed without goldens, from the first iteration's).
    """
    attempted = failed = 0
    reference = dict(golden) if golden else {}
    problems = []
    for it in iterations:
        for op in it["ops"]:
            attempted += 1
            expected = reference.setdefault(op["name"], op["digest"])
            if op["error"] is not None:
                problems.append(f"{op['name']}: raised {op['error']}")
            elif op["capped"]:
                problems.append(f"{op['name']}: hit a cycle cap or an undrained serve run")
            elif op["digest"] != expected:
                problems.append(f"{op['name']}: digest {op['digest']} != {expected}")
            else:
                continue
            failed += 1
    return attempted, failed, problems


def write_golden(path, mode, workload, seed, iterations, failed):
    if failed:
        raise SystemExit("perfbench: refusing to record goldens from this run")
    doc = {}
    if os.path.exists(path):
        with open(path) as f:
            doc = json.load(f)
    digests = {op["name"]: op["digest"] for op in iterations[0]["ops"]}
    doc.setdefault(mode, {}).setdefault(workload, {})[str(seed)] = digests
    with open(path, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")


# ---- end-to-end metrics -----------------------------------------------------

def end_to_end(doc):
    untraced = [it for it in doc["iterations"] if not it["traced"]]
    setups = doc["setup_only_s"] + [it["setup_s"] for it in doc["iterations"]]
    return {
        "wall_s": (statistics.median(it["wall_s"] for it in untraced), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "cpu_s": (statistics.median(it["cpu_s"] for it in untraced), "s"),
        "peak_rss_mb": (statistics.median(it["peak_rss_mb"] for it in doc["iterations"]),
                        "MB"),
    }


# ---- per-layer profile ------------------------------------------------------

def percentile(values, p):
    """Nearest-rank percentile; 0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def ratio(num, den):
    return num / den if den else 0.0


def span_events(trace_doc):
    return [e for e in trace_doc["traceEvents"] if e.get("ph") == "X"]


def self_times(events):
    """Each span's duration minus its direct children on the same thread.

    Returns a list parallel to `events`. Spans nest by time within one
    (pid, tid); a child may overhang its parent by timestamp rounding, so
    the subtracted overlap is clipped to the parent's interval.
    """
    selfs = [e["dur"] for e in events]
    by_thread = {}
    for i, e in enumerate(events):
        by_thread.setdefault((e["pid"], e["tid"]), []).append(i)
    for idx in by_thread.values():
        idx.sort(key=lambda i: (events[i]["ts"], -events[i]["dur"]))
        stack = []
        for i in idx:
            start = events[i]["ts"]
            while stack and events[stack[-1]]["ts"] + events[stack[-1]]["dur"] <= start:
                stack.pop()
            if stack:
                parent = events[stack[-1]]
                end = min(start + events[i]["dur"], parent["ts"] + parent["dur"])
                selfs[stack[-1]] -= max(0, end - start)
            stack.append(i)
    return selfs


def uncovered_time(span, others):
    """Time inside `span` during which none of `others` is open."""
    lo, hi = span["ts"], span["ts"] + span["dur"]
    intervals = sorted((max(lo, e["ts"]), min(hi, e["ts"] + e["dur"])) for e in others
                       if e["ts"] < hi and e["ts"] + e["dur"] > lo)
    covered, cur_lo, cur_hi = 0, None, None
    for a, b in intervals:
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return span["dur"] - covered


def span_table(events, selfs):
    """name -> [count, total_us, self_us], the printed profile."""
    table = {}
    for e, s in zip(events, selfs):
        row = table.setdefault(e["name"], [0, 0, 0])
        row[0] += 1
        row[1] += e["dur"]
        row[2] += s
    return table


def layer_metrics(trace_doc, metrics_doc, fleet_stats, workers):
    """The per-layer metrics of one traced iteration (times in seconds)."""
    events = span_events(trace_doc)
    selfs = self_times(events)
    # A scenario's children run on pool threads or in worker processes, so
    # its self time is the part of its interval that no other span of its
    # process covers: report building, fan-out and joins.
    for i, e in enumerate(events):
        if e["cat"] == "scenario":
            selfs[i] = uncovered_time(e, [o for o in events if o["pid"] == e["pid"]
                                          and o["cat"] not in ("bench", "scenario")])
    c = metrics_doc.get("counters", {})
    cnt = lambda name: c.get(name, 0)
    us = 1e-6

    def spans(name):
        return [(e, s) for e, s in zip(events, selfs) if e["name"] == name]

    # Sweep-point statistics cover the timed workload only: the fleet's
    # set-up sweep (one tiny point per fabric) runs inside "setup".
    window = [e for e in events if e["name"] == "workload" and e["cat"] == "bench"]
    lo = min((e["ts"] for e in window), default=0)
    hi = max((e["ts"] + e["dur"] for e in window), default=0)
    points = [(e, s) for e, s in spans("sweep_point") if lo <= e["ts"] <= hi]
    point_s = [e["dur"] * us for e, _ in points]
    evals = spans("evaluate_noi")
    eval_us = [e["dur"] for e, _ in evals]
    rounds = spans("serve_round")
    drains = spans("drain")
    builds = spans("build_fabric")
    leases = spans("fleet_lease")
    sweeps = spans("fleet_sweep")

    noc_s = (sum(eval_us) + sum(e["dur"] for e, _ in drains)) * us
    hops = cnt("sim.phase_alloc_hops")
    stepped = cnt("sim.cycles_stepped")
    m = {
        "topo.fabric_builds": (len(builds), "count"),
        "topo.build_s": (sum(e["dur"] for e, _ in builds) * us, "s"),
        "sweep.points": (len(points), "count"),
        "sweep.point_p50_s": (percentile(point_s, 0.5), "s"),
        "sweep.point_p90_s": (percentile(point_s, 0.9), "s"),
        "sweep.point_imbalance": (
            ratio(max(point_s, default=0.0), statistics.fmean(point_s) if point_s else 0.0),
            "ratio"),
        "arch_cache.hit_share": (
            ratio(cnt("arch_cache.hits"), cnt("arch_cache.hits") + cnt("arch_cache.misses")),
            "share"),
        "mix.rounds": (cnt("mix.rounds"), "count"),
        "mix.epoch_reuse_share": (ratio(cnt("noi.sims_reused"), cnt("mix.rounds")), "share"),
        "mix.self_s": (sum(s for _, s in points) * us, "s"),
        "noi.evals": (cnt("noi.evals"), "count"),
        "noi.eval_s": (sum(eval_us) * us, "s"),
        "noi.eval_p50_us": (percentile(eval_us, 0.5), "us"),
        "noi.eval_p99_us": (percentile(eval_us, 0.99), "us"),
        "noi.eval_share": (
            ratio(sum(eval_us),
                  sum(e["dur"] for e, _ in spans("sweep_point") + rounds)),
            "share"),
        "sim.runs": (cnt("sim.runs"), "count"),
        "sim.cycles": (cnt("sim.cycles"), "count"),
        "sim.cycles_stepped": (stepped, "count"),
        "sim.cycles_skipped": (cnt("sim.cycles_skipped"), "count"),
        "sim.flit_hops": (hops, "count"),
        "noc.ns_per_flit_hop": (ratio(noc_s * 1e9, hops), "ns"),
        "noc.us_per_stepped_cycle": (ratio(noc_s * 1e6, stepped), "us"),
        "noc.flit_hops_per_stepped_cycle": (ratio(hops, stepped), "ratio"),
        "noc.sim_cycles_per_s": (ratio(cnt("sim.cycles"), noc_s), "1/s"),
        "serve.rounds": (cnt("serve.noi_rounds"), "count"),
        "serve.round_memo_hit_share": (
            ratio(cnt("serve.noi_cache_hits"), cnt("serve.noi_rounds")), "share"),
        "serve.round_self_s": (sum(s for _, s in rounds) * us, "s"),
        "serve.completed": (cnt("serve.completed"), "count"),
        "serve.preemptions": (cnt("serve.preemptions"), "count"),
        "serve.batched_requests": (cnt("serve.batched_requests"), "count"),
    }

    scenario_spans = [e for e in events if e["cat"] == "scenario"]
    for name in PAPER_SCENARIOS + SERVING_SCENARIOS:
        m[f"scenario.{name}_s"] = (
            sum(e["dur"] for e in scenario_spans if e["name"] == name) * us, "s")
    m["scenario.self_s"] = (
        sum(s for e, s in zip(events, selfs) if e["cat"] == "scenario") * us, "s")

    m.update({
        "fleet.leases_issued": (cnt("fleet.leases_issued"), "count"),
        "fleet.leases_stolen": (cnt("fleet.leases_stolen"), "count"),
        "fleet.affinity_hit_share": (
            ratio(cnt("fleet.affinity_hits"),
                  cnt("fleet.affinity_hits") + cnt("fleet.affinity_misses")), "share"),
        "fleet.fabric_misses": ((fleet_stats or {}).get("fabric_misses", 0), "count"),
        "fleet.worker_deaths": (cnt("fleet.worker_deaths"), "count"),
        "fleet.lease_p50_s": (percentile([e["dur"] * us for e, _ in leases], 0.5), "s"),
        "fleet.worker_busy_share": (
            ratio(sum(e["dur"] for e, _ in leases),
                  workers * sum(e["dur"] for e, _ in sweeps)), "share"),
    })
    return m, span_table(events, selfs)


def per_layer(doc, untraced_wall):
    traced = [it for it in doc["iterations"] if it["traced"]]
    workers = doc["provenance"].get("fleet_workers", 0)
    samples, table, dropped = [], None, 0
    for it in traced:
        with open(it["obs"]["trace"]) as f:
            trace_doc = json.load(f)
        with open(it["obs"]["metrics"]) as f:
            metrics_doc = json.load(f)
        m, table = layer_metrics(trace_doc, metrics_doc, it.get("fleet"), workers)
        samples.append(m)
        dropped = max(dropped, it["obs"]["dropped_events"])
    metrics = {name: (statistics.median(s[name][0] for s in samples), unit)
               for name, (_, unit) in samples[0].items()}
    traced_wall = statistics.median(it["wall_s"] for it in traced)
    metrics["obs.trace_overhead_share"] = (traced_wall / untraced_wall - 1.0, "share")
    metrics["obs.dropped_events"] = (dropped, "count")
    return metrics, table, dropped


def print_profile(table):
    """Prints the span table; self% is the share of all self time, summed over
    every thread and process."""
    total = sum(row[2] for row in table.values()) or 1
    print(f"{'span':<20} {'count':>8} {'total_s':>10} {'self_s':>10} {'self%':>7}")
    for name, (n, tot, slf) in sorted(table.items(), key=lambda kv: -kv[1][2]):
        print(f"{name:<20} {n:>8} {tot * 1e-6:>10.3f} {slf * 1e-6:>10.3f} "
              f"{100.0 * slf / total:>6.1f}%")


# ---- main -------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="reduced-size inputs (the benchmark's own tests)")
    ap.add_argument("--write-golden", metavar="PATH",
                    help="record this run's digests as goldens for its seed")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    harness, worker = build()
    out_dir = os.path.join(ROOT, ".bench_build", "runs", f"{args.workload}-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    try:
        doc = run_harness(harness, worker, args, out_dir)
        mode = "quick" if args.quick else "full"
        golden = load_golden(GOLDEN, mode, args.workload, args.seed)
        if golden is None:
            log(f"perfbench: no golden digests for {mode} {args.workload} seed "
                f"{args.seed}; checking run-to-run agreement and completion only")
        attempted, failed, problems = check_outputs(doc["iterations"], golden)
        for p in problems:
            log(f"perfbench: FAILED {p}")
        if args.write_golden:
            write_golden(args.write_golden, mode, args.workload, args.seed,
                         doc["iterations"], failed)

        metrics = end_to_end(doc)
        if args.trace:
            metrics, table, dropped = per_layer(doc, metrics["wall_s"][0])
            print_profile(table)
            if dropped:
                print(f"profile is PARTIAL: {dropped} trace events were dropped")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    print("provenance: " + json.dumps(doc["provenance"], sort_keys=True))
    print(f"operations: {attempted} attempted, {failed} failed "
          f"(failed_share {failed / attempted:.4f}); golden "
          f"{'checked' if golden else 'absent'}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<34} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
