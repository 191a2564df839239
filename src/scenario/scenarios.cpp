#include <algorithm>
#include <cctype>
#include <fstream>
#include <memory>
#include <ostream>
#include <span>
#include <sstream>
#include <stdexcept>

#include "src/core/mapper.h"
#include "src/core/moo.h"
#include "src/dnn/model_zoo.h"
#include "src/dnn/transformer.h"
#include "src/pim/partitioner.h"
#include "src/scenario/registry.h"
#include "src/serve/cluster.h"
#include "src/serve/simulator.h"
#include "src/serve/sweep.h"
#include "src/thermal/power.h"
#include "src/topo/mesh.h"
#include "src/util/table.h"

/// The built-in figure/table scenarios: the sweep-driven paper benches,
/// expressed as (spec, report function) pairs over the shared engine.
/// Each report function is the *only* implementation of its figure — the
/// standalone bench binaries and the floretsim_run driver both execute it
/// through the registry, which is what makes their rows bit-identical.

namespace floretsim::scenario {
namespace {

namespace experiment = core::experiment;
using experiment::Arch;

/// Extracts the spec alternative a report function needs, naming both the
/// scenario and the offending kind on a mismatch.
template <typename Spec>
const Spec& as_kind(const SpecVariant& spec, const char* scenario,
                    const char* kind) {
    if (const auto* s = std::get_if<Spec>(&spec)) return *s;
    throw std::invalid_argument(std::string(scenario) + " needs a \"" + kind +
                                "\" spec, got " + spec_kind_name(spec));
}

const core::SweepSpec& as_sweep(const SpecVariant& spec, const char* scenario) {
    return as_kind<core::SweepSpec>(spec, scenario, "sweep");
}

const ServeGridSpec& as_serve_grid(const SpecVariant& spec, const char* scenario) {
    return as_kind<ServeGridSpec>(spec, scenario, "serve_grid");
}

const ClusterSpec& as_cluster(const SpecVariant& spec, const char* scenario) {
    return as_kind<ClusterSpec>(spec, scenario, "cluster");
}

const Moo3dSpec& as_moo3d(const SpecVariant& spec, const char* scenario) {
    return as_kind<Moo3dSpec>(spec, scenario, "moo3d");
}

const TransformerSpec& as_transformer(const SpecVariant& spec,
                                      const char* scenario) {
    return as_kind<TransformerSpec>(spec, scenario, "transformer");
}

const ScalingSpec& as_scaling(const SpecVariant& spec, const char* scenario) {
    return as_kind<ScalingSpec>(spec, scenario, "scaling");
}

/// Index of the normalization architecture: Floret when swept (the
/// paper's baseline), otherwise the first architecture — looked up by
/// Arch, never by position, so reordering spec.archs cannot silently
/// normalize against the wrong column.
std::size_t norm_arch_index(const core::SweepSpec& spec) {
    for (std::size_t a = 0; a < spec.archs.size(); ++a)
        if (spec.archs[a] == Arch::kFloret) return a;
    return 0;
}

/// Row label for (mix, grid): the mix name, qualified by the grid size
/// when the spec sweeps more than one grid.
std::string row_label(const core::SweepSpec& spec, std::size_t g, std::size_t m) {
    std::string label = spec.mixes[m].name;
    if (spec.grids.size() > 1)
        label += "@" + std::to_string(spec.grids[g].first) + "x" +
                 std::to_string(spec.grids[g].second);
    return label;
}

// ---- fig3 / fig5: normalized latency & energy sweeps ------------------------

/// Shared shape of the Fig. 3/5 reports: run the arch x grid x mix sweep,
/// normalize a per-point metric to the Floret column, tabulate.
template <typename Metric>
JsonReport normalized_sweep_report(const core::SweepSpec& spec, RunContext& ctx,
                                   const std::string& report_name,
                                   const std::string& table_key,
                                   const std::string& value_label, Metric metric,
                                   double unit_scale, int unit_precision,
                                   bool warn_on_cap, double* worst_ratio_out,
                                   std::vector<double>* arch_ratio_sums_out) {
    if (spec.archs.empty() || spec.mixes.empty() || spec.grids.empty())
        throw std::invalid_argument(report_name +
                                    ": spec needs archs, grids, and mixes");
    const auto sweep = ctx.engine.run(spec);
    const std::size_t norm = norm_arch_index(spec);

    std::vector<std::string> header{"Mix"};
    for (const auto a : spec.archs) header.emplace_back(experiment::arch_name(a));
    header.push_back(std::string(experiment::arch_name(spec.archs[norm])) + " " +
                     value_label);
    util::TextTable t(header);

    double worst_ratio = 0.0;
    std::vector<double> ratio_sums(spec.archs.size(), 0.0);
    for (std::size_t g = 0; g < spec.grids.size(); ++g) {
        for (std::size_t m = 0; m < spec.mixes.size(); ++m) {
            std::vector<double> value;
            for (std::size_t a = 0; a < spec.archs.size(); ++a) {
                const auto& row = sweep.at(a, g, m);
                if (warn_on_cap && !row.result.all_completed)
                    ctx.out << "warning: " << experiment::arch_name(row.point.arch)
                            << "/" << row.point.mix.name
                            << " hit the cycle cap\n";
                value.push_back(metric(row.result));
            }
            const double base = value[norm];
            std::vector<std::string> cells{row_label(spec, g, m)};
            for (std::size_t a = 0; a < spec.archs.size(); ++a) {
                const double ratio = value[a] / base;
                ratio_sums[a] += ratio;
                if (a != norm) worst_ratio = std::max(worst_ratio, ratio);
                cells.push_back(a == norm ? "1.00" : util::TextTable::fmt(ratio));
            }
            cells.push_back(
                util::TextTable::fmt(base / unit_scale, unit_precision));
            t.add_row(std::move(cells));
        }
    }
    t.print(ctx.out);

    JsonReport report(report_name);
    report.add_table(table_key, t);
    if (worst_ratio_out) *worst_ratio_out = worst_ratio;
    if (arch_ratio_sums_out) *arch_ratio_sums_out = ratio_sums;
    report.add_metric("sweep_wall_seconds", sweep.wall_seconds);
    report.add_metric("sweep_threads", ctx.engine.thread_count());
    add_point_timing(report, sweep);
    ctx.out << "\nSweep: " << sweep.rows.size() << " points on "
            << ctx.engine.thread_count() << " thread(s) in "
            << util::TextTable::fmt(sweep.wall_seconds, 2) << " s\n";
    return report;
}

JsonReport fig3_report(const SpecVariant& sv, RunContext& ctx) {
    const auto& spec = as_sweep(sv, "fig3");
    ctx.out << "=== Fig. 3: NoI latency, " << spec.grids.front().first *
                   spec.grids.front().second
            << " chiplets (normalized to "
            << experiment::arch_name(spec.archs[norm_arch_index(spec)])
            << ") ===\n\n";
    double worst_ratio = 0.0;
    auto report = normalized_sweep_report(
        spec, ctx, "fig3_latency", "latency_normalized", "cycles",
        [](const experiment::DynamicResult& r) { return r.total_cycles; },
        /*unit_scale=*/1.0, /*unit_precision=*/0, /*warn_on_cap=*/true,
        &worst_ratio, nullptr);
    report.add_metric("worst_ratio", worst_ratio);
    ctx.out << "Worst baseline/"
            << experiment::arch_name(spec.archs[norm_arch_index(spec)])
            << " ratio observed: " << util::TextTable::fmt(worst_ratio)
            << "  (paper: up to 2.24x vs Kite/SIAM)\n";
    return report;
}

JsonReport fig5_report(const SpecVariant& sv, RunContext& ctx) {
    const auto& spec = as_sweep(sv, "fig5");
    const std::size_t norm = norm_arch_index(spec);
    ctx.out << "=== Fig. 5: NoI energy, " << spec.grids.front().first *
                   spec.grids.front().second
            << " chiplets (normalized to " << experiment::arch_name(spec.archs[norm])
            << ") ===\n\n";
    std::vector<double> ratio_sums;
    auto report = normalized_sweep_report(
        spec, ctx, "fig5_energy", "energy_normalized", "uJ",
        [](const experiment::DynamicResult& r) { return r.total_energy_pj; },
        /*unit_scale=*/1e6, /*unit_precision=*/2, /*warn_on_cap=*/false, nullptr,
        &ratio_sums);
    const double n = static_cast<double>(spec.mixes.size() * spec.grids.size());
    ctx.out << "Mean energy vs " << experiment::arch_name(spec.archs[norm]) << ":";
    for (std::size_t a = 0; a < spec.archs.size(); ++a) {
        if (a == norm) continue;
        const double mean = ratio_sums[a] / n;
        ctx.out << "  " << experiment::arch_name(spec.archs[a]) << " "
                << util::TextTable::fmt(mean) << "x";
        report.add_metric("mean_" + ascii_lower(experiment::arch_name(spec.archs[a])) +
                              "_over_" +
                              ascii_lower(experiment::arch_name(spec.archs[norm])),
                          mean);
    }
    ctx.out << "   (paper: Kite 2.8x, SIAM 1.65x)\n";
    return report;
}

// ---- table2: demand accounting + the dynamic makespan sweep -----------------

JsonReport table2_report(const SpecVariant& sv, RunContext& ctx) {
    const auto& spec = as_sweep(sv, "table2");
    ctx.out << "=== Table II: concurrent DNN task mixes ("
            << spec.grids.front().first * spec.grids.front().second
            << "-chiplet system) ===\n"
            << "chiplet capacity " << experiment::kParamsPerChipletM
            << "M params; demand = sum of per-task packed partitions\n\n";

    // Capacity follows the (overridable) grid, not a hardcoded 100.
    const std::int32_t capacity =
        spec.grids.front().first * spec.grids.front().second;
    util::TextTable t({"Name", "Tasks", "Table-I params (B)", "Paper total (B)",
                       "Chiplet demand", "Fits " + std::to_string(capacity) + "?"});
    for (const auto& mix : spec.mixes) {
        std::vector<std::unique_ptr<dnn::Network>> owner;
        const auto queue = workload::expand_mix(mix);
        const auto tasks =
            core::make_tasks(queue, experiment::kParamsPerChipletM, owner);
        std::int32_t demand = 0;
        for (const auto& task : tasks) demand += task.plan.total_chiplets;
        t.add_row({mix.name, std::to_string(mix.total_instances()),
                   util::TextTable::fmt(mix.table_params_m() / 1e3, 3),
                   util::TextTable::fmt(mix.paper_total_params_b, 1),
                   std::to_string(demand),
                   demand <= capacity ? "yes" : "no (queue waits)"});
    }
    t.print(ctx.out);

    ctx.out << "\nMix composition:\n";
    for (const auto& mix : spec.mixes) {
        ctx.out << "  " << mix.name << ": ";
        for (std::size_t i = 0; i < mix.entries.size(); ++i) {
            if (i) ctx.out << " -> ";
            ctx.out << mix.entries[i].second << "x" << mix.entries[i].first;
        }
        ctx.out << '\n';
    }

    util::TextTable d({"Mix", "NoI", "Makespan (kcyc)", "Energy (uJ)", "Rounds",
                       "Completed"});
    JsonReport report("table2_mixes");
    const auto sweep = ctx.engine.run(spec);
    std::int64_t stepped = 0, skipped = 0, jumps = 0, evals = 0, epoch_hits = 0;
    for (std::size_t g = 0; g < spec.grids.size(); ++g) {
        for (std::size_t m = 0; m < spec.mixes.size(); ++m) {
            for (std::size_t a = 0; a < spec.archs.size(); ++a) {
                const auto& row = sweep.at(a, g, m);
                d.add_row({row_label(spec, g, m),
                           experiment::arch_name(row.point.arch),
                           util::TextTable::fmt(row.result.total_cycles / 1e3, 1),
                           util::TextTable::fmt(row.result.total_energy_pj / 1e6, 1),
                           std::to_string(row.result.rounds),
                           row.result.all_completed ? "yes" : "NO"});
                stepped += row.result.sim_cycles_stepped;
                skipped += row.result.sim_cycles_skipped;
                jumps += row.result.sim_horizon_jumps;
                evals += row.result.noi_evals;
                epoch_hits += row.result.round_epoch_hits;
            }
        }
    }
    add_point_timing(report, sweep);

    ctx.out << "\n=== Dynamic makespan sweep (arch x mix) ===\n\n";
    d.print(ctx.out);
    const double skip_fraction =
        stepped + skipped > 0
            ? static_cast<double>(skipped) / static_cast<double>(stepped + skipped)
            : 0.0;
    ctx.out << "\nSweep: " << sweep.rows.size() << " points, SweepEngine, "
            << ctx.engine.thread_count() << " thread(s), "
            << util::TextTable::fmt(sweep.wall_seconds, 2) << " s\n"
            << "Simulator: " << stepped << " cycles stepped, " << skipped
            << " skipped (" << util::TextTable::fmt(100.0 * skip_fraction, 1)
            << "% of simulated time) in " << jumps << " horizon jumps; " << evals
            << " NoI evals, " << epoch_hits
            << " rounds reused by the residency epoch cache\n";

    report.add_table("demand", t);
    report.add_table("dynamic_sweep", d);
    report.add_metric("sweep_wall_seconds", sweep.wall_seconds);
    report.add_metric("sweep_threads", ctx.engine.thread_count());
    report.add_metric("sweep_serial", 0.0);
    report.add_metric("sim_cycles_stepped", static_cast<double>(stepped));
    report.add_metric("sim_cycles_skipped", static_cast<double>(skipped));
    report.add_metric("sim_horizon_jumps", static_cast<double>(jumps));
    report.add_metric("sim_skip_fraction", skip_fraction);
    report.add_metric("noi_evals", static_cast<double>(evals));
    report.add_metric("round_epoch_hits", static_cast<double>(epoch_hits));
    return report;
}

// ---- fig4: utilization under greedy vs SFC mapping --------------------------

/// Renders a w x h die with one letter per mapped task ('.' = unmapped).
void print_die(std::ostream& out, const std::vector<core::MappedTask>& mapped,
               std::int32_t w, std::int32_t h) {
    std::vector<char> cell(static_cast<std::size_t>(w) * static_cast<std::size_t>(h),
                           '.');
    char label = 'A';
    for (const auto& m : mapped) {
        if (!m.mapped) continue;
        for (const auto n : m.nodes) cell[static_cast<std::size_t>(n)] = label;
        label = label == 'Z' ? 'A' : static_cast<char>(label + 1);
    }
    for (std::int32_t y = 0; y < h; ++y) {
        out << "  ";
        for (std::int32_t x = 0; x < w; ++x)
            out << cell[static_cast<std::size_t>(y * w + x)] << ' ';
        out << '\n';
    }
}

JsonReport fig4_report(const SpecVariant& sv, RunContext& ctx) {
    const auto& spec = as_sweep(sv, "fig4");
    if (spec.archs.empty() || spec.mixes.empty() || spec.grids.empty())
        throw std::invalid_argument("fig4: spec needs archs, grids, and mixes");
    const auto [w, h] = spec.grids.front();
    ctx.out << "=== Fig. 4: resource utilization under greedy vs SFC mapping ===\n"
            << "(greedy constrained to <=" << spec.greedy_max_gap
            << "-hop gaps between consecutive layers,\n"
            << " as in the paper's contiguity requirement)\n\n";

    // Mapping is cheap per point but there are mixes x archs of them, and
    // they share the fabrics — a natural engine.map with a hot cache.
    auto& engine = ctx.engine;
    const auto stats =
        engine.map(spec.mixes.size() * spec.archs.size(), [&](std::size_t i) {
            const auto& mix = spec.mixes[i / spec.archs.size()];
            const auto arch = spec.archs[i % spec.archs.size()];
            auto b = experiment::build_arch(engine.cache(), arch, w, h,
                                            spec.swap_seed, spec.greedy_max_gap);
            std::vector<std::unique_ptr<dnn::Network>> owner;
            const auto queue = workload::expand_mix(mix);
            const auto tasks =
                core::make_tasks(queue, experiment::kParamsPerChipletM, owner);
            core::MappingStats s;
            (void)b.mapper->map_queue(tasks, &s);
            return s;
        });

    util::TextTable t({"Mix", "NoI", "Mapped chiplets", "Unmapped", "Tasks ok",
                       "Tasks failed", "Utilization"});
    for (std::size_t i = 0; i < stats.size(); ++i) {
        const auto& s = stats[i];
        t.add_row({spec.mixes[i / spec.archs.size()].name,
                   experiment::arch_name(spec.archs[i % spec.archs.size()]),
                   std::to_string(s.nodes_used),
                   std::to_string(s.nodes_total - s.nodes_used),
                   std::to_string(s.tasks_mapped), std::to_string(s.tasks_failed),
                   util::TextTable::fmt(100.0 * s.utilization(), 1) + "%"});
    }
    t.print(ctx.out);

    // Fig. 4's visual: the first and last swept architectures' dies after
    // greedily mapping the first mix (canonically SWAP vs Floret).
    std::vector<std::unique_ptr<dnn::Network>> owner;
    const auto queue = workload::expand_mix(spec.mixes.front());
    const auto tasks = core::make_tasks(queue, experiment::kParamsPerChipletM, owner);
    for (const auto arch : {spec.archs.front(), spec.archs.back()}) {
        ctx.out << "\n"
                << experiment::arch_name(arch) << " die after greedy mapping of "
                << spec.mixes.front().name << " (letter = task, . = NM):\n";
        auto b = experiment::build_arch(engine.cache(), arch, w, h, spec.swap_seed,
                                        arch == Arch::kFloret ? -1
                                                              : spec.greedy_max_gap);
        print_die(ctx.out, b.mapper->map_queue(tasks, nullptr), w, h);
    }
    ctx.out << "\nPaper shape: SWAP/SIAM strand NM chiplets under load; Floret "
               "consumes the SFC order fully before any task fails.\n";

    JsonReport report("fig4_utilization");
    report.add_table("utilization", t);
    return report;
}

// ---- serving: the SLA-knee grid ---------------------------------------------

constexpr double kKneeViolationRate = 0.05;

JsonReport serving_report(const SpecVariant& sv, RunContext& ctx) {
    const auto& spec = as_serve_grid(sv, "serving");
    if (spec.archs.empty() || spec.loads_per_mcycle.empty())
        throw std::invalid_argument("serving: spec needs archs and loads");
    const auto& base = spec.base;

    ctx.out << "=== Serving SLA knee: arch x offered load (" << base.width << "x"
            << base.height << ", " << base.config.arrivals.max_requests
            << " requests x " << base.replications << " replications) ===\n"
            << "tenants:";
    // Describe the tenants/policy the spec actually configures (empty
    // classes select the serve-layer defaults at run time).
    const auto classes = base.config.classes.empty()
                             ? serve::default_request_classes()
                             : base.config.classes;
    for (std::size_t c = 0; c < classes.size(); ++c)
        ctx.out << (c ? " + " : " ") << classes[c].name << " ("
                << util::TextTable::fmt(classes[c].slo_cycles / 1e3, 0)
                << " kcyc SLO)";
    ctx.out << ", " << serve::admission_policy_name(base.config.admission)
            << " admission\nknee threshold: violation rate > "
            << 100.0 * kKneeViolationRate << "%\n\n";

    // Flatten arch x load x replication into one engine fan-out so the
    // slowest (highest-load) points overlap with everything else.
    struct Cell {
        std::size_t arch_idx, load_idx;
    };
    std::vector<Cell> cells;
    for (std::size_t a = 0; a < spec.archs.size(); ++a)
        for (std::size_t l = 0; l < spec.loads_per_mcycle.size(); ++l)
            cells.push_back({a, l});

    auto& engine = ctx.engine;
    const auto n_reps = static_cast<std::size_t>(std::max(base.replications, 1));
    std::vector<double> point_seconds;
    const auto runs = engine.timed_map(
        cells.size() * n_reps,
        [&](std::size_t i) {
            const Cell& cell = cells[i / n_reps];
            auto arch = experiment::build_arch(engine.cache(),
                                               spec.archs[cell.arch_idx],
                                               base.width, base.height,
                                               base.swap_seed, base.greedy_max_gap);
            serve::ServeConfig cfg = base.config;
            cfg.arrivals.rate_per_mcycle = spec.loads_per_mcycle[cell.load_idx];
            cfg.seed = base.base_seed + i % n_reps;
            return serve::serve_requests(arch, cfg);
        },
        point_seconds);

    // Per-load labels: fmt(load, 0) as in the paper tables, disambiguated
    // by index when two user-set loads round to the same text — metric
    // keys must stay unique or the strict JSON contract breaks.
    std::vector<std::string> load_labels;
    for (const double l : spec.loads_per_mcycle)
        load_labels.push_back(util::TextTable::fmt(l, 0));
    for (std::size_t l = 0; l < load_labels.size(); ++l)
        for (std::size_t k = 0; k < l; ++k)
            if (load_labels[k] == load_labels[l]) {
                load_labels[l] += "#" + std::to_string(l);
                break;
            }

    util::TextTable t({"NoI", "Load (req/Mcyc)", "Delivered", "p50 (kcyc)",
                       "p95 (kcyc)", "p99 (kcyc)", "Util", "Queue", "SLA viol"});
    JsonReport report("serving_sla");
    std::vector<double> knee(spec.archs.size(), -1.0);
    for (std::size_t c = 0; c < cells.size(); ++c) {
        const auto& cell = cells[c];
        const std::span<const serve::ServeStats> reps(&runs[c * n_reps], n_reps);
        const auto agg = serve::aggregate(reps);
        const std::string arch = experiment::arch_name(spec.archs[cell.arch_idx]);
        const std::string& load = load_labels[cell.load_idx];
        t.add_row({arch, load,
                   util::TextTable::fmt(agg.mean_throughput_per_mcycle, 1),
                   util::TextTable::fmt(agg.p50_latency_cycles / 1e3, 1),
                   util::TextTable::fmt(agg.p95_latency_cycles / 1e3, 1),
                   util::TextTable::fmt(agg.p99_latency_cycles / 1e3, 1),
                   util::TextTable::fmt(100.0 * agg.mean_utilization, 1) + "%",
                   util::TextTable::fmt(agg.mean_queue_depth, 1),
                   util::TextTable::fmt(100.0 * agg.sla_violation_rate(), 1) + "%"});
        const std::string key = arch + "_load" + load;
        report.add_metric(key + "_p50_kcyc", agg.p50_latency_cycles / 1e3);
        report.add_metric(key + "_p95_kcyc", agg.p95_latency_cycles / 1e3);
        report.add_metric(key + "_p99_kcyc", agg.p99_latency_cycles / 1e3);
        report.add_metric(key + "_sla_violation_rate", agg.sla_violation_rate());
        report.add_metric(key + "_throughput_per_mcyc",
                          agg.mean_throughput_per_mcycle);
        if (agg.sla_violation_rate() > kKneeViolationRate) {
            // Lowest violating load, independent of the (user-settable)
            // load-list ordering.
            const double l = spec.loads_per_mcycle[cell.load_idx];
            if (knee[cell.arch_idx] < 0.0 || l < knee[cell.arch_idx])
                knee[cell.arch_idx] = l;
        }
    }
    t.print(ctx.out);

    const double max_load = *std::max_element(spec.loads_per_mcycle.begin(),
                                              spec.loads_per_mcycle.end());
    ctx.out << "\nSLA knee (lowest load with violation rate > "
            << 100.0 * kKneeViolationRate << "%):\n";
    for (std::size_t a = 0; a < spec.archs.size(); ++a) {
        ctx.out << "  " << experiment::arch_name(spec.archs[a]) << ": "
                << (knee[a] < 0.0 ? "beyond " + util::TextTable::fmt(max_load, 0)
                                  : util::TextTable::fmt(knee[a], 0))
                << " req/Mcyc\n";
        report.add_metric(
            std::string(experiment::arch_name(spec.archs[a])) + "_knee_load",
            knee[a]);
    }
    std::int64_t stepped = 0, skipped = 0, jumps = 0, rounds = 0, hits = 0;
    for (const auto& s : runs) {
        stepped += s.sim_cycles_stepped;
        skipped += s.sim_cycles_skipped;
        jumps += s.sim_horizon_jumps;
        rounds += s.noi_rounds;
        hits += s.noi_cache_hits;
    }
    const double skip_fraction =
        stepped + skipped > 0
            ? static_cast<double>(skipped) / static_cast<double>(stepped + skipped)
            : 0.0;
    ctx.out << "\nSimulator: " << stepped << " cycles stepped, " << skipped
            << " skipped (" << util::TextTable::fmt(100.0 * skip_fraction, 1)
            << "% of simulated time) in " << jumps << " horizon jumps; " << rounds
            << " NoI rounds, " << hits << " reused under an unchanged residency\n";
    report.add_metric("sim_cycles_stepped", static_cast<double>(stepped));
    report.add_metric("sim_cycles_skipped", static_cast<double>(skipped));
    report.add_metric("sim_horizon_jumps", static_cast<double>(jumps));
    report.add_metric("sim_skip_fraction", skip_fraction);
    report.add_metric("noi_rounds", static_cast<double>(rounds));
    report.add_metric("noi_cache_hits", static_cast<double>(hits));
    add_point_timing(report, point_seconds);

    ctx.out << "\nShape: contiguity-preserving mappers hold the latency "
               "tail flat deeper into the load sweep; the knee is where "
               "queueing delay overwhelms the SLO budget.\n";

    report.add_table("sla_sweep", t);
    return report;
}

// ---- cluster: the capacity-planning grid ------------------------------------

/// Disambiguates repeated formatted labels with a "#idx" suffix, as the
/// serving report does for loads — metric keys must stay unique or the
/// strict JSON contract breaks.
std::vector<std::string> unique_labels(std::vector<std::string> labels) {
    for (std::size_t l = 0; l < labels.size(); ++l)
        for (std::size_t k = 0; k < l; ++k)
            if (labels[k] == labels[l]) {
                labels[l] += "#" + std::to_string(l);
                break;
            }
    return labels;
}

JsonReport cluster_report(const SpecVariant& sv, RunContext& ctx) {
    const auto& spec = as_cluster(sv, "cluster");
    const auto& base = spec.base;

    ctx.out << "=== Serving capacity plan: cluster size x batch cap x load ("
            << experiment::arch_name(base.arch) << " " << base.width << "x"
            << base.height << " fabrics, " << base.config.arrivals.max_requests
            << " requests x " << base.replications << " replications, "
            << serve::balance_policy_name(spec.balance) << " routing, "
            << serve::admission_policy_name(base.config.admission)
            << " admission) ===\nknee threshold: violation rate > "
            << 100.0 * kKneeViolationRate << "%\n\n";

    // Flatten K x batch x load x replication into one engine fan-out so the
    // saturated (overload) points overlap with everything else. The K
    // fabrics of a cell are replicas of the base arch built over the shared
    // fabric cache: only the first build per process pays.
    struct Cell {
        std::size_t k_idx, b_idx, load_idx;
    };
    std::vector<Cell> cells;
    for (std::size_t k = 0; k < spec.cluster_sizes.size(); ++k)
        for (std::size_t b = 0; b < spec.batch_caps.size(); ++b)
            for (std::size_t l = 0; l < spec.loads_per_mcycle.size(); ++l)
                cells.push_back({k, b, l});

    auto& engine = ctx.engine;
    const auto n_reps = static_cast<std::size_t>(std::max(base.replications, 1));
    std::vector<double> point_seconds;
    const auto runs = engine.timed_map(
        cells.size() * n_reps,
        [&](std::size_t i) {
            const Cell& cell = cells[i / n_reps];
            const auto fabric_count =
                static_cast<std::size_t>(spec.cluster_sizes[cell.k_idx]);
            std::vector<experiment::BuiltArch> fabrics;
            fabrics.reserve(fabric_count);
            for (std::size_t f = 0; f < fabric_count; ++f)
                fabrics.push_back(experiment::build_arch(
                    engine.cache(), base.arch, base.width, base.height,
                    base.swap_seed, base.greedy_max_gap));
            serve::ServeConfig cfg = base.config;
            cfg.max_batch = spec.batch_caps[cell.b_idx];
            cfg.arrivals.rate_per_mcycle = spec.loads_per_mcycle[cell.load_idx];
            cfg.seed = base.base_seed + i % n_reps;
            return serve::serve_cluster(fabrics, cfg, spec.balance);
        },
        point_seconds);

    std::vector<std::string> k_labels, b_labels, load_labels;
    for (const auto k : spec.cluster_sizes)
        k_labels.push_back(std::to_string(k));
    for (const auto b : spec.batch_caps) b_labels.push_back(std::to_string(b));
    for (const double l : spec.loads_per_mcycle)
        load_labels.push_back(util::TextTable::fmt(l, 0));
    k_labels = unique_labels(std::move(k_labels));
    b_labels = unique_labels(std::move(b_labels));
    load_labels = unique_labels(std::move(load_labels));

    util::TextTable t({"K", "Batch", "Load (req/Mcyc)", "Delivered",
                       "p99 (kcyc)", "Util", "SLA viol", "Batched", "Preempt",
                       "Evict"});
    JsonReport report("cluster_capacity");
    // SLA knee per (K, batch) curve: the lowest violating load.
    std::vector<double> knee(spec.cluster_sizes.size() * spec.batch_caps.size(),
                             -1.0);
    std::int64_t total_batched = 0, total_preempt = 0, total_evict = 0;
    std::int64_t affinity_hits = 0;
    for (std::size_t c = 0; c < cells.size(); ++c) {
        const auto& cell = cells[c];
        std::vector<serve::ServeStats> reps;
        reps.reserve(n_reps);
        for (std::size_t r = 0; r < n_reps; ++r) {
            reps.push_back(runs[c * n_reps + r].serve);
            affinity_hits += runs[c * n_reps + r].affinity_hits;
        }
        const auto agg = serve::aggregate(reps);
        total_batched += agg.batched_requests;
        total_preempt += agg.preemptions;
        total_evict += agg.evictions;
        t.add_row({k_labels[cell.k_idx], b_labels[cell.b_idx],
                   load_labels[cell.load_idx],
                   util::TextTable::fmt(agg.mean_throughput_per_mcycle, 1),
                   util::TextTable::fmt(agg.p99_latency_cycles / 1e3, 1),
                   util::TextTable::fmt(100.0 * agg.mean_utilization, 1) + "%",
                   util::TextTable::fmt(100.0 * agg.sla_violation_rate(), 1) +
                       "%",
                   std::to_string(agg.batched_requests),
                   std::to_string(agg.preemptions),
                   std::to_string(agg.evictions)});
        const std::string key = "k" + k_labels[cell.k_idx] + "_b" +
                                b_labels[cell.b_idx] + "_load" +
                                load_labels[cell.load_idx];
        report.add_metric(key + "_p99_kcyc", agg.p99_latency_cycles / 1e3);
        report.add_metric(key + "_sla_violation_rate", agg.sla_violation_rate());
        report.add_metric(key + "_throughput_per_mcyc",
                          agg.mean_throughput_per_mcycle);
        report.add_metric(key + "_batched",
                          static_cast<double>(agg.batched_requests));
        report.add_metric(key + "_preemptions",
                          static_cast<double>(agg.preemptions));
        if (agg.sla_violation_rate() > kKneeViolationRate) {
            const double l = spec.loads_per_mcycle[cell.load_idx];
            double& cur = knee[cell.k_idx * spec.batch_caps.size() + cell.b_idx];
            if (cur < 0.0 || l < cur) cur = l;
        }
    }
    t.print(ctx.out);

    // The capacity curve: where each (K, batch) configuration's SLA knee
    // sits. A knee that moves right with K or batch cap is capacity bought
    // by scale-out or coalescing.
    const double max_load = *std::max_element(spec.loads_per_mcycle.begin(),
                                              spec.loads_per_mcycle.end());
    ctx.out << "\nSLA knee per configuration (lowest load with violation rate > "
            << 100.0 * kKneeViolationRate << "%):\n";
    for (std::size_t k = 0; k < spec.cluster_sizes.size(); ++k)
        for (std::size_t b = 0; b < spec.batch_caps.size(); ++b) {
            const double v = knee[k * spec.batch_caps.size() + b];
            ctx.out << "  K=" << k_labels[k] << " batch=" << b_labels[b] << ": "
                    << (v < 0.0 ? "beyond " + util::TextTable::fmt(max_load, 0)
                                : util::TextTable::fmt(v, 0))
                    << " req/Mcyc\n";
            report.add_metric("k" + k_labels[k] + "_b" + b_labels[b] +
                                  "_knee_load",
                              v);
        }

    std::int64_t rounds = 0, hits = 0;
    for (const auto& r : runs) {
        rounds += r.serve.noi_rounds;
        hits += r.serve.noi_cache_hits;
    }
    ctx.out << "\nFrontend: " << affinity_hits
            << " arrivals routed onto a warm residency; " << total_batched
            << " requests rode a batch, " << total_preempt
            << " preempted across " << total_evict << " evictions; " << rounds
            << " NoI rounds, " << hits << " reused under an unchanged residency\n";
    report.add_metric("serve_batched_requests",
                      static_cast<double>(total_batched));
    report.add_metric("serve_preemptions", static_cast<double>(total_preempt));
    report.add_metric("serve_evictions", static_cast<double>(total_evict));
    report.add_metric("serve_affinity_hits",
                      static_cast<double>(affinity_hits));
    report.add_metric("noi_rounds", static_cast<double>(rounds));
    report.add_metric("noi_cache_hits", static_cast<double>(hits));
    add_point_timing(report, point_seconds);

    ctx.out << "\nShape: batching amortizes one fabric evaluation across "
               "coalesced requests and scale-out moves the knee right; "
               "eviction rescues deadline-critical tenants once the fabric "
               "saturates.\n";

    report.add_table("capacity", t);
    return report;
}

// ---- Generic sweep report (bare-spec scenario files) ------------------------

JsonReport generic_sweep(const SpecVariant& sv, RunContext& ctx) {
    const auto& spec = as_sweep(sv, "sweep");
    if (spec.archs.empty() || spec.mixes.empty() || spec.grids.empty())
        throw std::invalid_argument("sweep: spec needs archs, grids, and mixes");
    ctx.out << "=== Sweep: " << spec.archs.size() << " arch(s) x "
            << spec.grids.size() << " grid(s) x " << spec.mixes.size()
            << " mix(es) ===\n\n";
    const auto sweep = ctx.engine.run(spec);
    util::TextTable t({"Mix", "NoI", "Grid", "Makespan (kcyc)", "Energy (uJ)",
                       "Flit hops", "Rounds", "Completed"});
    for (std::size_t g = 0; g < spec.grids.size(); ++g) {
        for (std::size_t m = 0; m < spec.mixes.size(); ++m) {
            for (std::size_t a = 0; a < spec.archs.size(); ++a) {
                const auto& row = sweep.at(a, g, m);
                t.add_row({row.point.mix.name,
                           experiment::arch_name(row.point.arch),
                           std::to_string(row.point.width) + "x" +
                               std::to_string(row.point.height),
                           util::TextTable::fmt(row.result.total_cycles / 1e3, 1),
                           util::TextTable::fmt(row.result.total_energy_pj / 1e6, 1),
                           std::to_string(row.result.flit_hops),
                           std::to_string(row.result.rounds),
                           row.result.all_completed ? "yes" : "NO"});
            }
        }
    }
    t.print(ctx.out);
    ctx.out << "\nSweep: " << sweep.rows.size() << " points on "
            << ctx.engine.thread_count() << " thread(s) in "
            << util::TextTable::fmt(sweep.wall_seconds, 2) << " s\n";
    JsonReport report("sweep");
    report.add_table("sweep_rows", t);
    report.add_metric("sweep_wall_seconds", sweep.wall_seconds);
    report.add_metric("sweep_threads", ctx.engine.thread_count());
    add_point_timing(report, sweep);
    return report;
}

// ---- fig2: router ports & link structure ------------------------------------

JsonReport fig2_report(const SpecVariant& sv, RunContext& ctx) {
    const auto& spec = as_sweep(sv, "fig2");
    if (spec.archs.empty() || spec.grids.empty())
        throw std::invalid_argument("fig2: spec needs archs and grids");
    const auto [w, h] = spec.grids.front();
    ctx.out << "=== Fig. 2(a): router-port configuration, " << w * h
            << " chiplets ===\n\n";

    // The fabrics through the engine's shared cache (route tables are the
    // expensive part and other scenarios in a driver run reuse them).
    auto& engine = ctx.engine;
    const auto fabrics = engine.map(spec.archs.size(), [&](std::size_t i) {
        return engine.cache().get(spec.archs[i], w, h, spec.swap_seed);
    });

    std::size_t max_ports = 0;
    for (const auto& f : fabrics)
        max_ports = std::max(max_ports, f->topology.port_histogram().size());

    std::vector<std::string> header{"Ports"};
    for (const auto& f : fabrics)
        header.emplace_back(experiment::arch_name(f->arch));
    util::TextTable ports(header);
    for (std::size_t p = 1; p < max_ports; ++p) {
        std::vector<std::string> row{std::to_string(p)};
        std::uint64_t total = 0;
        for (const auto& f : fabrics) {
            const auto c = f->topology.port_histogram().at(p);
            total += c;
            row.push_back(std::to_string(c));
        }
        if (total > 0) ports.add_row(std::move(row));
    }
    ports.print(ctx.out);

    ctx.out << "\n=== Fig. 2(b): links, " << w * h << " chiplets ===\n\n";
    util::TextTable links({"NoI", "Total links", "1-hop", "2-hop", ">=3-hop",
                           "Mean length (mm)"});
    for (const auto& f : fabrics) {
        const auto spans = f->topology.link_span_histogram();
        std::uint64_t ge3 = 0;
        for (std::size_t s = 3; s < spans.size(); ++s) ge3 += spans.at(s);
        double len = 0.0;
        for (const auto& l : f->topology.links()) len += l.length_mm;
        links.add_row({experiment::arch_name(f->arch),
                       std::to_string(f->topology.link_count()),
                       std::to_string(spans.at(1)), std::to_string(spans.at(2)),
                       std::to_string(ge3),
                       util::TextTable::fmt(len / f->topology.link_count())});
    }
    links.print(ctx.out);

    ctx.out << "\nPaper shape check: Kite mode=4 ports & 2-hop links; SIAM 3-4 "
               "ports, 1-hop; SWAP 2-3 ports, some long links; Floret ~all "
               "2-port, fewest links.\n";

    JsonReport report("fig2_ports_links");
    report.add_table("ports", ports);
    report.add_table("links", links);
    return report;
}

// ---- fig6 / fig7 / m3d: 3D placement-optimization studies -------------------

core::MooConfig moo_config_of(const Moo3dSpec& s) {
    core::MooConfig moo;
    moo.iterations = s.iterations;
    moo.w_perf = s.w_perf;
    moo.w_thermal = s.w_thermal;
    moo.t_target_k = s.t_target_k;
    moo.seed = s.seed;
    return moo;
}

/// The thermal grid of the spec's width x height x depth stack — the
/// stack the route table is built over — under one integration variant.
thermal::ThermalConfig thermal_config_of(const Moo3dSpec& s, const Moo3dVariant& v) {
    thermal::ThermalConfig tcfg;
    tcfg.width = s.width;
    tcfg.height = s.height;
    tcfg.depth = s.depth;
    tcfg.g_vertical_w_per_k = v.g_vertical_w_per_k;
    return tcfg;
}

/// The stack variant a single-variant study runs: the baseline when the
/// spec lists none.
Moo3dVariant first_variant(const Moo3dSpec& s) {
    return s.variants.empty() ? Moo3dVariant{} : s.variants.front();
}

JsonReport fig6_report(const SpecVariant& sv, RunContext& ctx) {
    const auto& spec = as_moo3d(sv, "fig6");
    if (spec.workloads.empty())
        throw std::invalid_argument("fig6: spec needs workloads");
    ctx.out << "=== Fig. 6: " << spec.width * spec.height * spec.depth
            << "-PE 3D NoC, perf-only (Floret) vs joint "
               "perf-thermal mapping ===\n\n";

    const auto topo3d = topo::make_mesh3d(spec.width, spec.height, spec.depth);
    const auto routes = noc::RouteTable::build(topo3d, spec.routing);
    const thermal::ThermalConfig tcfg = thermal_config_of(spec, first_variant(spec));
    pim::ReramConfig rcfg;
    pim::ThermalAccuracyModel acc;
    core::PerfParams perf;
    const core::MooConfig moo = moo_config_of(spec);

    // Each DNN runs two simulated-annealing optimizations — by far the
    // heaviest per-item work of any scenario, and a perfect engine fan-out.
    struct Pair {
        core::PlacementEval perf_only;
        core::PlacementEval joint;
    };
    auto& engine = ctx.engine;
    const auto pairs = engine.map(spec.workloads.size(), [&](std::size_t i) {
        const auto& w = workload::workload_by_id(spec.workloads[i]);
        const auto net = dnn::build_model(w.model, w.dataset);
        const auto plan =
            pim::partition_by_params(net, w.paper_params_m, w.paper_params_m / 88.0);
        thermal::PowerParams pcfg;
        pcfg.inference_period_ns = pim::pipeline_period_ns(net, plan, rcfg);
        Pair p;
        p.perf_only = core::optimize_perf_only(net, plan, routes, tcfg, pcfg, rcfg,
                                               acc, perf, moo)
                          .eval;
        p.joint =
            core::optimize_joint(net, plan, routes, tcfg, pcfg, rcfg, acc, perf, moo)
                .eval;
        return p;
    });

    util::TextTable t({"DNN", "EDP gain of Floret", "Peak K (Floret)",
                       "Peak K (joint)", "Delta K", "Acc drop (Floret)",
                       "Acc drop (joint)"});
    double edp_gain_sum = 0.0;
    double delta_k_sum = 0.0;
    double worst_acc = 0.0;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        const auto& w = workload::workload_by_id(spec.workloads[i]);
        const auto& p = pairs[i];
        const double edp_gain = 100.0 * (p.joint.edp - p.perf_only.edp) / p.joint.edp;
        const double dk = p.perf_only.peak_k - p.joint.peak_k;
        edp_gain_sum += edp_gain;
        delta_k_sum += dk;
        worst_acc = std::max(worst_acc, p.perf_only.accuracy_drop);
        t.add_row({w.id + " (" + w.model + ")",
                   util::TextTable::fmt(edp_gain, 1) + "%",
                   util::TextTable::fmt(p.perf_only.peak_k, 1),
                   util::TextTable::fmt(p.joint.peak_k, 1),
                   util::TextTable::fmt(dk, 1),
                   util::TextTable::fmt(100.0 * p.perf_only.accuracy_drop, 1) + "%",
                   util::TextTable::fmt(100.0 * p.joint.accuracy_drop, 1) + "%"});
    }
    t.print(ctx.out);
    const double n = static_cast<double>(pairs.size());
    ctx.out << "\nMeans: Floret EDP advantage "
            << util::TextTable::fmt(edp_gain_sum / n, 1)
            << "% (paper ~9%), peak-T excess "
            << util::TextTable::fmt(delta_k_sum / n, 1)
            << " K (paper ~13 K), worst Floret accuracy drop "
            << util::TextTable::fmt(100.0 * worst_acc, 1) << "% (paper up to 11%).\n";

    JsonReport report("fig6_3d_edp_temp_acc");
    report.add_table("comparison", t);
    report.add_metric("mean_edp_gain_pct", edp_gain_sum / n);
    report.add_metric("mean_peak_excess_k", delta_k_sum / n);
    report.add_metric("worst_accuracy_drop", worst_acc);
    return report;
}

JsonReport fig7_report(const SpecVariant& sv, RunContext& ctx) {
    const auto& spec = as_moo3d(sv, "fig7");
    if (spec.workloads.empty())
        throw std::invalid_argument("fig7: spec needs workloads");
    const auto& w = workload::workload_by_id(spec.workloads.front());
    ctx.out << "=== Fig. 7: bottom-tier thermal maps, " << w.model << " on "
            << spec.width * spec.height * spec.depth << " PEs ===\n\n";

    const auto topo3d = topo::make_mesh3d(spec.width, spec.height, spec.depth);
    const auto routes = noc::RouteTable::build(topo3d, spec.routing);
    const thermal::ThermalConfig tcfg = thermal_config_of(spec, first_variant(spec));
    thermal::PowerParams pcfg;
    pim::ReramConfig rcfg;
    pim::ThermalAccuracyModel acc;
    core::PerfParams perf;
    const core::MooConfig moo = moo_config_of(spec);

    const auto net = dnn::build_model(w.model, w.dataset);
    const auto plan =
        pim::partition_by_params(net, w.paper_params_m, w.paper_params_m / 88.0);
    pcfg.inference_period_ns = pim::pipeline_period_ns(net, plan, rcfg);

    // The two annealing runs are independent — fan them out.
    auto& engine = ctx.engine;
    const auto results = engine.map(2, [&](std::size_t i) {
        return i == 0 ? core::optimize_perf_only(net, plan, routes, tcfg, pcfg, rcfg,
                                                 acc, perf, moo)
                      : core::optimize_joint(net, plan, routes, tcfg, pcfg, rcfg, acc,
                                             perf, moo);
    });

    const thermal::ThermalModel model(tcfg);
    auto render_for = [&](std::span<const topo::NodeId> order, const char* title) {
        const auto assign = pim::assign_layers(net, plan, order);
        const auto power = thermal::pe_power_map(net, assign, tcfg.cells(), pcfg);
        const auto res = model.solve(power);
        ctx.out << title << "\n"
                << thermal::render_tier(res, 0) << "peak " << res.peak_k()
                << " K, bottom-tier hotspots >340K: " << res.hotspot_count(0, 340.0)
                << "\n\n";
        return res;
    };

    const auto ra =
        render_for(results[0].pe_order, "(a) Floret-based 3D NoC (perf-only)");
    const auto rb = render_for(results[1].pe_order, "(b) Thermal-aware 3D NoC (joint)");

    const double delta = ra.peak_k() - rb.peak_k();
    ctx.out << "Peak delta (a)-(b): " << delta
            << " K   (paper: ~17 K for ResNet34)\n";

    JsonReport report("fig7_thermal_map");
    report.add_metric("peak_k_perf_only", ra.peak_k());
    report.add_metric("peak_k_joint", rb.peak_k());
    report.add_metric("peak_delta_k", delta);
    return report;
}

JsonReport m3d_report(const SpecVariant& sv, RunContext& ctx) {
    const auto& spec = as_moo3d(sv, "m3d_vs_tsv");
    if (spec.workloads.empty() || spec.variants.empty())
        throw std::invalid_argument("m3d_vs_tsv: spec needs workloads and variants");
    ctx.out << "=== M3D vs TSV 3D integration ("
            << spec.width * spec.height * spec.depth
            << " PEs, joint-optimized) ===\n\n";

    pim::ReramConfig rcfg;
    pim::ThermalAccuracyModel acc;
    core::PerfParams perf;
    const core::MooConfig moo = moo_config_of(spec);

    // workloads x integration variants, each a full joint optimization —
    // independent heavy points for the engine.
    const std::size_t nv = spec.variants.size();
    auto& engine = ctx.engine;
    const auto evals =
        engine.map(spec.workloads.size() * nv, [&](std::size_t i) {
            const auto& w = workload::workload_by_id(spec.workloads[i / nv]);
            const auto& v = spec.variants[i % nv];
            const auto net = dnn::build_model(w.model, w.dataset);
            const auto plan = pim::partition_by_params(net, w.paper_params_m,
                                                       w.paper_params_m / 88.0);
            const auto topo3d = topo::make_mesh3d(spec.width, spec.height, spec.depth);
            const auto routes = noc::RouteTable::build(topo3d, spec.routing);
            const thermal::ThermalConfig tcfg = thermal_config_of(spec, v);
            thermal::PowerParams pcfg;
            pcfg.inference_period_ns = pim::pipeline_period_ns(net, plan, rcfg);
            return core::optimize_joint(net, plan, routes, tcfg, pcfg, rcfg, acc,
                                        perf, moo)
                .eval;
        });

    util::TextTable t({"DNN", "Variant", "EDP (norm)", "Peak K", "Acc drop"});
    for (std::size_t d = 0; d < spec.workloads.size(); ++d) {
        const auto& w = workload::workload_by_id(spec.workloads[d]);
        const double edp_base = evals[d * nv].edp;  // first variant (TSV)
        for (std::size_t v = 0; v < nv; ++v) {
            const auto& res = evals[d * nv + v];
            t.add_row({w.id + " (" + w.model + ")", spec.variants[v].name,
                       util::TextTable::fmt(res.edp / edp_base),
                       util::TextTable::fmt(res.peak_k, 1),
                       util::TextTable::fmt(100.0 * res.accuracy_drop, 1) + "%"});
        }
    }
    t.print(ctx.out);
    ctx.out << "\nPaper (Section I): M3D's MIVs and thin ILD give better "
               "performance/energy and fewer thermal hotspots than TSV 3D.\n";

    JsonReport report("m3d_vs_tsv");
    report.add_table("comparison", t);
    return report;
}

// ---- hetero / transformer_storage: the Section IV Transformer studies -------

JsonReport hetero_report(const SpecVariant& sv, RunContext& ctx) {
    const auto& spec = as_transformer(sv, "hetero_transformer");
    if (spec.models.empty() || spec.batches.empty())
        throw std::invalid_argument("hetero_transformer: spec needs models and batches");
    ctx.out << "=== Heterogeneous vs all-PIM Transformer acceleration ===\n\n";

    std::vector<dnn::TransformerConfig> models;
    models.reserve(spec.models.size());
    for (const auto& name : spec.models)
        models.push_back(transformer_model_from_name(name));

    struct Cell {
        bool fits = false;
        std::int32_t reram_chiplets = 0;
        double compute_ns = 0.0;
        double write_ns = 0.0;
        double latency_ns = 0.0;
    };
    // models x {hetero, all-PIM}: independent system evaluations.
    auto& engine = ctx.engine;
    const auto cells = engine.map(models.size() * 2, [&](std::size_t i) {
        auto model = models[i / 2];
        model.batch = spec.batches.front();
        const bool all_pim = (i % 2) == 1;
        const auto sys = core::build_hetero_system(spec.hetero);
        const auto mapping = core::map_transformer(sys, model, spec.hetero, all_pim);
        Cell c;
        c.fits = mapping.fits;
        if (!mapping.fits) return c;
        const auto ev = core::evaluate_hetero(sys, mapping, model);
        c.reram_chiplets = mapping.reram_chiplets_used;
        c.compute_ns = ev.compute_ns;
        c.write_ns = ev.write_ns;
        c.latency_ns = ev.latency_ns;
        return c;
    });

    util::TextTable t({"Model", "System", "ReRAM chiplets", "Compute (us)",
                       "Write stalls (us)", "Latency (us)", "Slowdown"});
    for (std::size_t m = 0; m < models.size(); ++m) {
        const double hetero_latency = cells[m * 2].latency_ns;
        for (const bool all_pim : {false, true}) {
            const auto& c = cells[m * 2 + (all_pim ? 1 : 0)];
            if (!c.fits) {
                t.add_row({models[m].name, all_pim ? "all-PIM" : "heterogeneous",
                           "overflow", "-", "-", "-", "-"});
                continue;
            }
            t.add_row({models[m].name, all_pim ? "all-PIM" : "heterogeneous",
                       std::to_string(c.reram_chiplets),
                       util::TextTable::fmt(c.compute_ns / 1e3, 1),
                       util::TextTable::fmt(c.write_ns / 1e3, 1),
                       util::TextTable::fmt(c.latency_ns / 1e3, 1),
                       util::TextTable::fmt(c.latency_ns /
                                            std::max(1.0, hetero_latency)) +
                           "x"});
        }
    }
    t.print(ctx.out);
    ctx.out << "\nThe all-PIM design pays ReRAM write latency on every score\n"
               "matrix (and would exhaust crossbar endurance in hours); the\n"
               "SFC macro + SRAM modules split avoids it (Section IV).\n";

    JsonReport report("hetero_transformer");
    report.add_table("latency", t);
    return report;
}

JsonReport transformer_storage_report(const SpecVariant& sv, RunContext& ctx) {
    const auto& spec = as_transformer(sv, "transformer_storage");
    if (spec.models.empty() || spec.batches.empty())
        throw std::invalid_argument(
            "transformer_storage: spec needs models and batches");
    ctx.out << "=== Transformer intermediate-vs-weight storage (Section IV) ===\n\n";

    util::TextTable t({"Model", "Batch", "Weights (M)", "Intermediates (M)",
                       "Ratio"});
    for (const auto& name : spec.models) {
        auto cfg = transformer_model_from_name(name);
        for (const std::int32_t batch : spec.batches) {
            cfg.batch = batch;
            const auto s = dnn::analyze_storage(cfg);
            t.add_row({cfg.name, std::to_string(batch),
                       util::TextTable::fmt(static_cast<double>(s.weight_params) / 1e6, 1),
                       util::TextTable::fmt(static_cast<double>(s.intermediate_elems) / 1e6, 1),
                       util::TextTable::fmt(s.intermediate_over_weights()) + "x"});
        }
    }
    t.print(ctx.out);
    ctx.out << "\nPaper: BERT-Base 8.98x (lands near batch 6 here), BERT-Tiny "
               "2.06x (near batch 2).\n\n";

    ctx.out << "Kernel classes per encoder (heterogeneous mapping input):\n";
    util::TextTable k({"Kernel", "Class", "Weights", "GMACs (batch 1)"});
    const auto walk =
        dnn::kernel_walk(transformer_model_from_name(spec.models.front()));
    for (std::size_t i = 0; i < std::min<std::size_t>(7, walk.size()); ++i) {
        const auto& kn = walk[i];
        const char* cls = kn.cls == dnn::KernelClass::kStaticWeight ? "static (PIM)"
                          : kn.cls == dnn::KernelClass::kDynamicMatrix
                              ? "dynamic (no NVM)"
                              : "elementwise";
        k.add_row({kn.name, cls, std::to_string(kn.weight_params),
                   util::TextTable::fmt(static_cast<double>(kn.work_macs) / 1e9, 2)});
    }
    k.print(ctx.out);

    JsonReport report("transformer_storage");
    report.add_table("storage", t);
    report.add_table("kernels", k);
    return report;
}

// ---- ablation_scaling: system-size, petal-count, and weight-load studies ----

JsonReport ablation_report(const SpecVariant& sv, RunContext& ctx) {
    const auto& spec = as_scaling(sv, "ablation_scaling");
    if (spec.sides.empty() || spec.archs.empty() || spec.lambdas.empty())
        throw std::invalid_argument(
            "ablation_scaling: spec needs sides, archs, and lambdas");
    const auto [lo, hi] =
        std::minmax_element(spec.sides.begin(), spec.sides.end());
    ctx.out << "=== Scaling: ";
    for (std::size_t a = 0; a < spec.archs.size(); ++a)
        ctx.out << (a ? " vs " : "") << experiment::arch_name(spec.archs[a]);
    ctx.out << ", " << *lo * *lo << ".." << *hi * *hi << " chiplets ===\n\n";

    cost::CostParams cp;
    auto& engine = ctx.engine;
    // The mix depends on the grid size (bigger systems run it more
    // concurrently), so the point list is derived, not a cartesian
    // SweepSpec — scaling_points() expands it.
    const auto sweep = engine.run(scaling_points(spec));

    util::TextTable t({"Chiplets", "NoI", "Mean hops", "Makespan (kcyc)",
                       "NoI energy (uJ)", "NoI area (mm2)", "Cost vs ref"});
    for (const auto& row : sweep.rows) {
        const auto fabric = engine.cache().get(row.point.arch, row.point.width,
                                               row.point.height, row.point.swap_seed);
        t.add_row({std::to_string(row.point.width * row.point.height),
                   experiment::arch_name(row.point.arch),
                   util::TextTable::fmt(fabric->routes.mean_hops()),
                   util::TextTable::fmt(row.result.total_cycles / 1e3, 1),
                   util::TextTable::fmt(row.result.total_energy_pj / 1e6, 2),
                   util::TextTable::fmt(cost::noi_area_mm2(fabric->topology, cp), 0),
                   util::TextTable::fmt(cost::fabrication_cost(fabric->topology, cp),
                                        2)});
    }
    t.print(ctx.out);
    ctx.out << "\nSweep: " << sweep.rows.size() << " points on "
            << engine.thread_count() << " thread(s) in "
            << util::TextTable::fmt(sweep.wall_seconds, 2) << " s (fabric cache: "
            << sweep.fabric_cache_hits << " hits / " << sweep.fabric_cache_misses
            << " misses)\n";

    ctx.out << "\n=== Petal-count sweep at 100 chiplets ===\n\n";
    struct PetalRow {
        std::int32_t lambda = 0;
        double d = 0.0;
        std::int32_t links = 0;
        std::uint64_t two_port = 0;
        double mean_hops = 0.0;
        double area = 0.0;
    };
    const auto petals = engine.map(spec.lambdas.size(), [&](std::size_t i) {
        const auto lambda = spec.lambdas[i];
        const auto set = core::generate_sfc_set(10, 10, lambda);
        const auto topo = core::make_floret(set);
        const auto routes = noc::RouteTable::build(topo, noc::RoutingPolicy::kUpDown);
        return PetalRow{lambda, set.tail_head_distance(), topo.link_count(),
                        topo.port_histogram().at(2), routes.mean_hops(),
                        cost::noi_area_mm2(topo, cp)};
    });
    util::TextTable s({"lambda", "d (Eq.1)", "Links", "2-port routers",
                       "Mean route hops", "NoI area (mm2)"});
    for (const auto& p : petals) {
        s.add_row({std::to_string(p.lambda), util::TextTable::fmt(p.d),
                   std::to_string(p.links), std::to_string(p.two_port),
                   util::TextTable::fmt(p.mean_hops),
                   util::TextTable::fmt(p.area, 0)});
    }
    s.print(ctx.out);
    ctx.out << "\nTrade-off: more petals shorten spillover routes (lower mean "
               "hops) but add express links and head/tail router ports.\n";

    ctx.out << "\n=== Weight-loading ablation (WL1 mapped once, 100 chiplets) ===\n\n";
    // Independent evaluations (archs x {off, on}) through the engine.
    const auto wl_cycles = engine.map(spec.archs.size() * 2, [&](std::size_t i) {
        const auto arch = spec.archs[i / 2];
        const bool load = (i % 2) == 1;
        auto b = experiment::build_arch(engine.cache(), arch, 10, 10,
                                        spec.swap_seed, spec.greedy_max_gap);
        std::vector<std::unique_ptr<dnn::Network>> owner;
        const auto queue = workload::expand_mix(workload::table2().front());
        const auto tasks =
            core::make_tasks(queue, experiment::kParamsPerChipletM, owner);
        const auto mapped = b.mapper->map_queue(tasks, nullptr);
        auto c = spec.eval;
        c.include_weight_load = load;
        return core::evaluate_noi(b.topology(), b.routes(), mapped, c).latency_cycles;
    });
    util::TextTable wload({"NoI", "Inference pass (kcyc)", "+ weight load (kcyc)",
                           "Load overhead"});
    for (std::size_t a = 0; a < spec.archs.size(); ++a) {
        const double off = wl_cycles[a * 2];
        const double on = wl_cycles[a * 2 + 1];
        wload.add_row({experiment::arch_name(spec.archs[a]),
                       util::TextTable::fmt(off / 1e3, 1),
                       util::TextTable::fmt(on / 1e3, 1),
                       util::TextTable::fmt(on / off, 1) + "x"});
    }
    wload.print(ctx.out);
    ctx.out << "\nWeight loading streams every parameter from the I/O corner once "
               "per mapping; it serializes on the I/O port for every NoI alike "
               "and amortizes over the thousands of inference passes served per "
               "mapping — which is why the paper evaluates steady-state "
               "inference traffic.\n";

    JsonReport report("ablation_scaling");
    report.add_table("scaling", t);
    report.add_table("petal_sweep", s);
    report.add_table("weight_load", wload);
    report.add_metric("sweep_wall_seconds", sweep.wall_seconds);
    add_point_timing(report, sweep);
    return report;
}

// ---- Builtin registration ---------------------------------------------------

core::SweepSpec table2_sweep_spec() {
    core::SweepSpec spec;
    spec.archs.assign(experiment::kAllArchs.begin(), experiment::kAllArchs.end());
    spec.mixes = workload::table2();
    spec.evals = {experiment::default_eval_config()};
    spec.greedy_max_gap = 2;
    return spec;
}

Moo3dSpec fig6_moo_spec() {
    Moo3dSpec spec;  // defaults carry the Fig. 6 annealing knobs
    spec.workloads = {"DNN1", "DNN2", "DNN3", "DNN4", "DNN5"};
    return spec;
}

ClusterSpec cluster_capacity_spec() {
    ClusterSpec spec;  // base carries default_serve_config()
    spec.base.greedy_max_gap = 2;
    spec.base.replications = 2;
    spec.base.base_seed = 33;
    auto& cfg = spec.base.config;
    // EDF-with-eviction so the overload points exercise preemption: the
    // tight-SLO interactive tenant evicts long-running batch residencies
    // once the fabric saturates.
    cfg.admission = serve::AdmissionPolicy::kEdfEvict;
    cfg.arrivals.max_requests = 60;
    cfg.classes = {
        {"interactive", {"DNN11", "DNN13"}, 0.5, 30'000.0},
        // The batch SLO is the binding one at overload (interactive is
        // rescued by eviction): 200 kcyc puts the unbatched single-fabric
        // knee at the high load while batching pushes it off the chart.
        {"batch", {"DNN1", "DNN8"}, 0.5, 200'000.0},
    };
    spec.cluster_sizes = {1, 2};
    spec.batch_caps = {1, 4};
    spec.loads_per_mcycle = {500.0, 4000.0};
    return spec;
}

Registry make_builtin() {
    Registry reg;
    reg.add({"fig2", "router-port configuration and link structure per NoI",
             [] {
                 auto spec = table2_sweep_spec();
                 spec.mixes.clear();  // structural: fabrics only, no workloads
                 spec.evals.clear();
                 return spec;
             }(),
             fig2_report, /*uses_eval=*/false});
    reg.add({"fig3", "NoI latency of the Table II mixes, normalized to Floret",
             table2_sweep_spec(), fig3_report});
    reg.add({"fig4", "mapped/unmapped chiplets under greedy vs SFC mapping",
             [] {
                 auto spec = table2_sweep_spec();
                 spec.archs = {Arch::kSwap, Arch::kSiamMesh, Arch::kFloret};
                 spec.evals.clear();  // mapping-only: no NoI evaluation
                 return spec;
             }(),
             fig4_report, /*uses_eval=*/false});
    reg.add({"fig5", "NoI energy of the Table II mixes, normalized to Floret",
             table2_sweep_spec(), fig5_report});
    reg.add({"table2", "mix demand accounting + the dynamic makespan sweep",
             table2_sweep_spec(), table2_report});
    reg.add({"serving", "SLA knee per NoI architecture under rising offered load",
             [] {
                 ServeGridSpec spec;  // base carries default_serve_config()
                 spec.base.greedy_max_gap = 2;
                 spec.base.config.arrivals.max_requests = 80;
                 spec.base.replications = 2;
                 spec.base.base_seed = 21;
                 return spec;
             }(),
             serving_report});
    reg.add({"fig6", "perf-only vs joint perf-thermal 3D placement, DNN1-5",
             fig6_moo_spec(), fig6_report, /*uses_eval=*/false});
    reg.add({"fig7", "bottom-tier thermal maps under both 3D mappings",
             [] {
                 auto spec = fig6_moo_spec();
                 spec.workloads = {"DNN2"};  // ResNet34, as in the paper
                 return spec;
             }(),
             fig7_report, /*uses_eval=*/false});
    reg.add({"m3d_vs_tsv", "monolithic-3D vs TSV integration, joint-optimized",
             [] {
                 auto spec = fig6_moo_spec();
                 spec.workloads = {"DNN1", "DNN2", "DNN3"};
                 spec.routing = noc::RoutingPolicy::kXY;
                 spec.iterations = 1200;
                 spec.variants = {{"TSV", 0.25},   // micro-bump + bond layer
                                  {"M3D", 0.80}};  // nano-MIV through thin ILD
                 return spec;
             }(),
             m3d_report, /*uses_eval=*/false});
    reg.add({"hetero_transformer",
             "heterogeneous ReRAM+SRAM vs all-PIM Transformer latency",
             [] {
                 TransformerSpec spec;  // models/batches default to the study's
                 spec.hetero.macro_width = 10;
                 spec.hetero.macro_height = 10;
                 spec.hetero.lambda = 10;
                 return spec;
             }(),
             hetero_report, /*uses_eval=*/false});
    reg.add({"transformer_storage",
             "attention intermediate-vs-weight storage across batch sizes",
             [] {
                 TransformerSpec spec;
                 spec.models = {"bert_base", "bert_tiny"};
                 spec.batches = {1, 2, 4, 6, 8};
                 return spec;
             }(),
             transformer_storage_report, /*uses_eval=*/false});
    reg.add({"ablation_scaling",
             "system-size scaling, petal-count sweep, weight-load ablation",
             ScalingSpec{}, ablation_report});
    reg.add({"cluster",
             "serving capacity plan: SLA knee vs cluster size x batch cap",
             cluster_capacity_spec(), cluster_report});
    return reg;
}

}  // namespace

const Registry& Registry::builtin() {
    static const Registry reg = make_builtin();
    return reg;
}

ReportFn generic_sweep_report() { return generic_sweep; }
ReportFn serving_grid_report() { return serving_report; }
ReportFn cluster_capacity_report() { return cluster_report; }

// ---- Scenario files ---------------------------------------------------------

Scenario load_scenario_file(const std::string& path, const Registry& registry) {
    std::ifstream f(path);
    if (!f) throw std::runtime_error("cannot read scenario file " + path);
    std::ostringstream buf;
    buf << f.rdbuf();
    util::Json doc;
    try {
        doc = util::json_parse(buf.str());
    } catch (const std::invalid_argument& e) {
        throw std::invalid_argument(path + ": " + e.what());
    }
    if (doc.kind() != util::Json::Kind::kObject)
        throw std::invalid_argument(path + ": scenario file must be an object");
    for (const auto& [key, value] : doc.as_object()) {
        (void)value;
        if (key != "scenario" && key != "name" && key != "kind" && key != "spec")
            throw std::invalid_argument(
                path + ": unknown key \"" + key +
                "\" (expected scenario, name, kind, spec)");
    }

    Scenario out;
    std::string kind;
    if (const util::Json* base_name = doc.find("scenario")) {
        const Scenario& base = registry.at(base_name->as_string());
        out = base;
        kind = spec_kind_name(base.spec);
        if (const util::Json* k = doc.find("kind"))
            if (k->as_string() != kind)
                throw std::invalid_argument(path + ": kind \"" + k->as_string() +
                                            "\" conflicts with scenario \"" +
                                            base.name + "\" (" + kind + ")");
    } else {
        const util::Json* k = doc.find("kind");
        if (!k)
            throw std::invalid_argument(
                path + ": need \"scenario\" (a registered name) or \"kind\"");
        kind = k->as_string();
        out.name = "custom";
        out.summary = "user scenario from " + path;
        if (kind == "serve_grid") {
            out.report = serving_grid_report();
        } else if (kind == "cluster") {
            out.report = cluster_capacity_report();
        } else if (kind == "sweep") {
            out.report = generic_sweep_report();
        } else if (kind == "moo3d" || kind == "transformer" ||
                   kind == "scaling") {
            // These kinds have no generic report — every one is tied to a
            // figure-specific analysis.
            throw std::invalid_argument(
                path + ": bare \"" + kind +
                "\" specs have no generic report; reference a registered "
                "scenario instead ({\"scenario\": \"fig6\", \"spec\": ...})");
        }
        // Any other kind string falls through to spec_from_json below,
        // which rejects it listing the known kinds.
        if (!doc.find("spec"))
            throw std::invalid_argument(path +
                                        ": bare-kind scenarios need a \"spec\"");
    }
    if (const util::Json* name = doc.find("name")) out.name = name->as_string();
    if (const util::Json* spec = doc.find("spec")) {
        try {
            out.spec = spec_from_json(*spec, kind);
        } catch (const std::invalid_argument& e) {
            throw std::invalid_argument(path + ": " + e.what());
        }
    }
    return out;
}

}  // namespace floretsim::scenario
