/// floretsim_run: the one driver for every figure. Runs any subset of the
/// registered scenarios (or user-supplied scenario JSON files) in ONE
/// process over ONE shared SweepEngine — so scenarios with identical
/// fabric needs (fig3 + fig5 sweep the same grids) build each fabric once
/// and every later scenario hits the cache — applies --set overrides to
/// the declarative specs, and merges the per-scenario reports into a
/// single JSON document.
///
///   floretsim_run --list
///   floretsim_run                          # every registered scenario
///   floretsim_run --only fig3,fig5        # a subset, shared cache
///   floretsim_run --spec my_scenario.json  # a serialized spec from disk
///   floretsim_run --only fig3 --set grid=12x12 --set traffic_scale=1/128
///   floretsim_run --only fig5 --set archs=floret,kite --threads 8 --json o.json
///
/// Multi-process mode (see src/fleet/protocol.h for the wire contract):
///
///   floretsim_run --only fig3,fig5 --pool 4   # persistent coordinator:
///       spawns 4 long-lived --worker --serve processes ONCE, places each
///       sweep's fabric groups on them, streams leases from each worker's
///       own queue, restarts dead workers — workers keep their ArchCache
///       warm across scenarios, and reports stay bit-identical to 1
///       process
///   floretsim_run --worker --serve             # one persistent worker:
///       speaks the framed NDJSON fleet protocol on stdin/stdout

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/core/sweep.h"
#include "src/fleet/coordinator.h"
#include "src/fleet/pool.h"
#include "src/fleet/protocol.h"
#include "src/noc/simulator.h"
#include "src/obs/build_info.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/scenario/registry.h"
#include "src/util/hash.h"
#include "src/util/json.h"

namespace {

using namespace floretsim;

struct DriverOptions {
    bool list = false;
    std::vector<std::string> only;                    ///< --only names, in order.
    std::vector<std::string> spec_files;              ///< --spec paths, in order.
    std::vector<std::pair<std::string, std::string>> sets;  ///< --set k=v pairs.
    std::int32_t threads = 0;
    std::uint64_t seed = 0;
    bool has_seed = false;
    std::string json_path;
    std::int32_t pool = 0;      ///< --pool N (persistent fleet); 0 = in-process.
    bool worker = false;        ///< --worker (fleet worker mode; needs --serve).
    bool serve = false;         ///< --serve (persistent fleet worker mode).
    std::string trace_out;      ///< --trace-out FILE (Chrome trace JSON).
    std::string metrics_out;    ///< --metrics-out FILE (metrics snapshot).
};

[[noreturn]] void usage(const char* argv0, const std::string& msg) {
    std::fprintf(stderr,
                 "%s: %s\n"
                 "usage: %s [--list] [--only A,B,...] [--spec FILE]... \n"
                 "       [--set KEY=VALUE]... [--threads N] [--seed N] "
                 "[--json PATH] [--pool N]\n"
                 "       [--core reference|activity]\n"
                 "       [--trace-out FILE] [--metrics-out FILE]\n"
                 "       %s --worker --serve [--threads N]\n"
                 "override keys: %s\n",
                 argv0, msg.c_str(), argv0, argv0,
                 scenario::override_keys_help().c_str());
    std::exit(2);
}

DriverOptions parse(int argc, char** argv) {
    DriverOptions opt;
    const auto need_value = [&](int i, const char* flag) -> const char* {
        if (i + 1 >= argc) usage(argv[0], std::string(flag) + " needs a value");
        return argv[i + 1];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (arg == "--list") {
            opt.list = true;
        } else if (arg == "--only") {
            const auto names = scenario::split_csv(need_value(i++, "--only"));
            opt.only.insert(opt.only.end(), names.begin(), names.end());
        } else if (arg == "--spec") {
            opt.spec_files.emplace_back(need_value(i++, "--spec"));
        } else if (arg == "--set") {
            const std::string_view kv = need_value(i++, "--set");
            const std::size_t eq = kv.find('=');
            if (eq == std::string_view::npos || eq == 0)
                usage(argv[0], "--set expects KEY=VALUE");
            opt.sets.emplace_back(std::string(kv.substr(0, eq)),
                                  std::string(kv.substr(eq + 1)));
        } else if (arg == "--threads") {
            const std::string_view value = need_value(i++, "--threads");
            const auto [p, ec] = std::from_chars(
                value.data(), value.data() + value.size(), opt.threads);
            if (ec != std::errc() || p != value.data() + value.size())
                usage(argv[0], "--threads expects an integer");
        } else if (arg == "--seed") {
            const std::string_view value = need_value(i++, "--seed");
            const auto [p, ec] = std::from_chars(
                value.data(), value.data() + value.size(), opt.seed);
            if (ec != std::errc() || p != value.data() + value.size())
                usage(argv[0], "--seed expects a non-negative integer");
            opt.has_seed = true;
        } else if (arg == "--json") {
            opt.json_path = need_value(i++, "--json");
        } else if (arg == "--core") {
            const std::string value = need_value(i++, "--core");
            if (!noc::sim_core_from_name(value))
                usage(argv[0], "--core expects reference or activity, got " + value);
            // The process-wide env override is the switch every simulation
            // honors, and spawned fleet workers inherit the environment —
            // one flag covers coordinator and workers alike.
            setenv("FLORETSIM_SIM_CORE", value.c_str(), 1);
        } else if (arg == "--pool") {
            const std::string_view value = need_value(i++, "--pool");
            const auto [p, ec] = std::from_chars(
                value.data(), value.data() + value.size(), opt.pool);
            if (ec != std::errc() || p != value.data() + value.size() ||
                opt.pool < 1)
                usage(argv[0], "--pool expects an integer >= 1");
        } else if (arg == "--worker") {
            opt.worker = true;
        } else if (arg == "--serve") {
            opt.serve = true;
        } else if (arg == "--trace-out") {
            opt.trace_out = need_value(i++, "--trace-out");
        } else if (arg == "--metrics-out") {
            opt.metrics_out = need_value(i++, "--metrics-out");
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0], "help");
        } else {
            usage(argv[0], "unknown argument " + std::string(arg));
        }
    }
    if (opt.serve && !opt.worker) usage(argv[0], "--serve requires --worker");
    if (opt.worker && !opt.serve) usage(argv[0], "--worker requires --serve");
    if (opt.pool > 0 && opt.worker)
        usage(argv[0], "--pool is a coordinator flag; workers use --serve");
    return opt;
}

/// Persistent fleet worker: speaks the framed protocol on stdin/stdout
/// until the coordinator sends quit (or closes the pipe). One SweepEngine
/// lives for the whole process — its ArchCache is the warm state that
/// outlasting individual sweeps is all about.
int run_serve(const DriverOptions& opt, const char* argv0) {
    if (opt.list || !opt.only.empty() || !opt.spec_files.empty() ||
        !opt.sets.empty() || !opt.json_path.empty() || opt.has_seed)
        usage(argv0,
              "--worker --serve only takes --threads, --trace-out, "
              "--metrics-out (sweeps and points arrive over stdin)");
    try {
        const std::int32_t threads =
            fleet::clamp_worker_threads(opt.threads, std::cerr);
        core::SweepEngine engine(threads);
        const int rc = fleet::serve_worker(std::cin, std::cout, std::cerr, engine);
        if (!obs::Tracer::global().write(opt.trace_out))
            return rc != 0 ? rc : 1;
        if (!obs::MetricsRegistry::global().write(opt.metrics_out))
            return rc != 0 ? rc : 1;
        return rc;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "%s: %s\n", argv0, e.what());
        return 2;
    }
}

}  // namespace

int main(int argc, char** argv) {
    const DriverOptions opt = parse(argc, argv);
    // A bad FLORETSIM_SIM_CORE is a usage error before any work: running
    // the default core instead would silently test the wrong engine.
    try {
        (void)noc::resolved_sim_core(noc::SimConfig{}.core);
    } catch (const std::invalid_argument& e) {
        usage(argv[0], e.what());
    }
    // Observability is opt-in per flag: tracing and metrics stay fully
    // disabled (and zero-cost) unless an output path asks for them.
    if (!opt.trace_out.empty()) obs::Tracer::global().enable();
    if (!opt.metrics_out.empty()) obs::MetricsRegistry::global().enable();
    if (opt.worker) return run_serve(opt, argv[0]);
    obs::Tracer::global().set_process_label("coordinator");
    const auto& registry = scenario::Registry::builtin();

    if (opt.list) {
        std::printf("registered scenarios:\n");
        for (const auto& s : registry.scenarios()) {
            const std::string hash =
                util::hash_hex(scenario::spec_hash(s.spec)).substr(0, 12);
            std::printf("  %-19s [%-11s] %s  %s\n", s.name.c_str(),
                        scenario::spec_kind_name(s.spec), hash.c_str(),
                        s.summary.c_str());
        }
        return 0;
    }

    // Selection: --only names (else every registered scenario), then the
    // --spec files, in command-line order.
    std::vector<scenario::Scenario> selected;
    try {
        if (!opt.only.empty()) {
            for (const auto& name : opt.only) selected.push_back(registry.at(name));
        } else if (opt.spec_files.empty()) {
            selected = registry.scenarios();
        }
        for (const auto& path : opt.spec_files)
            selected.push_back(scenario::load_scenario_file(path, registry));
    } catch (const std::exception& e) {
        std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
        return 2;
    }
    for (std::size_t i = 0; i < selected.size(); ++i)
        for (std::size_t j = i + 1; j < selected.size(); ++j)
            if (selected[i].name == selected[j].name) {
                std::fprintf(stderr, "%s: scenario \"%s\" selected twice\n",
                             argv[0], selected[i].name.c_str());
                return 2;
            }

    // Apply the seed and the --set overrides to every selected spec. Each
    // override must land on at least one scenario — a --set that applies
    // nowhere is a typo, not a no-op.
    try {
        for (auto& s : selected)
            if (opt.has_seed) scenario::set_seed(s.spec, opt.seed);
        for (const auto& [key, value] : opt.sets) {
            bool applied = false;
            for (auto& s : selected) {
                // Eval knobs are inert on mapping-only scenarios (fig4):
                // don't let them satisfy the applies-somewhere guard.
                if (!s.uses_eval && scenario::is_eval_override_key(key)) continue;
                applied = scenario::apply_override(s.spec, key, value) || applied;
            }
            if (!applied) {
                std::fprintf(stderr,
                             "%s: --set %s=%s applies to none of the selected "
                             "scenarios\n",
                             argv[0], key.c_str(), value.c_str());
                return 2;
            }
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
        return 2;
    }

    // One engine for the whole run: the shared thread pool AND the shared
    // fabric cache — the reason fig3+fig5 no longer rebuild identical
    // sweep fabrics.
    core::SweepEngine engine(opt.threads);
    std::shared_ptr<fleet::Coordinator> coordinator;
    if (opt.pool > 0) {
        // Fleet mode: every spec-driven sweep a report function runs is
        // dispatched to N persistent --worker --serve processes, spawned
        // once (lazily, at the first sweep) and reused by every scenario —
        // their ArchCaches stay warm across sweeps, so fig5 after fig3
        // builds zero fabrics anywhere in the fleet. The coordinator
        // places each sweep's fabric groups on the workers that hold them
        // before leasing, leases each worker from its own queue, and
        // restarts dead workers with bounded retry. The report functions
        // are unchanged and rows stay bit-identical (pinned by the
        // fleet_parity ctest); map()-based work (fig4, serving
        // replications) stays in this process.
        fleet::FleetOptions fleet_opt;
        fleet_opt.worker_exe = fleet::self_exe_path(argv[0]);
        const auto hw =
            static_cast<std::int32_t>(std::thread::hardware_concurrency());
        const std::int32_t worker_threads =
            opt.threads > 0 ? opt.threads : std::max(1, hw / opt.pool);
        fleet_opt.worker_args = {"--worker", "--serve", "--threads",
                                 std::to_string(worker_threads)};
        fleet_opt.n_workers = opt.pool;
        fleet_opt.progress = &std::cerr;
        coordinator = std::make_shared<fleet::Coordinator>(fleet_opt);
        fleet::install_fleet_executor(engine, coordinator);
    }
    scenario::RunContext ctx{engine, std::cout};

    util::Json scenario_reports = util::Json::object();
    util::Json fleet_per_scenario = util::Json::object();
    const auto wall0 = std::chrono::steady_clock::now();
    int failures = 0;
    for (const auto& s : selected) {
        std::cout << "\n########## scenario: " << s.name << " ##########\n\n";
        const auto hits0 = engine.cache().hits();
        const auto misses0 = engine.cache().misses();
        const fleet::FleetStats fleet0 =
            coordinator ? coordinator->stats() : fleet::FleetStats{};
        const auto t0 = std::chrono::steady_clock::now();
        try {
            // intern() keeps the span name alive past this iteration; the
            // ternary avoids interning when tracing is off.
            const obs::Span span(obs::Tracer::global().enabled()
                                     ? obs::Tracer::global().intern(s.name)
                                     : "scenario",
                                 "scenario");
            scenario::JsonReport report = s.report(s.spec, ctx);
            report.set_run_info(
                "seed", static_cast<std::int64_t>(
                            scenario::effective_seed(s.spec)));
            report.set_run_info("threads", engine.thread_count());
            report.add_metric(
                "scenario_seconds",
                std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                    .count());
            // Cache deltas per scenario: a later scenario with misses == 0
            // ran entirely on fabrics built by its predecessors.
            report.add_metric("fabric_cache_hits",
                              static_cast<double>(engine.cache().hits() - hits0));
            report.add_metric(
                "fabric_cache_misses",
                static_cast<double>(engine.cache().misses() - misses0));
            scenario_reports.set(s.name, report.to_value());
            if (coordinator) {
                // Per-scenario fleet deltas live in the driver block (not
                // the scenario reports, which must stay bit-identical to
                // non-fleet runs): fabric_misses == 0 here means every
                // fabric this scenario needed was already warm in some
                // worker's ArchCache.
                const fleet::FleetStats& fs = coordinator->stats();
                util::Json delta = util::Json::object();
                delta.set("rows", fs.rows - fleet0.rows);
                delta.set("leases", fs.leases_issued - fleet0.leases_issued);
                delta.set("fabric_hits",
                          fs.fleet_fabric_hits - fleet0.fleet_fabric_hits);
                delta.set("fabric_misses", fs.fleet_fabric_misses -
                                               fleet0.fleet_fabric_misses);
                fleet_per_scenario.set(s.name, std::move(delta));
            }
        } catch (const std::exception& e) {
            std::fprintf(stderr, "scenario %s failed: %s\n", s.name.c_str(),
                         e.what());
            util::Json err = util::Json::object();
            err.set("error", std::string(e.what()));
            scenario_reports.set(s.name, std::move(err));
            ++failures;
        }
    }

    // Shut the fleet down BEFORE the trace/metrics writes below: the
    // workers write their --trace-out/--metrics-out files as they exit
    // and the shutdown absorbs them into this process's sinks, so the
    // exported trace covers the whole fleet.
    if (coordinator) {
        coordinator->shutdown();
        coordinator->print_summary(std::cerr);
    }

    util::Json doc = util::Json::object();
    util::Json driver = util::Json::object();
    util::Json run_info = obs::build_info_json();
    run_info.set("sim_core",
                 std::string(noc::sim_core_name(
                     noc::resolved_sim_core(noc::SimConfig{}.core))));
    run_info.set("threads", engine.thread_count());
    run_info.set("executor", std::string(engine.executor_label()));
    run_info.set("seed", opt.has_seed ? util::Json(opt.seed) : util::Json());
    driver.set("run_info", std::move(run_info));
    driver.set("threads", engine.thread_count());
    driver.set("pool", opt.pool);
    if (coordinator) {
        util::Json fleet_json = coordinator->stats_json();
        fleet_json.set("per_scenario", std::move(fleet_per_scenario));
        driver.set("fleet", std::move(fleet_json));
    }
    driver.set("sim_core",
               std::string(noc::sim_core_name(
                   noc::resolved_sim_core(noc::SimConfig{}.core))));
    driver.set("scenarios_run",
               static_cast<std::int64_t>(selected.size()) - failures);
    driver.set("scenarios_failed", static_cast<std::int64_t>(failures));
    driver.set("wall_seconds",
               std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             wall0)
                   .count());
    driver.set("fabric_cache_hits", engine.cache().hits());
    driver.set("fabric_cache_misses", engine.cache().misses());
    doc.set("driver", std::move(driver));
    doc.set("scenarios", std::move(scenario_reports));

    std::cout << "\n########## driver summary ##########\n"
              << selected.size() - static_cast<std::size_t>(failures) << "/"
              << selected.size() << " scenarios on " << engine.thread_count()
              << " thread(s); fabric cache " << engine.cache().hits()
              << " hits / " << engine.cache().misses() << " misses\n"
              << "build " << obs::build_type() << " (" << obs::compiler_id()
              << "), git " << obs::git_sha() << ", sim core "
              << noc::sim_core_name(noc::resolved_sim_core(noc::SimConfig{}.core))
              << "\n";

    if (!opt.json_path.empty()) {
        std::ofstream f(opt.json_path);
        if (f) f << util::json_serialize(doc);
        if (!f) {
            std::fprintf(stderr, "error: cannot write JSON report to %s\n",
                         opt.json_path.c_str());
            return 1;
        }
    }
    if (!obs::Tracer::global().write(opt.trace_out)) return 1;
    if (!obs::MetricsRegistry::global().write(opt.metrics_out)) return 1;
    return failures == 0 ? 0 : 1;
}
