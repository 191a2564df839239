/// perfbench_harness: runs one benchmark workload against the FloretSim
/// library for a time budget and prints ONE JSON line describing every
/// iteration — its set-up, wall and CPU time, and a digest of every
/// operation's output. It only calls the library's public entry points
/// (scenario report functions on a shared SweepEngine, ArchCache,
/// noc::Simulator::run, fleet::Coordinator) and times them from outside;
/// per-layer numbers come from the library's existing obs::Tracer spans and
/// obs::MetricsRegistry counters, switched on for traced iterations only.
/// perfbench/run.py builds this binary, runs it, checks the digests and
/// turns the iterations into metrics; see perfbench/README.md.
///
///   perfbench_harness --workload fleet_sweep --seed 1 --seconds 36
///       --trace 0 --worker-exe floretsim_run --out-dir DIR [--quick]

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <variant>
#include <vector>

#include "src/core/sweep.h"
#include "src/fleet/coordinator.h"
#include "src/noc/simulator.h"
#include "src/obs/build_info.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/scenario/registry.h"
#include "src/util/hash.h"
#include "src/util/json.h"
#include "src/util/rng.h"

namespace {

using namespace floretsim;
using Clock = std::chrono::steady_clock;
using Arch = core::experiment::Arch;

// Load shape, fixed so every commit is measured the same way: one process,
// at most 4 busy threads (the CPU count of the box the bounds were set on).
constexpr std::int32_t kThreads = 4;
constexpr std::int32_t kFleetWorkers = 2;
constexpr std::int32_t kFleetWorkerThreads = 2;

// hotspot_drain: bench_skip_traffic's saturated-drain recipe (buffer 2,
// rate 8) on the 10x10 Floret fabric, once into every node as the sink, each
// time from kDrainSources seed-chosen sources. A drain's cost depends
// strongly on where its sink sits, so covering every sink keeps the
// iteration's cost nearly the same for every seed; the small payload keeps
// the iteration at a few seconds.
constexpr int kDrainSources = 5;
constexpr std::int64_t kDrainBytesPerSource = 4 * 1024;

// Set-up is short and noisy, so an untraced run also measures it on its own
// before the timed iterations: at least kExtraSetups times, and more while
// they fit in kExtraSetupBudgetS (hotspot_drain's set-up takes milliseconds).
constexpr int kExtraSetups = 3;
constexpr int kMaxExtraSetups = 50;
constexpr double kExtraSetupBudgetS = 1.0;

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string worker_exe;
    std::string out_dir = ".";
    /// Reduced-size run for the benchmark's own tests: 1/512 traffic on
    /// every scenario, 512-byte drains.
    bool quick = false;
};

[[noreturn]] void usage(const std::string& msg) {
    std::fprintf(stderr,
                 "perfbench_harness: %s\n"
                 "usage: perfbench_harness --workload "
                 "serving_capacity|hotspot_drain|fleet_sweep\n"
                 "       --seed N --seconds S --trace 0|1 --worker-exe PATH "
                 "--out-dir DIR [--quick]\n",
                 msg.c_str());
    std::exit(2);
}

Options parse(int argc, char** argv) {
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) usage(std::string(arg) + " needs a value");
            return argv[++i];
        };
        try {
            if (arg == "--workload") opt.workload = value();
            else if (arg == "--seed") opt.seed = std::stoull(value());
            else if (arg == "--seconds") opt.seconds = std::stod(value());
            else if (arg == "--trace") opt.trace = value() == "1";
            else if (arg == "--worker-exe") opt.worker_exe = value();
            else if (arg == "--out-dir") opt.out_dir = value();
            else if (arg == "--quick") opt.quick = true;
            else usage("unknown argument " + std::string(arg));
        } catch (const std::logic_error&) {
            usage("bad value for " + std::string(arg));
        }
    }
    if (opt.workload.empty()) usage("--workload is required");
    return opt;
}

double since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// User+system seconds of this process plus every child it has reaped.
double cpu_seconds() {
    const auto secs = [](const timeval& t) {
        return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
    };
    rusage self{}, kids{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &kids);
    return secs(self.ru_utime) + secs(self.ru_stime) + secs(kids.ru_utime) +
           secs(kids.ru_stime);
}

double self_peak_rss_mb() {
    rusage self{};
    getrusage(RUSAGE_SELF, &self);
    return static_cast<double>(self.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Peak resident set of another process (VmHWM), 0 when unreadable.
double proc_peak_rss_mb(pid_t pid) {
    std::ifstream f("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
    return 0.0;
}

// ---- output digests ---------------------------------------------------------

std::string digest_of(const util::Json& v) {
    return util::hash_hex(util::fnv1a(util::json_serialize_compact(v)));
}

/// Report metrics left out of a digest: wall-clock and scheduling facts
/// (the volatile set the repo's parity scripts strip), plus the simulator's
/// engine-work and NoI-reuse counters, which a faster engine or a memo may
/// legitimately change without changing any result.
bool volatile_metric(std::string_view key) {
    for (const std::string_view s :
         {"seconds", "wall", "imbalance", "cache", "threads", "shards"})
        if (key.find(s) != std::string_view::npos) return true;
    for (const std::string_view p : {"sim_", "noi_", "round_epoch", "sweep_serial"})
        if (key.rfind(p, 0) == 0) return true;
    return false;
}

std::string report_digest(const util::Json& report) {
    util::Json metrics = util::Json::object();
    if (const util::Json* m = report.find("metrics"))
        for (const auto& [key, value] : m->as_object())
            if (!volatile_metric(key)) metrics.set(key, value);
    util::Json d = util::Json::object();
    const util::Json* tables = report.find("tables");
    d.set("tables", tables ? *tables : util::Json());
    d.set("metrics", std::move(metrics));
    return digest_of(d);
}

/// True when a table reports a run that hit its cycle cap: a "NO" in a
/// "Completed" column (table2's dynamic sweep lists every sweep point).
bool table_reports_cap(const util::Json& report) {
    const util::Json* tables = report.find("tables");
    if (!tables) return false;
    for (const auto& [name, table] : tables->as_object()) {
        const auto& columns = table.find("columns")->as_array();
        for (std::size_t c = 0; c < columns.size(); ++c) {
            if (columns[c].as_string() != "Completed") continue;
            for (const auto& row : table.find("rows")->as_array())
                if (row.as_array()[c].as_string() == "NO") return true;
        }
    }
    return false;
}

/// The SimResult minus its engine-work fields (the part every core must
/// reproduce bit for bit).
std::string sim_result_digest(const noc::SimResult& r) {
    util::Json d = util::Json::object();
    d.set("cycles", r.cycles);
    d.set("packets", r.packets);
    d.set("flits", r.flits);
    d.set("flit_hops", r.flit_hops);
    d.set("completed", r.completed);
    d.set("latency_count", static_cast<std::int64_t>(r.packet_latency.count()));
    d.set("latency_mean", r.packet_latency.mean());
    d.set("latency_variance", r.packet_latency.variance());
    d.set("latency_min", r.packet_latency.min());
    d.set("latency_max", r.packet_latency.max());
    util::Json routers = util::Json::array();
    for (const auto v : r.router_flits) routers.push_back(v);
    util::Json links = util::Json::array();
    for (const auto v : r.link_flits) links.push_back(v);
    d.set("router_flits", std::move(routers));
    d.set("link_flits", std::move(links));
    return digest_of(d);
}

// ---- workloads --------------------------------------------------------------

struct Op {
    std::string name;
    std::string digest;
    bool capped = false;
    std::string error;  ///< Non-empty when the operation threw.
};

struct Iteration {
    double setup_s = 0.0;
    double wall_s = 0.0;
    double cpu_s = 0.0;
    double peak_rss_mb = 0.0;
    std::vector<Op> ops;
    util::Json fleet;  ///< Coordinator statistics (fleet workload only).
};

/// One workload. set_up() builds what the timed part needs (engine, fleet,
/// fabrics), run() does the timed work on it, and tear_down() releases it.
/// The set-up-only pass and the iterations call the same set_up(), so every
/// `setup_s` sample times the same code.
class Workload {
public:
    virtual ~Workload() = default;
    virtual void set_up() = 0;
    virtual std::vector<Op> run() = 0;
    /// Releases what set_up() built; the fleet also records its workers'
    /// peak RSS and its statistics into `it`.
    virtual void tear_down(Iteration& it) = 0;
};

using FabricKey = std::tuple<Arch, std::int32_t, std::int32_t, std::uint64_t>;

/// Every fabric a scenario's report will ask the engine's ArchCache for.
std::set<FabricKey> fabric_keys(const scenario::SpecVariant& spec) {
    std::set<FabricKey> keys;
    if (const auto* sweep = std::get_if<core::SweepSpec>(&spec)) {
        for (const auto& p : sweep->expand())
            keys.emplace(p.arch, p.width, p.height, p.swap_seed);
    } else if (const auto* grid = std::get_if<scenario::ServeGridSpec>(&spec)) {
        for (const auto arch : grid->archs)
            keys.emplace(arch, grid->base.width, grid->base.height,
                         grid->base.swap_seed);
    } else if (const auto* cluster = std::get_if<scenario::ClusterSpec>(&spec)) {
        keys.emplace(cluster->base.arch, cluster->base.width, cluster->base.height,
                     cluster->base.swap_seed);
    }
    return keys;
}

std::vector<FabricKey> workload_fabrics(const std::vector<scenario::Scenario>& scenarios) {
    std::set<FabricKey> keys;
    for (const auto& s : scenarios) keys.merge(fabric_keys(s.spec));
    return {keys.begin(), keys.end()};
}

void build_fabrics(core::SweepEngine& engine, const std::vector<FabricKey>& keys) {
    (void)engine.map(keys.size(), [&](std::size_t i) {
        const auto& [arch, w, h, swap_seed] = keys[i];
        return engine.cache().get(arch, w, h, swap_seed);
    });
}

/// Serve-DES arrivals so far that neither completed nor were rejected. Every
/// arrival ends one of those two ways unless the DES event guard stops a
/// run before it drains (ServeStats::drained == false), which no report
/// shows; the counters do.
std::int64_t undrained_requests() {
    const util::Json snap = obs::MetricsRegistry::global().snapshot();
    const util::Json* counters = snap.find("counters");
    const auto count = [&](std::string_view name) -> std::int64_t {
        const util::Json* v = counters ? counters->find(name) : nullptr;
        return v ? v->as_int() : 0;
    };
    return count("serve.arrived") - count("serve.completed") - count("serve.rejected");
}

Op run_scenario(const scenario::Scenario& s, core::SweepEngine& engine) {
    Op op;
    op.name = s.name;
    std::ostringstream out;  // the figure's text output, scanned for cap warnings
    scenario::RunContext ctx{engine, out};
    try {
        const std::int64_t undrained = undrained_requests();
        const obs::Span span(obs::Tracer::global().intern(s.name), "scenario");
        const util::Json report = s.report(s.spec, ctx).to_value();
        op.digest = report_digest(report);
        op.capped = table_reports_cap(report) ||
                    out.str().find("hit the cycle cap") != std::string::npos ||
                    undrained_requests() != undrained;
    } catch (const std::exception& e) {
        op.error = e.what();
    }
    return op;
}

std::vector<Op> run_scenarios(const std::vector<scenario::Scenario>& scenarios,
                              core::SweepEngine& engine) {
    std::vector<Op> ops;
    for (const auto& s : scenarios) ops.push_back(run_scenario(s, engine));
    return ops;
}

/// The scenarios in-process on one kThreads-thread SweepEngine; set-up is the
/// engine and every fabric the scenarios use.
class InProcess final : public Workload {
public:
    explicit InProcess(std::vector<scenario::Scenario> scenarios)
        : scenarios_(std::move(scenarios)), fabrics_(workload_fabrics(scenarios_)) {}

    void set_up() override {
        engine_ = std::make_unique<core::SweepEngine>(kThreads);
        build_fabrics(*engine_, fabrics_);
    }
    std::vector<Op> run() override { return run_scenarios(scenarios_, *engine_); }
    void tear_down(Iteration&) override { engine_.reset(); }

private:
    std::vector<scenario::Scenario> scenarios_;
    std::vector<FabricKey> fabrics_;
    std::unique_ptr<core::SweepEngine> engine_;
};

/// The fleet's set-up sweep: one single-task point per fabric, at a traffic
/// scale small enough that its NoI work is negligible. Running it spawns
/// every worker, waits for its ready frame, and makes each worker build and
/// claim (by lease affinity) the fabrics it will serve.
std::vector<core::SweepPoint> fleet_warm_points(const std::vector<FabricKey>& fabrics) {
    std::vector<core::SweepPoint> points;
    for (const auto& [arch, w, h, swap_seed] : fabrics) {
        core::SweepPoint p;
        p.arch = arch;
        p.width = w;
        p.height = h;
        p.swap_seed = swap_seed;
        p.mix = workload::ConcurrentMix{"warm", {{"DNN13", 1}}, 0.0};
        p.eval = core::experiment::default_eval_config();
        p.eval.traffic_scale = 1.0 / 65536.0;
        points.push_back(std::move(p));
    }
    return points;
}

/// The same scenarios swept through a fleet of persistent worker processes;
/// set-up spawns the fleet and runs its set-up sweep.
class Fleet final : public Workload {
public:
    Fleet(std::string worker_exe, std::vector<scenario::Scenario> scenarios)
        : worker_exe_(std::move(worker_exe)),
          scenarios_(std::move(scenarios)),
          fabrics_(workload_fabrics(scenarios_)) {}

    void set_up() override {
        fleet::FleetOptions fo;
        fo.worker_exe = worker_exe_;
        fo.worker_args = {"--worker", "--serve", "--threads",
                          std::to_string(kFleetWorkerThreads)};
        fo.n_workers = kFleetWorkers;
        engine_ = std::make_unique<core::SweepEngine>(kFleetWorkerThreads);
        coordinator_ = std::make_shared<fleet::Coordinator>(fo);
        fleet::install_fleet_executor(*engine_, coordinator_);
        (void)engine_->run(fleet_warm_points(fabrics_));
    }
    std::vector<Op> run() override { return run_scenarios(scenarios_, *engine_); }
    void tear_down(Iteration& it) override {
        for (std::int32_t w = 0; w < kFleetWorkers; ++w)
            it.peak_rss_mb += proc_peak_rss_mb(coordinator_->worker_pid(w));
        // Reaps the workers (so their CPU time lands in RUSAGE_CHILDREN) and
        // absorbs their trace and metrics files into this process.
        coordinator_->shutdown();
        it.fleet = coordinator_->stats_json();
        engine_.reset();
        coordinator_.reset();
    }

private:
    std::string worker_exe_;
    std::vector<scenario::Scenario> scenarios_;
    std::vector<FabricKey> fabrics_;
    std::unique_ptr<core::SweepEngine> engine_;
    std::shared_ptr<fleet::Coordinator> coordinator_;
};

/// The sources of the drain into each node, indexed by the sink.
std::vector<std::vector<topo::NodeId>> drain_sources(std::uint64_t seed,
                                                     std::int32_t nodes) {
    util::Rng rng(seed);
    std::vector<std::vector<topo::NodeId>> sources(static_cast<std::size_t>(nodes));
    for (std::size_t sink = 0; sink < sources.size(); ++sink) {
        auto& srcs = sources[sink];
        while (srcs.size() < static_cast<std::size_t>(kDrainSources)) {
            const auto src =
                static_cast<topo::NodeId>(rng.below(static_cast<std::uint64_t>(nodes)));
            if (static_cast<std::size_t>(src) != sink &&
                std::find(srcs.begin(), srcs.end(), src) == srcs.end())
                srcs.push_back(src);
        }
    }
    return sources;
}

noc::SimConfig drain_config() {
    noc::SimConfig cfg;  // default core
    cfg.injection_rate = 8.0;  // saturating: packets queue at the sources
    cfg.input_buffer_flits = 2;
    cfg.max_cycles = 2'000'000;
    return cfg;
}

/// Saturated drains straight into noc::Simulator::run; set-up builds the
/// Floret fabric.
class Drains final : public Workload {
public:
    Drains(std::uint64_t seed, std::int64_t bytes_per_source)
        : seed_(seed), bytes_(bytes_per_source) {}

    void set_up() override {
        cache_ = std::make_unique<core::experiment::ArchCache>();
        fabric_ = cache_->get(Arch::kFloret, 10, 10);
    }
    std::vector<Op> run() override {
        std::vector<Op> ops;
        const auto sources = drain_sources(seed_, fabric_->topology.node_count());
        for (std::size_t sink = 0; sink < sources.size(); ++sink) {
            Op op;
            op.name = "drain" + std::to_string(sink);
            try {
                const obs::Span drain_span("drain", "noc");
                noc::Simulator sim(fabric_->topology, fabric_->routes, drain_config());
                for (const auto src : sources[sink])
                    sim.add_demand({src, static_cast<topo::NodeId>(sink), bytes_});
                const auto r = sim.run();
                op.digest = sim_result_digest(r);
                op.capped = !r.completed;
            } catch (const std::exception& e) {
                op.error = e.what();
            }
            ops.push_back(std::move(op));
        }
        return ops;
    }
    void tear_down(Iteration&) override {
        fabric_.reset();
        cache_.reset();
    }

private:
    std::uint64_t seed_;
    std::int64_t bytes_;
    std::unique_ptr<core::experiment::ArchCache> cache_;
    std::shared_ptr<const core::experiment::ArchFabric> fabric_;
};

std::vector<scenario::Scenario> prepare(const std::vector<std::string>& names,
                                        const Options& opt) {
    std::vector<scenario::Scenario> out;
    for (const auto& name : names) {
        auto s = scenario::Registry::builtin().at(name);
        scenario::set_seed(s.spec, opt.seed);
        if (opt.quick) (void)scenario::apply_override(s.spec, "traffic_scale", "1/512");
        out.push_back(std::move(s));
    }
    return out;
}

std::unique_ptr<Workload> make_workload(const Options& opt) {
    if (opt.workload == "serving_capacity")
        return std::make_unique<InProcess>(prepare({"serving", "cluster"}, opt));
    if (opt.workload == "fleet_sweep") {
        if (opt.worker_exe.empty()) usage("fleet_sweep needs --worker-exe");
        return std::make_unique<Fleet>(opt.worker_exe,
                                       prepare({"fig3", "fig5", "table2"}, opt));
    }
    if (opt.workload == "hotspot_drain")
        return std::make_unique<Drains>(opt.seed, opt.quick ? 512 : kDrainBytesPerSource);
    usage("unknown workload " + opt.workload);
}

Iteration iterate(Workload& w) {
    Iteration it;
    const double cpu0 = cpu_seconds();
    const auto t0 = Clock::now();
    {
        const obs::Span span("setup", "bench");
        w.set_up();
    }
    it.setup_s = since(t0);
    const auto t1 = Clock::now();
    {
        const obs::Span span("workload", "bench");
        it.ops = w.run();
    }
    it.wall_s = since(t1);
    w.tear_down(it);
    it.cpu_s = cpu_seconds() - cpu0;
    it.peak_rss_mb += self_peak_rss_mb();
    return it;
}

double setup_only(Workload& w) {
    const auto t0 = Clock::now();
    w.set_up();
    const double s = since(t0);
    Iteration discarded;
    w.tear_down(discarded);
    return s;
}

/// Writes the traced iteration's spans and counters, for run.py to profile.
util::Json export_obs(const Options& opt, std::size_t index) {
    const std::string stem = opt.out_dir + "/iter" + std::to_string(index);
    util::Json files = util::Json::object();
    if (!obs::Tracer::global().write(stem + ".trace.json") ||
        !obs::MetricsRegistry::global().write(stem + ".metrics.json"))
        throw std::runtime_error("cannot write trace files under " + opt.out_dir);
    files.set("trace", stem + ".trace.json");
    files.set("metrics", stem + ".metrics.json");
    files.set("dropped_events", obs::Tracer::global().dropped());
    return files;
}

util::Json to_json(const Iteration& it) {
    util::Json j = util::Json::object();
    j.set("setup_s", it.setup_s);
    j.set("wall_s", it.wall_s);
    j.set("cpu_s", it.cpu_s);
    j.set("peak_rss_mb", it.peak_rss_mb);
    util::Json ops = util::Json::array();
    for (const auto& op : it.ops) {
        util::Json o = util::Json::object();
        o.set("name", op.name);
        o.set("digest", op.digest);
        o.set("capped", op.capped);
        o.set("error", op.error.empty() ? util::Json() : util::Json(op.error));
        ops.push_back(std::move(o));
    }
    j.set("ops", std::move(ops));
    if (!it.fleet.is_null()) j.set("fleet", it.fleet);
    return j;
}

}  // namespace

int main(int argc, char** argv) {
    const Options opt = parse(argc, argv);
    try {
        const auto workload = make_workload(opt);
        // Counters are on in every iteration (they are cheap, and the serve
        // drain check needs them); span tracing only in traced iterations.
        obs::MetricsRegistry::global().enable();
        const auto run0 = Clock::now();

        util::Json setups = util::Json::array();
        for (int i = 0; !opt.trace && (i < kExtraSetups ||
                                       (since(run0) < kExtraSetupBudgetS &&
                                        i < kMaxExtraSetups));
             ++i)
            setups.push_back(setup_only(*workload));

        // Iterate while the next iteration is predicted to end inside the
        // budget. A traced run alternates untraced and traced iterations so
        // the tracing overhead is measured within one run.
        util::Json iterations = util::Json::array();
        double last = 0.0;
        for (std::size_t i = 0;; ++i) {
            const bool min_done = opt.trace ? i >= 2 : i >= 1;
            if (min_done && since(run0) + last > opt.seconds) break;
            const bool traced = opt.trace && i % 2 == 1;
            obs::MetricsRegistry::global().reset();
            if (traced) {
                obs::Tracer::global().reset();
                obs::Tracer::global().enable();
            }
            const auto t = Clock::now();
            util::Json j = to_json(iterate(*workload));
            last = since(t);
            j.set("traced", traced);
            if (traced) {
                obs::Tracer::global().disable();
                j.set("obs", export_obs(opt, i));
            }
            iterations.push_back(std::move(j));
        }

        util::Json provenance = obs::build_info_json();
        provenance.set("workload", opt.workload);
        provenance.set("seed", opt.seed);
        if (opt.workload == "fleet_sweep") {
            provenance.set("threads", kFleetWorkerThreads);
            provenance.set("fleet_workers", kFleetWorkers);
            provenance.set("fleet_worker_threads", kFleetWorkerThreads);
        } else {
            // The drains run one after another on the calling thread.
            provenance.set("threads", opt.workload == "hotspot_drain" ? 1 : kThreads);
        }
        provenance.set("nproc",
                       static_cast<std::int64_t>(std::thread::hardware_concurrency()));
        provenance.set("sim_core", std::string(noc::sim_core_name(
                                       noc::resolved_sim_core(noc::SimConfig{}.core))));
        provenance.set("quick", opt.quick);

        util::Json doc = util::Json::object();
        doc.set("provenance", std::move(provenance));
        doc.set("setup_only_s", std::move(setups));
        doc.set("iterations", std::move(iterations));
        std::cout << util::json_serialize_compact(doc) << "\n";
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
        return 1;
    }
}
