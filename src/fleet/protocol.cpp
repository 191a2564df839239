#include "src/fleet/protocol.h"

#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <mutex>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "src/obs/trace.h"
#include "src/scenario/spec_json.h"
#include "src/util/json.h"

namespace floretsim::fleet {
namespace {

[[noreturn]] void bad(const std::string& what) {
    throw std::invalid_argument("fleet frame: " + what);
}

/// Strict object access: the member must exist; unknown keys are checked
/// separately by key_count (strict parses reject frames with extras).
const util::Json& need(const util::Json& obj, const char* key,
                       const char* frame) {
    const util::Json* v = obj.find(key);
    if (!v) bad(std::string(frame) + " frame is missing \"" + key + "\"");
    return *v;
}

void expect_keys(const util::Json& obj, std::size_t n, const char* frame) {
    if (obj.as_object().size() != n)
        bad(std::string(frame) + " frame has unknown keys");
}

std::int32_t need_i32(const util::Json& obj, const char* key,
                      const char* frame) {
    const std::int64_t v = need(obj, key, frame).as_int();
    if (v < INT32_MIN || v > INT32_MAX)
        bad(std::string(frame) + "." + key + " out of range");
    return static_cast<std::int32_t>(v);
}

std::int64_t need_nonneg_i64(const util::Json& obj, const char* key,
                             const char* frame) {
    const std::int64_t v = need(obj, key, frame).as_int();
    if (v < 0) bad(std::string(frame) + "." + key + " must be >= 0");
    return v;
}

std::size_t need_size(const util::Json& obj, const char* key,
                      const char* frame) {
    return static_cast<std::size_t>(
        need(obj, key, frame).as_uint());
}

util::Json obj1(const char* key, util::Json inner) {
    util::Json j = util::Json::object();
    j.set(key, std::move(inner));
    return j;
}

}  // namespace

// ---- Points -----------------------------------------------------------------

std::vector<core::SweepPoint> points_from_text(std::string_view text,
                                               const std::string& context) {
    std::vector<core::SweepPoint> points;
    try {
        points = scenario::sweep_points_from_json(util::json_parse(text));
    } catch (const std::invalid_argument& e) {
        throw std::invalid_argument(context + ": " + e.what());
    }
    if (points.empty())
        throw std::invalid_argument(context +
                                    ": point list is empty — a worker with no "
                                    "work is a coordinator bug");
    return points;
}

std::int32_t clamp_worker_threads(std::int32_t requested, std::ostream& err) {
    if (requested < 0)
        throw std::invalid_argument("--threads must be >= 0, got " +
                                    std::to_string(requested));
    if (requested > kMaxWorkerThreads) {
        err << "worker: clamping --threads " << requested << " to "
            << kMaxWorkerThreads << " (worker thread cap)\n";
        return kMaxWorkerThreads;
    }
    return requested;  // 0 keeps the hardware-concurrency default
}

// ---- Coordinator -> worker --------------------------------------------------

std::string init_line(const InitFrame& f) {
    util::Json inner = util::Json::object();
    inner.set("worker", f.worker);
    inner.set("n_workers", f.n_workers);
    inner.set("gen", f.gen);
    return util::json_serialize_compact(obj1("init", std::move(inner)));
}

std::string sweep_line(const SweepFrame& f) {
    util::Json inner = util::Json::object();
    inner.set("id", f.id);
    inner.set("points_file", f.points_file);
    inner.set("n_points", static_cast<std::uint64_t>(f.n_points));
    return util::json_serialize_compact(obj1("sweep", std::move(inner)));
}

std::string lease_line(const LeaseFrame& f) {
    util::Json inner = util::Json::object();
    inner.set("id", f.id);
    inner.set("sweep", f.sweep);
    util::Json idx = util::Json::array();
    for (const std::size_t i : f.indices)
        idx.push_back(static_cast<std::uint64_t>(i));
    inner.set("indices", std::move(idx));
    return util::json_serialize_compact(obj1("lease", std::move(inner)));
}

std::string quit_line() {
    return util::json_serialize_compact(obj1("quit", util::Json::object()));
}

WorkerBound worker_bound_from_line(std::string_view line) {
    util::Json j;
    try {
        j = util::json_parse(line);
    } catch (const std::exception& e) {
        bad(std::string("unparseable line: ") + e.what());
    }
    if (j.kind() != util::Json::Kind::kObject) bad("frame is not an object");
    if (j.as_object().size() != 1) bad("frame needs exactly one envelope key");
    WorkerBound out;
    if (const util::Json* v = j.find("init")) {
        expect_keys(*v, 3, "init");
        InitFrame f;
        f.worker = need_i32(*v, "worker", "init");
        f.n_workers = need_i32(*v, "n_workers", "init");
        f.gen = need_i32(*v, "gen", "init");
        if (f.n_workers < 1) bad("init.n_workers must be >= 1");
        if (f.worker < 0 || f.worker >= f.n_workers)
            bad("init.worker out of range");
        if (f.gen < 0) bad("init.gen must be >= 0");
        out.init = f;
    } else if (const util::Json* v2 = j.find("sweep")) {
        expect_keys(*v2, 3, "sweep");
        SweepFrame f;
        f.id = need_nonneg_i64(*v2, "id", "sweep");
        f.points_file = need(*v2, "points_file", "sweep").as_string();
        f.n_points = need_size(*v2, "n_points", "sweep");
        if (f.points_file.empty()) bad("sweep.points_file is empty");
        if (f.n_points == 0) bad("sweep.n_points must be >= 1");
        out.sweep = std::move(f);
    } else if (const util::Json* v3 = j.find("lease")) {
        expect_keys(*v3, 3, "lease");
        LeaseFrame f;
        f.id = need_nonneg_i64(*v3, "id", "lease");
        f.sweep = need_nonneg_i64(*v3, "sweep", "lease");
        const util::Json& idx = need(*v3, "indices", "lease");
        for (const auto& e : idx.as_array())
            f.indices.push_back(static_cast<std::size_t>(e.as_uint()));
        if (f.indices.empty()) bad("lease.indices is empty");
        out.lease = std::move(f);
    } else if (const util::Json* v4 = j.find("quit")) {
        expect_keys(*v4, 0, "quit");
        out.quit = true;
    } else {
        bad("unknown frame \"" + j.as_object().front().first + "\"");
    }
    return out;
}

// ---- Worker -> coordinator --------------------------------------------------

std::string ready_line(const ReadyFrame& f) {
    util::Json inner = util::Json::object();
    inner.set("worker", f.worker);
    inner.set("gen", f.gen);
    inner.set("pid", f.pid);
    return util::json_serialize_compact(obj1("ready", std::move(inner)));
}

std::string loaded_line(const LoadedFrame& f) {
    util::Json inner = util::Json::object();
    inner.set("sweep", f.sweep);
    inner.set("n_points", static_cast<std::uint64_t>(f.n_points));
    return util::json_serialize_compact(obj1("loaded", std::move(inner)));
}

std::string done_line(const DoneFrame& f) {
    util::Json inner = util::Json::object();
    inner.set("lease", f.lease);
    inner.set("fabric_hits", f.fabric_hits);
    inner.set("fabric_misses", f.fabric_misses);
    return util::json_serialize_compact(obj1("done", std::move(inner)));
}

std::string perr_line(const PointErrorFrame& f) {
    util::Json inner = util::Json::object();
    inner.set("sweep", f.sweep);
    inner.set("index", static_cast<std::uint64_t>(f.index));
    inner.set("what", f.what);
    return util::json_serialize_compact(obj1("perr", std::move(inner)));
}

std::string fleet_row_line(const FleetRow& r) {
    util::Json j = util::Json::object();
    j.set("sweep", r.sweep);
    j.set("index", static_cast<std::uint64_t>(r.index));
    j.set("row", scenario::to_json(r.row));
    return util::json_serialize_compact(j);
}

CoordinatorBound coordinator_bound_from_line(std::string_view line) {
    util::Json j;
    try {
        j = util::json_parse(line);
    } catch (const std::exception& e) {
        bad(std::string("unparseable line: ") + e.what());
    }
    if (j.kind() != util::Json::Kind::kObject) bad("frame is not an object");
    CoordinatorBound out;
    // The row envelope is the only three-key frame; everything else is a
    // single envelope key.
    if (j.find("row")) {
        if (j.as_object().size() != 3 || !j.find("sweep") || !j.find("index"))
            bad("row frame needs exactly sweep/index/row");
        FleetRow r;
        r.sweep = j.find("sweep")->as_int();
        if (r.sweep < 0) bad("row.sweep must be >= 0");
        r.index = static_cast<std::size_t>(j.find("index")->as_uint());
        r.row = scenario::sweep_row_from_json(*j.find("row"));
        out.row = std::move(r);
        return out;
    }
    if (j.as_object().size() != 1) bad("frame needs exactly one envelope key");
    if (const util::Json* v = j.find("ready")) {
        expect_keys(*v, 3, "ready");
        ReadyFrame f;
        f.worker = need_i32(*v, "worker", "ready");
        f.gen = need_i32(*v, "gen", "ready");
        f.pid = need_nonneg_i64(*v, "pid", "ready");
        if (f.worker < 0) bad("ready.worker must be >= 0");
        if (f.gen < 0) bad("ready.gen must be >= 0");
        out.ready = f;
    } else if (const util::Json* v2 = j.find("loaded")) {
        expect_keys(*v2, 2, "loaded");
        LoadedFrame f;
        f.sweep = need_nonneg_i64(*v2, "sweep", "loaded");
        f.n_points = need_size(*v2, "n_points", "loaded");
        out.loaded = f;
    } else if (const util::Json* v3 = j.find("done")) {
        expect_keys(*v3, 3, "done");
        DoneFrame f;
        f.lease = need_nonneg_i64(*v3, "lease", "done");
        f.fabric_hits = need_nonneg_i64(*v3, "fabric_hits", "done");
        f.fabric_misses = need_nonneg_i64(*v3, "fabric_misses", "done");
        out.done = f;
    } else if (const util::Json* v4 = j.find("perr")) {
        expect_keys(*v4, 3, "perr");
        PointErrorFrame f;
        f.sweep = need_nonneg_i64(*v4, "sweep", "perr");
        f.index = need_size(*v4, "index", "perr");
        f.what = need(*v4, "what", "perr").as_string();
        out.perr = std::move(f);
    } else {
        bad("unknown frame \"" + j.as_object().front().first + "\"");
    }
    return out;
}

// ---- The worker loop --------------------------------------------------------

namespace {

/// A parsed FLORETSIM_FLEET_KILL / FLORETSIM_FLEET_PERR injection spec.
struct FaultSpec {
    bool armed = false;
    std::int32_t worker = -1;
    std::int32_t gen = -1;  ///< -1 matches any generation.
    std::uint64_t after_rows = 0;
};

FaultSpec parse_fault(const char* env) {
    FaultSpec spec;
    const char* text = std::getenv(env);
    if (!text || !*text) return spec;
    std::istringstream ss{std::string(text)};
    std::string field;
    std::vector<std::int64_t> vals;
    while (std::getline(ss, field, ':')) {
        try {
            vals.push_back(std::stoll(field));
        } catch (const std::exception&) {
            return spec;  // malformed injection spec: ignore, never crash
        }
    }
    if (vals.size() != 3) return spec;
    spec.armed = true;
    spec.worker = static_cast<std::int32_t>(vals[0]);
    spec.gen = static_cast<std::int32_t>(vals[1]);
    spec.after_rows = static_cast<std::uint64_t>(std::max<std::int64_t>(
        0, vals[2]));
    return spec;
}

bool fault_matches(const FaultSpec& s, const InitFrame& init) {
    return s.armed && s.worker == init.worker &&
           (s.gen < 0 || s.gen == init.gen);
}

}  // namespace

int serve_worker(std::istream& in, std::ostream& out, std::ostream& err,
                 core::SweepEngine& engine) {
    std::optional<InitFrame> init;
    std::vector<core::SweepPoint> points;
    std::int64_t sweep_id = -1;
    std::uint64_t rows_lifetime = 0;
    std::atomic<std::uint64_t> attempts_lifetime{0};
    FaultSpec kill_spec, perr_spec;
    std::mutex out_mu;  // serializes row/perr lines from the pool

    std::string line;
    while (std::getline(in, line)) {
        if (line.empty()) continue;
        WorkerBound frame;
        try {
            frame = worker_bound_from_line(line);
        } catch (const std::exception& e) {
            err << "fleet worker: " << e.what() << "\n";
            return 3;
        }
        if (frame.quit) return 0;
        if (frame.init) {
            init = *frame.init;
            kill_spec = parse_fault("FLORETSIM_FLEET_KILL");
            perr_spec = parse_fault("FLORETSIM_FLEET_PERR");
            obs::Tracer::global().set_process_label(
                "fleet worker " + std::to_string(init->worker) + "/" +
                std::to_string(init->n_workers) + " gen " +
                std::to_string(init->gen));
            ReadyFrame ready;
            ready.worker = init->worker;
            ready.gen = init->gen;
            ready.pid = static_cast<std::int64_t>(getpid());
            out << ready_line(ready) << "\n" << std::flush;
            continue;
        }
        if (!init) {
            err << "fleet worker: frame before init\n";
            return 3;
        }
        if (frame.sweep) {
            std::ifstream f(frame.sweep->points_file);
            std::ostringstream text;
            text << f.rdbuf();
            if (!f) {
                err << "fleet worker: cannot read points file "
                    << frame.sweep->points_file << "\n";
                return 3;
            }
            try {
                points = points_from_text(text.str(), frame.sweep->points_file);
            } catch (const std::exception& e) {
                err << "fleet worker: " << e.what() << "\n";
                return 3;
            }
            if (points.size() != frame.sweep->n_points) {
                err << "fleet worker: sweep " << frame.sweep->id << " expects "
                    << frame.sweep->n_points << " points, file has "
                    << points.size() << "\n";
                return 3;
            }
            sweep_id = frame.sweep->id;
            LoadedFrame loaded;
            loaded.sweep = sweep_id;
            loaded.n_points = points.size();
            out << loaded_line(loaded) << "\n" << std::flush;
            continue;
        }
        if (frame.lease) {
            const LeaseFrame& lease = *frame.lease;
            if (lease.sweep != sweep_id) {
                err << "fleet worker: lease " << lease.id << " targets sweep "
                    << lease.sweep << " but current sweep is " << sweep_id
                    << "\n";
                return 3;
            }
            for (const std::size_t i : lease.indices) {
                if (i >= points.size()) {
                    err << "fleet worker: lease index " << i
                        << " out of range for " << points.size()
                        << " points\n";
                    return 3;
                }
            }
            const obs::Span lease_span("fleet_lease", "fleet");
            (void)engine.map(lease.indices.size(), [&](std::size_t k) {
                const std::size_t index = lease.indices[k];
                try {
                    if (fault_matches(perr_spec, *init) &&
                        ++attempts_lifetime == perr_spec.after_rows)
                        throw std::runtime_error(
                            "injected fleet fault: point failure");
                    FleetRow r;
                    r.sweep = sweep_id;
                    r.index = index;
                    r.row = core::evaluate_point(engine.cache(), points[index]);
                    const std::lock_guard<std::mutex> lock(out_mu);
                    ++rows_lifetime;
                    out << fleet_row_line(r) << "\n" << std::flush;
                    if (fault_matches(kill_spec, *init) &&
                        rows_lifetime == kill_spec.after_rows)
                        (void)raise(SIGKILL);
                } catch (const std::exception& e) {
                    PointErrorFrame perr;
                    perr.sweep = sweep_id;
                    perr.index = index;
                    perr.what = e.what();
                    const std::lock_guard<std::mutex> lock(out_mu);
                    out << perr_line(perr) << "\n" << std::flush;
                }
                return 0;
            });
            DoneFrame done;
            done.lease = lease.id;
            done.fabric_hits = engine.cache().hits();
            done.fabric_misses = engine.cache().misses();
            const std::lock_guard<std::mutex> lock(out_mu);
            out << done_line(done) << "\n" << std::flush;
            continue;
        }
    }
    // EOF without a quit frame: the coordinator closed our stdin (its
    // orderly shutdown path) or died — either way, stop serving cleanly.
    return 0;
}

}  // namespace floretsim::fleet
