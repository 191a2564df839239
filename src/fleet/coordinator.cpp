#include "src/fleet/coordinator.h"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <tuple>

#include "src/fleet/protocol.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/scenario/spec_json.h"
#include "src/util/json.h"

namespace floretsim::fleet {
namespace {

using Clock = std::chrono::steady_clock;

/// Least time between two progress lines for one worker.
constexpr double kProgressIntervalS = 0.5;
/// A point leased this many times without an ack fails the sweep — the
/// bounded-retry guarantee (a poison point cannot restart workers
/// forever).
constexpr std::int32_t kMaxAttemptsPerPoint = 3;
/// The most points one lease carries.
constexpr std::size_t kMaxLeasePoints = 32;
/// Lease sizing aims for about this many leases per worker over the
/// sweep, so a worker's threads stay busy while its next lease is queued.
constexpr std::size_t kLeasesPerWorker = 4;
/// Stderr lines kept per worker for its death report.
constexpr std::size_t kStderrTailLines = 20;

/// The fabric identity of a point — exactly experiment::ArchCache's key.
/// Points sharing a FabricKey share one expensive topology build, so a
/// sweep is placed fabric-group-at-a-time and each worker remembers which
/// fabrics were placed on it (its affinity): the second scenario over the
/// same arch grid re-lands every group on the worker that already holds
/// it warm.
using FabricKey = std::tuple<std::int32_t, std::int32_t, std::int32_t,
                             std::uint64_t>;

FabricKey key_of(const core::SweepPoint& p) {
    return {static_cast<std::int32_t>(p.arch), p.width, p.height, p.swap_seed};
}

double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Absorbs one worker's --trace-out / --metrics-out file into the
/// process-global obs sinks. Lenient by design: observability must never
/// fail a sweep that produced correct rows, so a missing or corrupt file
/// is a warning on `warn` (null = silent), not an error. Empty paths are
/// skipped.
void absorb_worker_obs(const std::string& trace_path,
                       const std::string& metrics_path, std::int32_t worker,
                       std::ostream* warn) {
    const auto read_all = [](const std::string& path,
                             std::string& out) -> bool {
        std::ifstream f(path);
        if (!f) return false;
        std::ostringstream ss;
        ss << f.rdbuf();
        out = ss.str();
        return true;
    };
    const auto complain = [&](const char* what, const std::string& detail) {
        if (warn)
            *warn << "worker " << worker << ": cannot absorb worker " << what
                  << " (" << detail << "); sweep results are unaffected\n";
    };
    if (!trace_path.empty()) {
        std::string text;
        if (!read_all(trace_path, text)) {
            complain("trace", "file unreadable");
        } else {
            try {
                obs::Tracer::global().absorb(util::json_parse(text));
            } catch (const std::exception& e) {
                complain("trace", e.what());
            }
        }
    }
    if (!metrics_path.empty()) {
        std::string text;
        if (!read_all(metrics_path, text)) {
            complain("metrics", "file unreadable");
        } else {
            try {
                obs::MetricsRegistry::global().absorb(util::json_parse(text));
            } catch (const std::exception& e) {
                complain("metrics", e.what());
            }
        }
    }
}

}  // namespace

struct Coordinator::WorkerState {
    bool ready = false;
    bool retired = false;
    bool sweep_sent = false;
    bool loaded = false;
    std::int32_t restarts = 0;
    std::int32_t leases_in_flight = 0;
    std::deque<std::size_t> queue;        ///< Placed here, not yet leased.
    std::vector<std::size_t> outstanding;  ///< Leased, not yet acked.
    std::set<FabricKey> affinity;          ///< Fabrics placed on this worker.
    std::string out_buf, err_buf;
    std::deque<std::string> stderr_tail;
    /// ArchCache counters: cumulative within the current process
    /// generation (from done frames), plus the folded totals of dead
    /// generations.
    std::int64_t gen_fabric_hits = 0, gen_fabric_misses = 0;
    std::int64_t prev_fabric_hits = 0, prev_fabric_misses = 0;
    /// This sweep's progress: points leased to and acked from the worker.
    std::size_t leased = 0, acked = 0;
    Clock::time_point last_print = Clock::now();
    std::string trace_path, metrics_path;
};

struct Coordinator::SweepRun {
    std::int64_t id = 0;
    const std::vector<core::SweepPoint>* points = nullptr;
    std::string points_path;
    std::vector<core::SweepRow> rows;  ///< The acked row of each point.
    std::vector<bool> acked;
    std::vector<std::int32_t> attempts;
    std::size_t n_acked = 0;
    std::size_t lease_size = 1;
    Clock::time_point t0 = Clock::now();

    SweepRun() = default;
    SweepRun(const SweepRun&) = delete;
    SweepRun& operator=(const SweepRun&) = delete;
    /// The points file lives as long as the sweep: it is removed whether
    /// the sweep finishes or throws.
    ~SweepRun() {
        if (!points_path.empty()) (void)std::remove(points_path.c_str());
    }
};

Coordinator::Coordinator(FleetOptions opt) : opt_(std::move(opt)) {
    if (opt_.n_workers < 1)
        throw std::invalid_argument("fleet: n_workers must be >= 1");
    if (opt_.worker_exe.empty())
        throw std::invalid_argument("fleet: worker_exe is empty");
}

Coordinator::~Coordinator() {
    try {
        shutdown();
    } catch (...) {
        // Destructor: teardown best-effort; the pool's own destructor
        // still reaps the children.
    }
}

pid_t Coordinator::worker_pid(std::size_t w) const {
    return pool_ ? pool_->pid(w) : -1;
}

void Coordinator::ensure_started() {
    if (pool_) return;
    if (shut_down_)
        throw std::logic_error("fleet: coordinator already shut down");
    ensure_sigpipe_ignored();
    std::string templ =
        (std::filesystem::temp_directory_path() / "floretsim-fleet-XXXXXX")
            .string();
    if (!mkdtemp(templ.data()))
        throw std::runtime_error("fleet: mkdtemp failed for " + templ);
    scratch_ = templ;

    workers_.assign(static_cast<std::size_t>(opt_.n_workers), WorkerState{});
    PoolOptions popt;
    popt.exe = opt_.worker_exe;
    popt.args = opt_.worker_args;
    popt.n_workers = static_cast<std::size_t>(opt_.n_workers);
    const bool trace_on = obs::Tracer::global().enabled();
    const bool metrics_on = obs::MetricsRegistry::global().enabled();
    if (trace_on || metrics_on) {
        popt.per_worker_args.resize(popt.n_workers);
        for (std::size_t w = 0; w < popt.n_workers; ++w) {
            if (trace_on) {
                workers_[w].trace_path =
                    scratch_ + "/trace." + std::to_string(w) + ".json";
                popt.per_worker_args[w].push_back("--trace-out");
                popt.per_worker_args[w].push_back(workers_[w].trace_path);
            }
            if (metrics_on) {
                workers_[w].metrics_path =
                    scratch_ + "/metrics." + std::to_string(w) + ".json";
                popt.per_worker_args[w].push_back("--metrics-out");
                popt.per_worker_args[w].push_back(workers_[w].metrics_path);
            }
        }
    }
    pool_ = std::make_unique<WorkerPool>(std::move(popt));
    for (std::size_t w = 0; w < pool_->size(); ++w) {
        pool_->start(w);
        send_init(w);
    }
    obs::MetricsRegistry::global().add(
        "fleet.workers_spawned", static_cast<std::int64_t>(pool_->size()));
}

void Coordinator::send_init(std::size_t w) {
    InitFrame init;
    init.worker = static_cast<std::int32_t>(w);
    init.n_workers = opt_.n_workers;
    init.gen = pool_->gen(w);
    // A failed send means the worker is already dead; the poll loop sees
    // the EOF and handles it through the normal death path.
    (void)pool_->send(w, init_line(init));
}

void Coordinator::drain_stderr(std::size_t w) {
    WorkerState& ws = workers_[w];
    const int fd = pool_->stderr_fd(w);
    if (fd < 0) return;
    char chunk[4096];
    for (;;) {
        const ssize_t n = ::read(fd, chunk, sizeof chunk);
        if (n > 0) {
            ws.err_buf.append(chunk, static_cast<std::size_t>(n));
            continue;
        }
        if (n < 0 && errno == EINTR) continue;
        break;  // EOF or EAGAIN: everything currently available is read
    }
    std::size_t nl;
    while ((nl = ws.err_buf.find('\n')) != std::string::npos) {
        std::string line = ws.err_buf.substr(0, nl);
        ws.err_buf.erase(0, nl + 1);
        if (line.empty()) continue;
        ws.stderr_tail.push_back(std::move(line));
        while (ws.stderr_tail.size() > kStderrTailLines)
            ws.stderr_tail.pop_front();
    }
}

void Coordinator::absorb_worker_files(std::size_t w) {
    WorkerState& ws = workers_[w];
    absorb_worker_obs(
        std::filesystem::exists(ws.trace_path) ? ws.trace_path : "",
        std::filesystem::exists(ws.metrics_path) ? ws.metrics_path : "",
        static_cast<std::int32_t>(w), opt_.progress);
    std::error_code ec;
    if (!ws.trace_path.empty()) std::filesystem::remove(ws.trace_path, ec);
    if (!ws.metrics_path.empty()) std::filesystem::remove(ws.metrics_path, ec);
}

bool Coordinator::live(std::size_t w) const {
    return !workers_[w].retired && pool_->alive(w);
}

void Coordinator::place(SweepRun& run,
                        const std::vector<std::size_t>& indices) {
    std::vector<std::size_t> live_workers;
    for (std::size_t w = 0; w < workers_.size(); ++w)
        if (live(w)) live_workers.push_back(w);
    if (live_workers.empty())
        throw std::runtime_error("fleet: no live workers left");
    const std::size_t share =
        (indices.size() + live_workers.size() - 1) / live_workers.size();
    std::map<FabricKey, std::vector<std::size_t>> groups;
    for (const std::size_t i : indices)
        groups[key_of((*run.points)[i])].push_back(i);

    // Each worker keeps the groups it already holds, up to its share.
    std::vector<std::size_t> load(workers_.size(), 0);
    std::vector<std::size_t> rest;
    std::int64_t kept = 0;
    for (const auto& [key, group] : groups) {
        auto it = group.begin();
        for (const std::size_t w : live_workers) {
            if (!workers_[w].affinity.count(key)) continue;
            for (; it != group.end() && load[w] < share; ++it, ++load[w])
                workers_[w].queue.push_back(*it);
        }
        kept += it - group.begin();
        rest.insert(rest.end(), it, group.end());
    }
    // The rest, in group order, fills the live workers one after another.
    auto w = live_workers.begin();
    for (const std::size_t i : rest) {
        while (load[*w] >= share) ++w;
        workers_[*w].affinity.insert(key_of((*run.points)[i]));
        workers_[*w].queue.push_back(i);
        ++load[*w];
    }
    const auto adopted = static_cast<std::int64_t>(rest.size());
    stats_.affinity_hits += kept;
    stats_.affinity_misses += adopted;
    obs::MetricsRegistry::global().add("fleet.affinity_hits", kept);
    obs::MetricsRegistry::global().add("fleet.affinity_misses", adopted);
}

void Coordinator::handle_death(std::size_t w, SweepRun& run) {
    WorkerState& ws = workers_[w];
    drain_stderr(w);
    const int status = pool_->reap(w);
    ++stats_.worker_deaths;
    obs::MetricsRegistry::global().add("fleet.worker_deaths");
    obs::Tracer::global().record_instant("fleet_worker_death", "fleet",
                                         obs::Tracer::now_us());
    if (opt_.progress) {
        *opt_.progress << "[fleet] worker " << w << " "
                       << describe_wait_status(status);
        if (ws.stderr_tail.empty()) {
            *opt_.progress << "; its stderr was empty\n";
        } else {
            *opt_.progress << "; last stderr lines:\n";
            for (const auto& line : ws.stderr_tail)
                *opt_.progress << "    " << line << "\n";
        }
        *opt_.progress << std::flush;
    }
    absorb_worker_files(w);
    // The dead generation's ArchCache is gone; fold its counters so the
    // fleet totals survive the restart (the fresh process restarts at 0).
    ws.prev_fabric_hits += ws.gen_fabric_hits;
    ws.prev_fabric_misses += ws.gen_fabric_misses;
    ws.gen_fabric_hits = ws.gen_fabric_misses = 0;

    // Every un-acked point this worker held goes back to the front of its
    // queue, in lease order. Bounded retry: a point that has been leased
    // kMaxAttemptsPerPoint times and still has no row fails the sweep — a
    // poison point must not restart workers forever.
    for (const std::size_t i : ws.outstanding)
        if (run.attempts[i] >= kMaxAttemptsPerPoint)
            throw std::runtime_error(
                "fleet: point " + std::to_string(i) + " lost " +
                std::to_string(run.attempts[i]) +
                " times to worker deaths; giving up");
    ws.queue.insert(ws.queue.begin(), ws.outstanding.begin(),
                    ws.outstanding.end());
    const auto requeued = static_cast<std::int64_t>(ws.outstanding.size());
    stats_.points_reassigned += requeued;
    obs::MetricsRegistry::global().add("fleet.points_reassigned", requeued);
    ws.outstanding.clear();
    ws.leases_in_flight = 0;
    ws.ready = ws.loaded = ws.sweep_sent = false;
    ws.out_buf.clear();

    if (ws.restarts < opt_.max_restarts_per_worker) {
        pool_->start(w);
        send_init(w);
        ++ws.restarts;
        ++stats_.worker_restarts;
        obs::MetricsRegistry::global().add("fleet.worker_restarts");
        obs::Tracer::global().record_instant("fleet_worker_restart", "fleet",
                                             obs::Tracer::now_us());
        if (opt_.progress)
            *opt_.progress << "[fleet] worker " << w << " restarted (gen "
                           << pool_->gen(w) << ")\n"
                           << std::flush;
        return;
    }
    ws.retired = true;
    bool any_live = false;
    for (std::size_t v = 0; v < workers_.size(); ++v) any_live |= live(v);
    if (!any_live)
        throw std::runtime_error(
            "fleet: every worker exhausted its restart budget (" +
            std::to_string(opt_.max_restarts_per_worker) + " restarts each)");
    // The retired worker's queue is placed on the live workers.
    const std::vector<std::size_t> orphans(ws.queue.begin(), ws.queue.end());
    ws.queue.clear();
    place(run, orphans);
}

void Coordinator::send_lease(std::size_t w, SweepRun& run,
                             std::vector<std::size_t> idx) {
    WorkerState& ws = workers_[w];
    LeaseFrame lease;
    lease.id = next_lease_id_++;
    lease.sweep = run.id;
    lease.indices = std::move(idx);
    for (const std::size_t i : lease.indices) {
        ++run.attempts[i];
        ws.outstanding.push_back(i);
    }
    ws.leased += lease.indices.size();
    ++ws.leases_in_flight;
    ++stats_.leases_issued;
    obs::MetricsRegistry::global().add("fleet.leases_issued");
    if (!pool_->send(w, lease_line(lease))) handle_death(w, run);
}

void Coordinator::top_up(std::size_t w, SweepRun& run) {
    WorkerState& ws = workers_[w];
    while (live(w) && ws.loaded && ws.leases_in_flight < 2 &&
           !ws.queue.empty()) {
        // One lease: the front of the worker's queue, at most lease_size
        // points, all of one fabric group.
        const FabricKey key = key_of((*run.points)[ws.queue.front()]);
        std::vector<std::size_t> idx;
        while (!ws.queue.empty() && idx.size() < run.lease_size &&
               key_of((*run.points)[ws.queue.front()]) == key) {
            idx.push_back(ws.queue.front());
            ws.queue.pop_front();
        }
        send_lease(w, run, std::move(idx));
    }
}

void Coordinator::handle_stdout_line(std::size_t w, std::string_view line,
                                     SweepRun& run) {
    while (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty()) return;
    WorkerState& ws = workers_[w];
    CoordinatorBound frame;
    try {
        frame = coordinator_bound_from_line(line);
    } catch (const std::exception& e) {
        // A persistent worker emitting garbage on the row channel is a
        // protocol violation — tolerating it would desynchronize every
        // later sweep. Kill and restart.
        if (opt_.progress)
            *opt_.progress << "[fleet] worker " << w
                           << " protocol violation: " << e.what() << "\n"
                           << std::flush;
        handle_death(w, run);
        return;
    }
    if (frame.ready) {
        if (frame.ready->worker != static_cast<std::int32_t>(w)) {
            handle_death(w, run);
            return;
        }
        ws.ready = true;
        if (!ws.sweep_sent && run.points) {
            SweepFrame sf;
            sf.id = run.id;
            sf.points_file = run.points_path;
            sf.n_points = run.points->size();
            ws.sweep_sent = pool_->send(w, sweep_line(sf));
        }
        return;
    }
    if (frame.loaded) {
        if (frame.loaded->sweep != run.id ||
            frame.loaded->n_points != run.points->size())
            return;  // ack for a superseded sweep; the current one follows
        ws.loaded = true;
        top_up(w, run);
        return;
    }
    if (frame.row) {
        if (frame.row->sweep != run.id) {
            ++stats_.stale_rows;
            obs::MetricsRegistry::global().add("fleet.stale_rows");
            return;
        }
        // Each point is leased to one worker at a time, so a row for an
        // index the sweep lacks or has already acked is a protocol
        // violation.
        const std::size_t i = frame.row->index;
        if (i >= run.acked.size() || run.acked[i]) {
            handle_death(w, run);
            return;
        }
        run.acked[i] = true;
        ++run.n_acked;
        ++stats_.rows;
        obs::MetricsRegistry::global().add("fleet.rows");
        run.rows[i] = std::move(frame.row->row);
        std::erase(ws.outstanding, i);
        ++ws.acked;
        if (opt_.progress &&
            (ws.acked == 1 || run.n_acked == run.acked.size() ||
             seconds_since(ws.last_print) >= kProgressIntervalS)) {
            char sec_buf[32];
            std::snprintf(sec_buf, sizeof sec_buf, "%.1f",
                          seconds_since(run.t0));
            *opt_.progress << "[fleet " << w << "/" << opt_.n_workers << "] "
                           << ws.acked << "/" << ws.leased << " leased points "
                           << sec_buf << "s\n"
                           << std::flush;
            ws.last_print = Clock::now();
        }
        return;
    }
    if (frame.done) {
        if (ws.leases_in_flight > 0) --ws.leases_in_flight;
        ws.gen_fabric_hits = frame.done->fabric_hits;
        ws.gen_fabric_misses = frame.done->fabric_misses;
        std::int64_t hits = 0, misses = 0;
        for (const auto& v : workers_) {
            hits += v.prev_fabric_hits + v.gen_fabric_hits;
            misses += v.prev_fabric_misses + v.gen_fabric_misses;
        }
        stats_.fleet_fabric_hits = hits;
        stats_.fleet_fabric_misses = misses;
        top_up(w, run);
        return;
    }
    if (frame.perr)
        throw std::runtime_error("fleet: point " +
                                 std::to_string(frame.perr->index) +
                                 " failed: " + frame.perr->what);
}

std::vector<core::SweepRow> Coordinator::run_sweep(
    const std::vector<core::SweepPoint>& points) {
    if (points.empty()) return {};
    ensure_started();
    const obs::Span sweep_span("fleet_sweep", "fleet");
    obs::MetricsRegistry::global().add("fleet.sweeps");

    SweepRun run;
    run.id = ++sweep_counter_;
    run.points = &points;
    run.points_path =
        scratch_ + "/points." + std::to_string(run.id) + ".json";
    {
        std::ofstream f(run.points_path);
        f << util::json_serialize(scenario::to_json(points));
        if (!f)
            throw std::runtime_error("fleet: cannot write points file " +
                                     run.points_path);
    }
    run.rows.resize(points.size());
    run.acked.assign(points.size(), false);
    run.attempts.assign(points.size(), 0);

    std::size_t n_live = 0;
    for (std::size_t w = 0; w < workers_.size(); ++w) {
        WorkerState& ws = workers_[w];
        ws.queue.clear();
        ws.outstanding.clear();
        ws.leases_in_flight = 0;
        ws.loaded = ws.sweep_sent = false;
        ws.leased = ws.acked = 0;
        if (live(w)) ++n_live;
    }
    if (n_live == 0)
        throw std::runtime_error("fleet: no live workers left");
    const std::size_t denom = n_live * kLeasesPerWorker;
    run.lease_size = std::clamp<std::size_t>((points.size() + denom - 1) / denom,
                                             1, kMaxLeasePoints);
    std::vector<std::size_t> all(points.size());
    for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
    place(run, all);

    // Announce the sweep to every worker that is already ready; workers
    // mid-(re)spawn get it when their ready frame arrives.
    for (std::size_t w = 0; w < workers_.size(); ++w) {
        WorkerState& ws = workers_[w];
        if (!live(w) || !ws.ready) continue;
        SweepFrame sf;
        sf.id = run.id;
        sf.points_file = run.points_path;
        sf.n_points = points.size();
        ws.sweep_sent = pool_->send(w, sweep_line(sf));
    }

    // The coordinator's whole job from here is this drain loop: keep every
    // worker leased from its own queue, keep each point's row, and react
    // to EOF (restart + requeue). The sweep ends once every point is acked
    // and every lease's done frame is in, so the fleet's fabric counters
    // are current when the next sweep starts.
    const auto busy = [&] {
        if (run.n_acked < points.size()) return true;
        for (const auto& ws : workers_)
            if (ws.leases_in_flight > 0) return true;
        return false;
    };
    while (busy()) {
        bool any_live = false;
        for (std::size_t w = 0; w < workers_.size(); ++w) {
            if (!live(w)) continue;
            any_live = true;
            if (workers_[w].loaded) top_up(w, run);
        }
        if (!any_live) throw std::runtime_error("fleet: no live workers left");

        std::vector<pollfd> fds;
        std::vector<std::pair<std::size_t, bool>> owner;  // (worker, stderr?)
        for (std::size_t w = 0; w < workers_.size(); ++w) {
            if (!live(w)) continue;
            fds.push_back(pollfd{pool_->stdout_fd(w), POLLIN, 0});
            owner.emplace_back(w, false);
            fds.push_back(pollfd{pool_->stderr_fd(w), POLLIN, 0});
            owner.emplace_back(w, true);
        }
        const int rc = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), 200);
        if (rc < 0) {
            if (errno == EINTR) continue;
            throw std::runtime_error("fleet: poll failed");
        }
        for (std::size_t k = 0; k < fds.size(); ++k) {
            if (!(fds[k].revents & (POLLIN | POLLHUP | POLLERR))) continue;
            const std::size_t w = owner[k].first;
            if (!live(w)) continue;
            if (owner[k].second) {
                drain_stderr(w);
                continue;
            }
            char chunk[4096];
            const ssize_t n = ::read(pool_->stdout_fd(w), chunk, sizeof chunk);
            if (n > 0) {
                WorkerState& ws = workers_[w];
                ws.out_buf.append(chunk, static_cast<std::size_t>(n));
                std::size_t nl;
                while (live(w) &&
                       (nl = ws.out_buf.find('\n')) != std::string::npos) {
                    std::string line = ws.out_buf.substr(0, nl);
                    ws.out_buf.erase(0, nl + 1);
                    handle_stdout_line(w, line, run);
                }
            } else if (n == 0 || (n < 0 && errno != EINTR && errno != EAGAIN)) {
                handle_death(w, run);
            }
        }
    }

    ++stats_.sweeps;
    stats_.points += static_cast<std::int64_t>(points.size());
    if (obs::MetricsRegistry::global().enabled())
        for (std::size_t w = 0; w < workers_.size(); ++w) {
            const WorkerState& ws = workers_[w];
            obs::MetricsRegistry::global().set_gauge(
                "fleet.worker" + std::to_string(w) + ".fabric_hits",
                static_cast<double>(ws.prev_fabric_hits + ws.gen_fabric_hits));
            obs::MetricsRegistry::global().set_gauge(
                "fleet.worker" + std::to_string(w) + ".fabric_misses",
                static_cast<double>(ws.prev_fabric_misses +
                                    ws.gen_fabric_misses));
        }
    return std::move(run.rows);
}

util::Json Coordinator::stats_json() const {
    util::Json j = util::Json::object();
    j.set("workers", static_cast<std::int64_t>(opt_.n_workers));
    j.set("sweeps", stats_.sweeps);
    j.set("points", stats_.points);
    j.set("rows", stats_.rows);
    j.set("stale_rows", stats_.stale_rows);
    j.set("leases_issued", stats_.leases_issued);
    j.set("points_reassigned", stats_.points_reassigned);
    j.set("worker_deaths", stats_.worker_deaths);
    j.set("worker_restarts", stats_.worker_restarts);
    j.set("affinity_hits", stats_.affinity_hits);
    j.set("affinity_misses", stats_.affinity_misses);
    j.set("fabric_hits", stats_.fleet_fabric_hits);
    j.set("fabric_misses", stats_.fleet_fabric_misses);
    return j;
}

void Coordinator::print_summary(std::ostream& out) const {
    out << "[fleet] " << opt_.n_workers << " workers, " << stats_.sweeps
        << " sweeps, " << stats_.rows << " rows; leases " << stats_.leases_issued
        << " issued, " << stats_.points_reassigned
        << " points reassigned; deaths "
        << stats_.worker_deaths << ", restarts " << stats_.worker_restarts
        << "; fabric hits/misses " << stats_.fleet_fabric_hits << "/"
        << stats_.fleet_fabric_misses << "; affinity hits/misses "
        << stats_.affinity_hits << "/" << stats_.affinity_misses << "\n"
        << std::flush;
}

void Coordinator::shutdown() {
    if (shut_down_) return;
    shut_down_ = true;
    if (pool_) {
        for (std::size_t w = 0; w < pool_->size(); ++w)
            if (pool_->alive(w)) (void)pool_->send(w, quit_line());
        // terminate_all closes stdins and waits: a serving worker exits
        // on quit/EOF, writing its --trace-out/--metrics-out files on the
        // way out — absorb them into the process-global sinks after.
        pool_->terminate_all();
        for (std::size_t w = 0; w < workers_.size(); ++w) {
            drain_stderr(w);
            absorb_worker_files(w);
        }
        pool_.reset();
    }
    if (!scratch_.empty()) {
        std::error_code ec;
        std::filesystem::remove_all(scratch_, ec);
        scratch_.clear();
    }
}

void install_fleet_executor(core::SweepEngine& engine,
                            std::shared_ptr<Coordinator> coordinator) {
    engine.set_executor_label("fleet");
    engine.set_executor(
        [coordinator](const std::vector<core::SweepPoint>& points) {
            return coordinator->run_sweep(points);
        });
}

}  // namespace floretsim::fleet
