#pragma once

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "src/core/sweep.h"
#include "src/fleet/pool.h"
#include "src/util/json.h"

namespace floretsim::fleet {

/// Fleet coordinator settings.
struct FleetOptions {
    /// Worker executable (normally self_exe_path(argv[0])).
    std::string worker_exe;
    /// Arguments after argv[0], e.g. {"--worker", "--serve", "--threads",
    /// "1"}. The coordinator appends per-worker --trace-out/--metrics-out
    /// when the process obs sinks are enabled.
    std::vector<std::string> worker_args;
    std::int32_t n_workers = 2;
    /// Live progress + death diagnostics stream (null = silent).
    std::ostream* progress = nullptr;
    std::int32_t max_restarts_per_worker = 3;
};

/// Cumulative coordinator statistics, across every sweep since startup.
struct FleetStats {
    std::int64_t sweeps = 0;
    std::int64_t points = 0;
    std::int64_t rows = 0;
    std::int64_t stale_rows = 0;  ///< Rows from a superseded sweep.
    std::int64_t leases_issued = 0;
    std::int64_t points_reassigned = 0;  ///< Requeued after a worker death.
    std::int64_t worker_deaths = 0;
    std::int64_t worker_restarts = 0;
    /// Placed points whose worker already held their fabric.
    std::int64_t affinity_hits = 0;
    /// Placed points whose worker adopted their fabric.
    std::int64_t affinity_misses = 0;
    std::int64_t fleet_fabric_hits = 0;    ///< Sum of worker ArchCache hits.
    std::int64_t fleet_fabric_misses = 0;  ///< Sum of worker ArchCache misses.
};

/// The persistent-fleet coordinator: spawns opt.n_workers long-lived
/// `--worker --serve` processes once (lazily, on the first sweep) and
/// dispatches every subsequent sweep to them over the fleet protocol.
/// Three ideas carry it:
///
/// - Placement. Before the first lease, place() puts every point of the
///   sweep on one worker's queue. Points sharing a fabric form a group;
///   each worker keeps the groups it already holds (its *affinity*), up to
///   its fair share of ceil(points / live workers), and the remaining
///   points, in group order, fill the live workers one after another up to
///   that share. Workers keep their ArchCache across sweeps, so the second
///   scenario over the same arch grid evaluates with zero fabric-cache
///   misses anywhere in the fleet, and where a point runs never depends
///   on timing.
/// - Leases. A worker is leased only from its own queue: at most
///   lease_size points of one fabric group per lease, two leases in
///   flight.
/// - Recovery. A dead worker is restarted and its un-acked points go back
///   to the front of its queue (bounded per-point retry); a worker out of
///   restarts retires and its queue is placed on the live workers.
///
/// Each row frame is parsed once and kept at its point index (a row for
/// an already-acked index is a protocol violation; rows of a superseded
/// sweep are dropped and counted), so reports see exactly the rows a local
/// SweepEngine::run would have produced — bit-identical, as pinned by the
/// fleet_parity ctest. Live `[fleet w/N] d/t leased points Xs` progress
/// lines come from the rows the coordinator acks.
///
/// Single-threaded and not reentrant: one run_sweep at a time, from one
/// thread. Scratch state is RAII-owned — destruction (or shutdown())
/// terminates and reaps every worker and removes the scratch directory,
/// and workers arm PDEATHSIG so even a SIGKILLed coordinator leaves no
/// orphans.
class Coordinator {
public:
    explicit Coordinator(FleetOptions opt);
    ~Coordinator();
    Coordinator(const Coordinator&) = delete;
    Coordinator& operator=(const Coordinator&) = delete;

    /// Evaluates `points` across the fleet; returns rows in point order.
    /// Throws std::runtime_error when a point fails (perr frame), a point
    /// exhausts its retry budget, or every worker has exhausted its
    /// restart budget.
    [[nodiscard]] std::vector<core::SweepRow> run_sweep(
        const std::vector<core::SweepPoint>& points);

    [[nodiscard]] const FleetStats& stats() const { return stats_; }
    [[nodiscard]] util::Json stats_json() const;
    /// One-line "[fleet] ..." summary (the end-of-run stderr line).
    void print_summary(std::ostream& out) const;

    /// Orderly shutdown: quit frames, pool teardown, per-worker obs
    /// absorb, scratch removal. Idempotent; the destructor calls it.
    void shutdown();

    [[nodiscard]] std::int32_t n_workers() const { return opt_.n_workers; }
    /// Current pid of worker `w` (-1 before the fleet has started).
    [[nodiscard]] pid_t worker_pid(std::size_t w) const;
    /// Scratch directory path (empty before the fleet has started).
    [[nodiscard]] const std::string& scratch_dir() const { return scratch_; }

private:
    struct WorkerState;
    struct SweepRun;

    void ensure_started();
    void send_init(std::size_t w);
    [[nodiscard]] bool live(std::size_t w) const;
    /// Appends `indices` to the live workers' queues (see the class comment).
    void place(SweepRun& run, const std::vector<std::size_t>& indices);
    void handle_death(std::size_t w, SweepRun& run);
    void top_up(std::size_t w, SweepRun& run);
    void send_lease(std::size_t w, SweepRun& run, std::vector<std::size_t> idx);
    void handle_stdout_line(std::size_t w, std::string_view line,
                            SweepRun& run);
    void drain_stderr(std::size_t w);
    void absorb_worker_files(std::size_t w);

    FleetOptions opt_;
    std::unique_ptr<WorkerPool> pool_;
    std::vector<WorkerState> workers_;
    std::string scratch_;
    std::int64_t sweep_counter_ = 0;
    std::int64_t next_lease_id_ = 0;
    FleetStats stats_;
    bool shut_down_ = false;
};

/// Installs the coordinator as `engine`'s executor (label "fleet"):
/// every SweepEngine::run dispatches to the persistent workers.
void install_fleet_executor(core::SweepEngine& engine,
                            std::shared_ptr<Coordinator> coordinator);

}  // namespace floretsim::fleet
