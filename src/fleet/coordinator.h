#pragma once

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/sweep.h"
#include "src/fleet/pool.h"
#include "src/util/json.h"

namespace floretsim::fleet {

/// Streaming merge over one sweep's NDJSON rows file ({"index","row"}
/// lines in completion order): one up-front indexing scan records each
/// point's byte offset — validating that every point has exactly one row
/// — and next() then seeks and parses ONE line per call, yielding rows in
/// point order. Coordinator memory is O(points) small fixed-size offsets
/// plus a single resident row, never O(rows) of parsed results — the
/// property that lets a million-point sweep merge in constant memory,
/// pinned by peak_resident_rows(). The indexing scan throws
/// std::runtime_error on an unreadable file, an unparseable line, an
/// unknown key, an out-of-range index, or a duplicate/missing point.
/// `cleanup` is an opaque owner of whatever must stay alive while rows
/// are being read (the sweep's scratch files): it is released — running
/// its captured destructors — when the stream is destroyed or its
/// construction fails, so scratch never outlives the stream, even when
/// the consumer abandons it mid-iteration.
class MergedRowFileStream final : public core::RowStream {
public:
    MergedRowFileStream(std::string row_path, std::size_t n_points,
                        std::function<void()> cleanup = {});
    ~MergedRowFileStream() override;
    MergedRowFileStream(const MergedRowFileStream&) = delete;
    MergedRowFileStream& operator=(const MergedRowFileStream&) = delete;

    [[nodiscard]] std::optional<core::SweepRow> next() override;
    [[nodiscard]] std::size_t size() const override { return offsets_.size(); }

    /// The most parsed rows this stream ever held at once — 1 by
    /// construction; a regression back to materialize-then-merge would
    /// make it the row count.
    [[nodiscard]] std::size_t peak_resident_rows() const { return peak_resident_; }

private:
    std::string row_path_;
    std::unique_ptr<std::istream> file_;
    std::vector<std::uint64_t> offsets_;  ///< Per point, in point order.
    std::function<void()> cleanup_;
    std::size_t pos_ = 0;
    std::size_t peak_resident_ = 0;
};

/// Tuning for the fleet coordinator.
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
    double progress_interval_s = 0.5;
    /// A worker silent for longer than this (and longer than ~3x the
    /// sweep's estimated per-point time — slow points are not stragglers)
    /// may have its outstanding work stolen. <= 0 disables stealing.
    /// Overridden by the FLORETSIM_FLEET_STEAL_AFTER env var (seconds)
    /// when set — and the env value is used as the *exact* threshold
    /// (the mean-point heuristic is bypassed), the deterministic knob
    /// the fleet tests use.
    double steal_after_s = 0.25;
    std::int32_t max_restarts_per_worker = 3;
    /// A point evaluated this many times without an ack fails the sweep —
    /// the bounded-retry guarantee (a poison point cannot restart workers
    /// forever).
    std::int32_t max_attempts_per_point = 3;
    std::size_t max_lease_points = 32;
    /// Lease sizing aims for about this many leases per worker over the
    /// sweep, so the tail of the sweep stays steal-able.
    std::size_t leases_per_worker_hint = 4;
    std::size_t stderr_tail_lines = 20;
    double shutdown_grace_s = 2.0;
};

/// Cumulative coordinator statistics, across every sweep since startup.
struct FleetStats {
    std::int64_t sweeps = 0;
    std::int64_t points = 0;
    std::int64_t rows = 0;
    std::int64_t duplicate_rows = 0;  ///< Same index acked twice (steals).
    std::int64_t stale_rows = 0;      ///< Rows from a superseded sweep.
    std::int64_t leases_issued = 0;
    std::int64_t leases_stolen = 0;
    std::int64_t points_reassigned = 0;  ///< Requeued after a worker death.
    std::int64_t worker_deaths = 0;
    std::int64_t worker_restarts = 0;
    std::int64_t affinity_hits = 0;    ///< Lease drawn from an affine fabric.
    std::int64_t affinity_misses = 0;  ///< Worker had to adopt a new fabric.
    std::int64_t fleet_fabric_hits = 0;    ///< Sum of worker ArchCache hits.
    std::int64_t fleet_fabric_misses = 0;  ///< Sum of worker ArchCache misses.
};

/// The persistent-fleet coordinator: spawns opt.n_workers long-lived
/// `--worker --serve` processes once (lazily, on the first sweep) and
/// dispatches every subsequent sweep to them over the fleet protocol.
/// Hands out small leases as workers drain them, steals outstanding
/// leases from stragglers, and survives worker deaths by restarting the
/// process and reassigning its un-acked points (bounded per-point
/// retry). Workers keep their ArchCache across sweeps, and the
/// coordinator keeps per-worker fabric *affinity* — a lease prefers
/// points whose fabric its worker has already built — so the second
/// scenario over the same arch grid evaluates with zero fabric-cache
/// misses anywhere in the fleet.
///
/// Rows are re-serialized (first ack per index wins; stale and duplicate
/// rows from stolen leases are dropped and counted) into one NDJSON file
/// merged by MergedRowFileStream, so reports see exactly the rows a local
/// SweepEngine::run would have produced — bit-identical, as pinned by the
/// fleet_parity ctest.
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
    [[nodiscard]] std::unique_ptr<core::RowStream> run_sweep(
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
    void handle_death(std::size_t w, SweepRun* run);
    void top_up(std::size_t w, SweepRun& run);
    bool try_steal_for(std::size_t w, SweepRun& run);
    void send_lease(std::size_t w, SweepRun& run, std::vector<std::size_t> idx,
                    bool stolen);
    void handle_stdout_line(std::size_t w, std::string_view line,
                            SweepRun& run);
    void drain_stderr(std::size_t w);
    void absorb_worker_files(std::size_t w);

    FleetOptions opt_;
    double steal_after_s_ = 0.25;  ///< opt_.steal_after_s after env override.
    bool steal_after_forced_ = false;  ///< Env override: exact threshold.
    std::unique_ptr<WorkerPool> pool_;
    std::vector<WorkerState> workers_;
    std::string scratch_;
    std::int64_t sweep_counter_ = 0;
    std::int64_t next_lease_id_ = 0;
    FleetStats stats_;
    bool shut_down_ = false;
};

/// Installs the coordinator as `engine`'s stream executor (label
/// "fleet"): every SweepEngine::run / run_stream dispatches to the
/// persistent workers.
void install_fleet_executor(core::SweepEngine& engine,
                            std::shared_ptr<Coordinator> coordinator);

}  // namespace floretsim::fleet
