#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/sweep.h"

namespace floretsim::fleet {

/// The fleet wire protocol: a framed request/response layer for
/// *persistent* workers. Points go down by file and rows come back as
/// frames on the worker's stdout. One `floretsim_run --worker --serve`
/// process handles many sweeps over its lifetime, keeping its ArchCache
/// warm across them — the coordinator streams lease frames down the
/// worker's stdin and reads rows and acks back from its stdout.
///
/// Every frame is one compact JSON object per line (NDJSON), dispatched
/// on its single distinguishing top-level key. Parsing is strict in both
/// directions: unknown keys, missing keys, wrong kinds, and out-of-range
/// values all throw std::invalid_argument — a malformed frame is a bug or
/// a corrupted pipe, never something to guess around.
///
/// Coordinator -> worker (stdin):
///   {"init":  {"worker": i, "n_workers": N, "gen": g}}
///   {"sweep": {"id": S, "points_file": PATH, "n_points": n}}
///   {"lease": {"id": L, "sweep": S, "indices": [..]}}
///   {"quit":  {}}
///
/// Worker -> coordinator (stdout):
///   {"ready":  {"worker": i, "gen": g, "pid": p}}
///   {"loaded": {"sweep": S, "n_points": n}}
///   {"sweep": S, "index": i, "row": {..}}          (one per finished point)
///   {"done":   {"lease": L, "fabric_hits": H, "fabric_misses": M}}
///   {"perr":   {"sweep": S, "index": i, "what": ".."}}
///
/// The coordinator leases each point to one worker at a time, parses each
/// row frame once and keeps it at its point's index, so a sweep's rows
/// come back in point order; its live progress lines count those rows.
/// The points file is removed when the sweep ends.
///
/// Points travel by file (the sweep frame names a points file on
/// shared disk), not through the stdin pipe: a pipe holds ~64KB, and a
/// coordinator blocked writing a million points to one worker while
/// another worker's stdout fills is a deadlock. Lease frames are small
/// and bounded-in-flight, so stdin never backs up; rows flow up the
/// stdout pipe because the coordinator's poll loop drains it continuously.

// ---- Points -----------------------------------------------------------------

/// Parses a points file's text. Rejects (std::invalid_argument) malformed
/// JSON, malformed points, and the empty list — a worker handed no work
/// is a coordinator bug, not a successful no-op.
[[nodiscard]] std::vector<core::SweepPoint> points_from_text(
    std::string_view text, const std::string& context);

/// Validates and clamps a worker's --threads request: negative requests
/// are an error (throws std::invalid_argument — the coordinator must see
/// the worker die, not silently run serial), 0 keeps the engine's
/// hardware-concurrency default, and explicit requests are clamped to
/// kMaxWorkerThreads. Clamps are noted on `err`.
inline constexpr std::int32_t kMaxWorkerThreads = 256;
[[nodiscard]] std::int32_t clamp_worker_threads(std::int32_t requested,
                                                std::ostream& err);

// ---- Coordinator -> worker frames ------------------------------------------

/// Identity handed to a worker at spawn (and re-spawn: `gen` increments
/// so stale output from a previous incarnation is attributable).
struct InitFrame {
    std::int32_t worker = 0;
    std::int32_t n_workers = 1;
    std::int32_t gen = 0;

    friend bool operator==(const InitFrame&, const InitFrame&) = default;
};

/// Announces a sweep: the worker loads `points_file` (validating the
/// point count) and keeps the points resident until the next sweep frame.
struct SweepFrame {
    std::int64_t id = 0;
    std::string points_file;
    std::size_t n_points = 0;

    friend bool operator==(const SweepFrame&, const SweepFrame&) = default;
};

/// A small batch of global point indices to evaluate from the current
/// sweep, all of one fabric group. The coordinator hands a worker its
/// placed points a few at a time, two leases in flight.
struct LeaseFrame {
    std::int64_t id = 0;
    std::int64_t sweep = 0;
    std::vector<std::size_t> indices;

    friend bool operator==(const LeaseFrame&, const LeaseFrame&) = default;
};

/// The parse result for a worker's stdin: exactly one member is set
/// (quit is a bool because the frame carries no payload).
struct WorkerBound {
    std::optional<InitFrame> init;
    std::optional<SweepFrame> sweep;
    std::optional<LeaseFrame> lease;
    bool quit = false;
};

[[nodiscard]] std::string init_line(const InitFrame& f);
[[nodiscard]] std::string sweep_line(const SweepFrame& f);
[[nodiscard]] std::string lease_line(const LeaseFrame& f);
[[nodiscard]] std::string quit_line();

/// Parses one coordinator->worker line. Throws std::invalid_argument on
/// malformed JSON, unknown frames/keys, or out-of-range values
/// (negative ids, empty lease index lists, n_workers < 1, ...).
[[nodiscard]] WorkerBound worker_bound_from_line(std::string_view line);

// ---- Worker -> coordinator frames ------------------------------------------

/// First frame a (re)spawned worker emits: proof of life plus the
/// identity it was initialized with, so the coordinator can match output
/// to the right incarnation.
struct ReadyFrame {
    std::int32_t worker = 0;
    std::int32_t gen = 0;
    std::int64_t pid = 0;

    friend bool operator==(const ReadyFrame&, const ReadyFrame&) = default;
};

/// Ack of a sweep frame: the points file parsed and the count matched.
struct LoadedFrame {
    std::int64_t sweep = 0;
    std::size_t n_points = 0;

    friend bool operator==(const LoadedFrame&, const LoadedFrame&) = default;
};

/// Ack of a finished lease, carrying the worker's cumulative ArchCache
/// counters — the warm-across-scenarios signal the fleet stats surface.
struct DoneFrame {
    std::int64_t lease = 0;
    std::int64_t fabric_hits = 0;
    std::int64_t fabric_misses = 0;

    friend bool operator==(const DoneFrame&, const DoneFrame&) = default;
};

/// A point that threw: the coordinator fails the sweep with the point's
/// index and message instead of a bare nonzero exit.
struct PointErrorFrame {
    std::int64_t sweep = 0;
    std::size_t index = 0;
    std::string what;

    friend bool operator==(const PointErrorFrame&,
                           const PointErrorFrame&) = default;
};

/// One finished row, tagged with the sweep it belongs to so a stale row
/// (a lease still running when its sweep failed) is identifiable and
/// droppable.
struct FleetRow {
    std::int64_t sweep = 0;
    std::size_t index = 0;
    core::SweepRow row;
};

/// The parse result for a worker's stdout: exactly one member is set.
struct CoordinatorBound {
    std::optional<ReadyFrame> ready;
    std::optional<LoadedFrame> loaded;
    std::optional<DoneFrame> done;
    std::optional<PointErrorFrame> perr;
    std::optional<FleetRow> row;
};

[[nodiscard]] std::string ready_line(const ReadyFrame& f);
[[nodiscard]] std::string loaded_line(const LoadedFrame& f);
[[nodiscard]] std::string done_line(const DoneFrame& f);
[[nodiscard]] std::string perr_line(const PointErrorFrame& f);
[[nodiscard]] std::string fleet_row_line(const FleetRow& r);

/// Parses one worker->coordinator line. Throws std::invalid_argument on
/// anything malformed.
[[nodiscard]] CoordinatorBound coordinator_bound_from_line(
    std::string_view line);

// ---- The worker loop --------------------------------------------------------

/// Runs the persistent worker side of the protocol over (in, out): init
/// -> ready, sweep -> loaded, lease -> rows + done, quit (or
/// orderly EOF) -> return 0. Lease points are evaluated on the engine's
/// pool via core::evaluate_point, so the engine's ArchCache stays warm
/// for every later lease and sweep — the whole reason the process
/// persists. A point that throws emits a perr frame (the coordinator
/// decides; the worker keeps serving). A malformed frame prints to `err`
/// and returns 3: the coordinator treats that exit as a protocol bug.
///
/// Fault injection for the fleet tests, read from the environment at
/// init time (production runs never set these):
///   FLORETSIM_FLEET_KILL="w:g:k"      raise(SIGKILL) when worker w at
///                                     gen g (g = -1 matches any gen) has
///                                     emitted k rows over its lifetime;
///   FLORETSIM_FLEET_PERR="w:g:k"      throw (-> perr frame) instead of
///                                     evaluating the k-th point this
///                                     process attempts.
[[nodiscard]] int serve_worker(std::istream& in, std::ostream& out,
                               std::ostream& err, core::SweepEngine& engine);

}  // namespace floretsim::fleet
