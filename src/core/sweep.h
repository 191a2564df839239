#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/core/evaluator.h"
#include "src/core/experiment.h"
#include "src/util/thread_pool.h"
#include "src/workload/tables.h"

namespace floretsim::core {

/// Declarative parallel sweep engine for the paper's evaluation grids
/// (architecture x grid size x workload mix x eval config). The benches
/// describe *what* to evaluate as a SweepSpec; the engine expands it into
/// independent points, executes them on a work-stealing thread pool with
/// the expensive topology/route construction memoized per fabric key, and
/// returns results in expansion order — bit-identical regardless of the
/// thread count, because every point owns its mapper/simulator state and
/// all randomness is seeded per point.

/// One self-contained point of a sweep: everything run_mix_dynamic needs.
struct SweepPoint {
    experiment::Arch arch = experiment::Arch::kFloret;
    std::int32_t width = 10;
    std::int32_t height = 10;
    workload::ConcurrentMix mix;
    EvalConfig eval;
    std::uint64_t swap_seed = 13;
    std::int32_t greedy_max_gap = -1;
    std::uint64_t run_seed = 1;

    /// Field-wise equality: points are the wire format for distributing
    /// sweeps (scenario::sweep_point_from_json(to_json(p)) == p).
    [[nodiscard]] bool operator==(const SweepPoint&) const = default;
};

/// The sweep grid: the cartesian product archs x grids x mixes x evals.
/// Expansion order (and therefore result order) is arch-major:
///   for arch / for grid / for mix / for eval.
struct SweepSpec {
    std::vector<experiment::Arch> archs;
    std::vector<std::pair<std::int32_t, std::int32_t>> grids{{10, 10}};
    std::vector<workload::ConcurrentMix> mixes;
    /// Empty selects {experiment::default_eval_config()}.
    std::vector<EvalConfig> evals;
    std::uint64_t swap_seed = 13;
    std::int32_t greedy_max_gap = -1;
    std::uint64_t run_seed = 1;

    [[nodiscard]] std::vector<SweepPoint> expand() const;

    /// Field-wise equality for the scenario layer's JSON round-trip contract.
    [[nodiscard]] bool operator==(const SweepSpec&) const = default;
};

/// One row of the result table: the point plus its dynamic-run outcome.
struct SweepRow {
    SweepPoint point;
    experiment::DynamicResult result;
    /// Wall-clock spent evaluating this point (arch build + dynamic run);
    /// the load-balance signal benches surface in their --json reports.
    double seconds = 0.0;

    /// Field-wise equality: rows are the return wire format of fleet
    /// sweeps (scenario::sweep_row_from_json(to_json(r)) == r); `seconds`
    /// participates because JSON doubles round-trip bit-exactly.
    [[nodiscard]] bool operator==(const SweepRow&) const = default;
};

/// Evaluates one sweep point — fabric from (or into) `cache`, fresh
/// mapper, run_mix_dynamic — and stamps the row's wall-clock. The single
/// per-point implementation shared by SweepEngine::run and the fleet
/// worker loop, so a row is bit-identical (seconds aside) no matter which
/// process computed it.
[[nodiscard]] SweepRow evaluate_point(experiment::ArchCache& cache,
                                      const SweepPoint& point);

struct SweepResult {
    /// Rows in SweepSpec::expand() order.
    std::vector<SweepRow> rows;
    /// Grid dimensions of the spec that produced the rows (all 1-based
    /// sizes; zeroed when the engine ran a bare point list).
    std::size_t n_archs = 0, n_grids = 0, n_mixes = 0, n_evals = 0;
    double wall_seconds = 0.0;
    std::int64_t fabric_cache_hits = 0;
    std::int64_t fabric_cache_misses = 0;

    /// Row lookup by grid coordinates (spec-driven sweeps only).
    [[nodiscard]] const SweepRow& at(std::size_t arch_idx, std::size_t grid_idx,
                                     std::size_t mix_idx,
                                     std::size_t eval_idx = 0) const {
        if (n_evals == 0)
            throw std::logic_error(
                "SweepResult::at needs grid dimensions; this result came from "
                "the bare point-list overload — index rows[] directly");
        return rows[((arch_idx * n_grids + grid_idx) * n_mixes + mix_idx) * n_evals +
                    eval_idx];
    }
};

class SweepEngine {
public:
    /// `threads` <= 0 selects the hardware concurrency.
    explicit SweepEngine(std::int32_t threads = 0) : pool_(threads) {}

    [[nodiscard]] SweepResult run(const SweepSpec& spec);
    [[nodiscard]] SweepResult run(const std::vector<SweepPoint>& points);

    /// Pluggable transport for point lists: when set, run() hands the
    /// expanded points to the executor (which must return one row per
    /// point, in point order; run() throws std::runtime_error on a wrong
    /// row count) instead of evaluating them on the local pool. This is
    /// the process-distribution seam — the floretsim_run coordinator
    /// installs the worker fleet here, and every report function
    /// distributes without knowing it. map()/timed_map() fan-outs are
    /// bespoke local work and always stay in-process.
    using Executor = std::function<std::vector<SweepRow>(
        const std::vector<SweepPoint>&)>;
    void set_executor(Executor executor) { executor_ = std::move(executor); }

    /// Human-readable name of the installed transport, surfaced in report
    /// provenance ("in-process" locally; the fleet installer sets
    /// "fleet"). Must point at a string literal.
    void set_executor_label(const char* label) { executor_label_ = label; }
    [[nodiscard]] const char* executor_label() const { return executor_label_; }

    /// Generic deterministic fan-out for benches whose per-point work is
    /// not run_mix_dynamic: evaluates fn(0..count-1) on the pool and
    /// returns the results indexed by input position. fn must be
    /// re-entrant; its result type must be default-constructible.
    template <typename Fn>
    [[nodiscard]] auto map(std::size_t count, Fn&& fn)
        -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
        using T = std::invoke_result_t<Fn&, std::size_t>;
        static_assert(!std::is_same_v<T, bool>,
                      "vector<bool> packs bits: concurrent writes to adjacent "
                      "indices would race — return a struct or int instead");
        std::vector<T> out(count);
        pool_.parallel_for(count, [&](std::size_t i) { out[i] = fn(i); });
        return out;
    }

    /// map() variant that also records per-point wall-clock into `seconds`
    /// (resized to `count`): the point_seconds_* load-balance signal for
    /// benches whose per-point work is bespoke rather than run_mix_dynamic.
    template <typename Fn>
    [[nodiscard]] auto timed_map(std::size_t count, Fn&& fn,
                                 std::vector<double>& seconds)
        -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
        seconds.assign(count, 0.0);
        return map(count, [&](std::size_t i) {
            const auto t0 = std::chrono::steady_clock::now();
            auto r = fn(i);
            seconds[i] = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
            return r;
        });
    }

    /// The shared fabric cache (also usable directly by benches that only
    /// need topologies, e.g. the structural Fig. 2 profile).
    [[nodiscard]] experiment::ArchCache& cache() { return cache_; }
    [[nodiscard]] std::int32_t thread_count() const { return pool_.thread_count(); }

private:
    util::ThreadPool pool_;
    experiment::ArchCache cache_;
    Executor executor_;
    const char* executor_label_ = "in-process";
};

}  // namespace floretsim::core
