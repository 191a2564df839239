#include "src/core/sweep.h"

#include <chrono>
#include <string>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace floretsim::core {

std::vector<SweepPoint> SweepSpec::expand() const {
    const std::vector<EvalConfig> eval_list =
        evals.empty() ? std::vector<EvalConfig>{experiment::default_eval_config()}
                      : evals;
    std::vector<SweepPoint> points;
    points.reserve(archs.size() * grids.size() * mixes.size() * eval_list.size());
    for (const auto arch : archs) {
        for (const auto& [w, h] : grids) {
            for (const auto& mix : mixes) {
                for (const auto& eval : eval_list) {
                    SweepPoint p;
                    p.arch = arch;
                    p.width = w;
                    p.height = h;
                    p.mix = mix;
                    p.eval = eval;
                    p.swap_seed = swap_seed;
                    p.greedy_max_gap = greedy_max_gap;
                    p.run_seed = run_seed;
                    points.push_back(std::move(p));
                }
            }
        }
    }
    return points;
}

SweepResult SweepEngine::run(const SweepSpec& spec) {
    auto res = run(spec.expand());
    res.n_archs = spec.archs.size();
    res.n_grids = spec.grids.size();
    res.n_mixes = spec.mixes.size();
    res.n_evals = spec.evals.empty() ? 1 : spec.evals.size();
    return res;
}

SweepRow evaluate_point(experiment::ArchCache& cache, const SweepPoint& point) {
    const obs::Span span("sweep_point", "sweep");
    obs::MetricsRegistry::global().add("sweep.points");
    const auto t0 = std::chrono::steady_clock::now();
    auto arch = experiment::build_arch(cache, point.arch, point.width,
                                       point.height, point.swap_seed,
                                       point.greedy_max_gap);
    SweepRow row;
    row.point = point;
    row.result =
        experiment::run_mix_dynamic(arch, row.point.mix, point.eval, point.run_seed);
    row.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    return row;
}

SweepResult SweepEngine::run(const std::vector<SweepPoint>& points) {
    const auto hits_before = cache_.hits();
    const auto misses_before = cache_.misses();
    const auto t0 = std::chrono::steady_clock::now();

    SweepResult res;
    if (executor_ && !points.empty()) {
        res.rows = executor_(points);
        if (res.rows.size() != points.size())
            throw std::runtime_error("sweep: executor returned " +
                                     std::to_string(res.rows.size()) +
                                     " rows for " +
                                     std::to_string(points.size()) + " points");
    } else {
        res.rows.resize(points.size());
        pool_.parallel_for(points.size(), [&](std::size_t i) {
            res.rows[i] = evaluate_point(cache_, points[i]);
        });
    }

    const auto t1 = std::chrono::steady_clock::now();
    res.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
    res.fabric_cache_hits = cache_.hits() - hits_before;
    res.fabric_cache_misses = cache_.misses() - misses_before;
    return res;
}

}  // namespace floretsim::core
