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

namespace {

/// Interleaves cached rows with freshly computed ones back into point
/// order. Cached rows are looked up lazily, one per next() — the cache
/// hit path holds no row buffer at all. A probe() that later fails its
/// lookup() (entry evicted or corrupted between the two) degrades to a
/// local recompute, never to a missing row.
class MergeRowStream final : public RowStream {
public:
    MergeRowStream(std::vector<SweepPoint> points, std::vector<char> hit,
                   std::unique_ptr<RowStream> miss_stream,
                   PointResultCache* cache, experiment::ArchCache* arch_cache)
        : points_(std::move(points)),
          hit_(std::move(hit)),
          miss_stream_(std::move(miss_stream)),
          cache_(cache),
          arch_cache_(arch_cache) {}

    [[nodiscard]] std::optional<SweepRow> next() override {
        if (pos_ >= points_.size()) return std::nullopt;
        const std::size_t i = pos_++;
        if (hit_[i]) {
            if (auto row = cache_->lookup(points_[i])) return row;
            SweepRow row = evaluate_point(*arch_cache_, points_[i]);
            cache_->store(points_[i], row);
            return row;
        }
        auto row = miss_stream_->next();
        if (!row)
            throw std::runtime_error("sweep: row stream ended early at point " +
                                     std::to_string(i) + " of " +
                                     std::to_string(points_.size()));
        cache_->store(points_[i], *row);
        return row;
    }
    [[nodiscard]] std::size_t size() const override { return points_.size(); }

private:
    std::vector<SweepPoint> points_;
    std::vector<char> hit_;
    std::unique_ptr<RowStream> miss_stream_;
    PointResultCache* cache_;
    experiment::ArchCache* arch_cache_;
    std::size_t pos_ = 0;
};

}  // namespace

std::unique_ptr<RowStream> SweepEngine::run_stream(
    const std::vector<SweepPoint>& points) {
    // Partition into cache hits and misses; only misses are dispatched.
    std::vector<char> hit(points.size(), 0);
    std::vector<SweepPoint> misses;
    if (result_cache_) {
        misses.reserve(points.size());
        for (std::size_t i = 0; i < points.size(); ++i) {
            if (result_cache_->probe(points[i]))
                hit[i] = 1;
            else
                misses.push_back(points[i]);
        }
    } else {
        misses = points;
    }

    std::unique_ptr<RowStream> miss_stream;
    if (stream_executor_ && !misses.empty()) {
        miss_stream = stream_executor_(misses);
        if (!miss_stream || miss_stream->size() != misses.size())
            throw std::runtime_error(
                "stream executor returned " +
                std::to_string(miss_stream ? miss_stream->size() : 0) +
                " rows for " + std::to_string(misses.size()) + " points");
    } else {
        std::vector<SweepRow> rows(misses.size());
        pool_.parallel_for(misses.size(), [&](std::size_t i) {
            rows[i] = evaluate_point(cache_, misses[i]);
        });
        miss_stream = std::make_unique<VectorRowStream>(std::move(rows));
    }
    // Without a cache every point is a miss, so the miss stream already
    // yields all rows in point order.
    if (!result_cache_) return miss_stream;
    return std::make_unique<MergeRowStream>(points, std::move(hit),
                                            std::move(miss_stream),
                                            result_cache_, &cache_);
}

SweepResult SweepEngine::run(const std::vector<SweepPoint>& points) {
    const auto hits_before = cache_.hits();
    const auto misses_before = cache_.misses();
    const auto t0 = std::chrono::steady_clock::now();

    SweepResult res;
    auto stream = run_stream(points);
    res.rows.reserve(points.size());
    while (auto row = stream->next()) res.rows.push_back(std::move(*row));
    if (res.rows.size() != points.size())
        throw std::runtime_error("sweep: row stream yielded " +
                                 std::to_string(res.rows.size()) + " rows for " +
                                 std::to_string(points.size()) + " points");

    const auto t1 = std::chrono::steady_clock::now();
    res.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
    res.fabric_cache_hits = cache_.hits() - hits_before;
    res.fabric_cache_misses = cache_.misses() - misses_before;
    return res;
}

}  // namespace floretsim::core
