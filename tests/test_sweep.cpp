#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <stdexcept>
#include <vector>

#include "src/core/sweep.h"
#include "src/util/thread_pool.h"

namespace floretsim::core {
namespace {

using experiment::Arch;
using experiment::kAllArchs;

// ---------------------------------------------------------------- ThreadPool

TEST(ThreadPool, RunsEverySubmittedTask) {
    util::ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i) pool.submit([&] { ++count; });
    pool.wait_idle();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ParallelForCoversAllIndicesExactlyOnce) {
    for (const std::int32_t threads : {1, 2, 8}) {
        util::ThreadPool pool(threads);
        std::vector<std::atomic<int>> seen(257);
        pool.parallel_for(seen.size(),
                          [&](std::size_t i) { ++seen[i]; });
        for (const auto& s : seen) EXPECT_EQ(s.load(), 1);
    }
}

TEST(ThreadPool, ParallelForPropagatesExceptions) {
    util::ThreadPool pool(2);
    EXPECT_THROW(pool.parallel_for(8,
                                   [](std::size_t i) {
                                       if (i == 5) throw std::runtime_error("boom");
                                   }),
                 std::runtime_error);
    // The pool stays usable afterwards.
    std::atomic<int> count{0};
    pool.parallel_for(4, [&](std::size_t) { ++count; });
    EXPECT_EQ(count.load(), 4);
}

TEST(ThreadPool, DefaultsToAtLeastOneThread) {
    util::ThreadPool pool(0);
    EXPECT_GE(pool.thread_count(), 1);
}

// ----------------------------------------------------------------- ArchCache

TEST(ArchCache, SameKeyReturnsSameFabric) {
    experiment::ArchCache cache;
    const auto a = cache.get(Arch::kFloret, 6, 6);
    const auto b = cache.get(Arch::kFloret, 6, 6);
    EXPECT_EQ(a.get(), b.get());
    EXPECT_EQ(cache.misses(), 1);
    EXPECT_EQ(cache.hits(), 1);
}

TEST(ArchCache, DistinctKeysBuildDistinctFabrics) {
    experiment::ArchCache cache;
    const auto a = cache.get(Arch::kSiamMesh, 6, 6);
    const auto b = cache.get(Arch::kSiamMesh, 8, 8);
    const auto c = cache.get(Arch::kSwap, 6, 6, /*swap_seed=*/1);
    const auto d = cache.get(Arch::kSwap, 6, 6, /*swap_seed=*/2);
    EXPECT_NE(a.get(), b.get());
    EXPECT_NE(c.get(), d.get());
    EXPECT_EQ(cache.misses(), 4);
    EXPECT_EQ(cache.hits(), 0);
}

TEST(ArchCache, ConcurrentGetsBuildOnce) {
    experiment::ArchCache cache;
    util::ThreadPool pool(8);
    std::vector<std::shared_ptr<const experiment::ArchFabric>> fabrics(16);
    pool.parallel_for(fabrics.size(), [&](std::size_t i) {
        fabrics[i] = cache.get(Arch::kFloret, 8, 8);
    });
    for (const auto& f : fabrics) EXPECT_EQ(f.get(), fabrics.front().get());
    EXPECT_EQ(cache.misses(), 1);
    EXPECT_EQ(cache.hits(), 15);
}

TEST(ArchCache, FailedBuildPropagatesAndDoesNotWedgeTheKey) {
    // A fabric whose construction throws (lambda cannot tile a 0x0 grid)
    // must rethrow to every caller and leave the key retryable instead of
    // parking later get()s on a never-published entry.
    experiment::ArchCache cache;
    EXPECT_ANY_THROW((void)cache.get(Arch::kFloret, 0, 0));
    EXPECT_ANY_THROW((void)cache.get(Arch::kFloret, 0, 0));  // no hang, no stale entry
    // A valid key still works afterwards.
    EXPECT_NE(cache.get(Arch::kFloret, 6, 6), nullptr);
}

TEST(ArchCache, CachedBuildArchMatchesUncached) {
    experiment::ArchCache cache;
    auto cached = experiment::build_arch(cache, Arch::kFloret, 6, 6);
    auto fresh = experiment::build_arch(Arch::kFloret, 6, 6);
    EXPECT_EQ(cached.topology().node_count(), fresh.topology().node_count());
    EXPECT_EQ(cached.topology().link_count(), fresh.topology().link_count());
    EXPECT_EQ(cached.sfc().lambda(), fresh.sfc().lambda());
    EXPECT_NE(cached.mapper, nullptr);
}

// --------------------------------------------------------------- SweepEngine

SweepSpec small_spec() {
    SweepSpec spec;
    spec.archs = {Arch::kSiamMesh, Arch::kFloret};
    spec.grids = {{6, 6}};
    spec.mixes = {workload::table2().front()};
    auto cfg = experiment::default_eval_config();
    cfg.traffic_scale = 1.0 / 512.0;  // keep tests quick
    spec.evals = {cfg};
    spec.greedy_max_gap = 2;
    return spec;
}

TEST(SweepEngine, ExpansionOrderIsArchMajor) {
    auto spec = small_spec();
    spec.grids = {{6, 6}, {8, 8}};
    const auto points = spec.expand();
    ASSERT_EQ(points.size(), 4u);
    EXPECT_EQ(points[0].arch, Arch::kSiamMesh);
    EXPECT_EQ(points[0].width, 6);
    EXPECT_EQ(points[1].width, 8);
    EXPECT_EQ(points[2].arch, Arch::kFloret);
}

TEST(SweepEngine, EmptyEvalListUsesDefaultConfig) {
    SweepSpec spec;
    spec.archs = {Arch::kFloret};
    spec.mixes = {workload::table2().front()};
    const auto points = spec.expand();
    ASSERT_EQ(points.size(), 1u);
    EXPECT_DOUBLE_EQ(points[0].eval.traffic_scale,
                     experiment::default_eval_config().traffic_scale);
}

TEST(SweepEngine, ResultsAreBitIdenticalAcrossThreadCounts) {
    const auto spec = small_spec();
    std::vector<SweepResult> runs;
    for (const std::int32_t threads : {1, 2, 8}) {
        SweepEngine engine(threads);
        runs.push_back(engine.run(spec));
    }
    const auto& ref = runs.front();
    ASSERT_EQ(ref.rows.size(), 2u);
    for (const auto& run : runs) {
        ASSERT_EQ(run.rows.size(), ref.rows.size());
        for (std::size_t i = 0; i < ref.rows.size(); ++i) {
            EXPECT_EQ(run.rows[i].point.arch, ref.rows[i].point.arch);
            EXPECT_EQ(run.rows[i].result.total_cycles, ref.rows[i].result.total_cycles);
            EXPECT_EQ(run.rows[i].result.total_energy_pj,
                      ref.rows[i].result.total_energy_pj);
            EXPECT_EQ(run.rows[i].result.flit_hops, ref.rows[i].result.flit_hops);
            EXPECT_EQ(run.rows[i].result.rounds, ref.rows[i].result.rounds);
            EXPECT_EQ(run.rows[i].result.task_rounds, ref.rows[i].result.task_rounds);
        }
    }
}

TEST(SweepEngine, MatchesDirectSerialEvaluation) {
    const auto spec = small_spec();
    SweepEngine engine(4);
    const auto sweep = engine.run(spec);
    for (const auto& row : sweep.rows) {
        auto b = experiment::build_arch(row.point.arch, row.point.width,
                                        row.point.height, row.point.swap_seed,
                                        row.point.greedy_max_gap);
        const auto direct = experiment::run_mix_dynamic(b, row.point.mix,
                                                        row.point.eval,
                                                        row.point.run_seed);
        EXPECT_EQ(direct.total_cycles, row.result.total_cycles);
        EXPECT_EQ(direct.total_energy_pj, row.result.total_energy_pj);
        EXPECT_EQ(direct.rounds, row.result.rounds);
    }
}

TEST(SweepEngine, RowsCarryPerPointTiming) {
    SweepEngine engine(2);
    const auto sweep = engine.run(small_spec());
    double total = 0.0;
    for (const auto& row : sweep.rows) {
        EXPECT_GE(row.seconds, 0.0);
        total += row.seconds;
    }
    // The points did real work, so at least one row saw the clock move.
    EXPECT_GT(total, 0.0);
    EXPECT_GT(sweep.wall_seconds, 0.0);
}

TEST(SweepEngine, FabricCacheIsSharedAcrossPoints) {
    auto spec = small_spec();
    spec.mixes = workload::table2();  // 5 mixes x 2 archs, but only 2 fabrics
    SweepEngine engine(4);
    const auto sweep = engine.run(spec);
    EXPECT_EQ(sweep.rows.size(), 10u);
    EXPECT_EQ(sweep.fabric_cache_misses, 2);
    EXPECT_EQ(sweep.fabric_cache_hits, 8);
}

TEST(SweepEngine, AtIndexesTheGrid) {
    auto spec = small_spec();
    spec.mixes = {workload::table2()[0], workload::table2()[1]};
    SweepEngine engine(2);
    const auto sweep = engine.run(spec);
    ASSERT_EQ(sweep.rows.size(), 4u);
    EXPECT_EQ(sweep.at(0, 0, 1).point.arch, Arch::kSiamMesh);
    EXPECT_EQ(sweep.at(0, 0, 1).point.mix.name, workload::table2()[1].name);
    EXPECT_EQ(sweep.at(1, 0, 0).point.arch, Arch::kFloret);
}

// ------------------------------------------------------- the executor seam

TEST(SweepEngine, EngineRunDispatchesThroughTheExecutor) {
    const auto spec = small_spec();
    SweepEngine plain(1);
    const auto expect = plain.run(spec);

    SweepEngine engine(1);
    std::size_t calls = 0;
    // A stand-in transport: evaluate the handed points on a second engine,
    // exactly what the worker fleet does across processes.
    engine.set_executor([&](const std::vector<SweepPoint>& points) {
        ++calls;
        SweepEngine inner(2);
        return inner.run(points).rows;
    });
    const auto got = engine.run(spec);
    EXPECT_EQ(calls, 1u);
    ASSERT_EQ(got.rows.size(), expect.rows.size());
    for (std::size_t i = 0; i < got.rows.size(); ++i) {
        EXPECT_EQ(got.rows[i].point, expect.rows[i].point);
        EXPECT_EQ(got.rows[i].result, expect.rows[i].result);
    }
    // The executor never touched the coordinator-side cache.
    EXPECT_EQ(engine.cache().misses(), 0);
    // Grid dimensions still index correctly through at().
    EXPECT_EQ(got.at(1, 0, 0).result, expect.at(1, 0, 0).result);
}

TEST(SweepEngine, ShortRowListIsAnError) {
    SweepEngine engine(1);
    engine.set_executor([](const std::vector<SweepPoint>&) {
        return std::vector<SweepRow>{};
    });
    EXPECT_THROW((void)engine.run(small_spec()), std::runtime_error);
}

TEST(SweepEngine, MapPreservesInputOrder) {
    SweepEngine engine(8);
    const auto out = engine.map(64, [](std::size_t i) {
        return static_cast<std::int64_t>(i * i);
    });
    ASSERT_EQ(out.size(), 64u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], static_cast<std::int64_t>(i * i));
}

// ------------------------------------------------- evaluator traffic clamp

TEST(EvaluateNoi, TinyTrafficScaleStillInjectsEveryFlow) {
    // A mapped multi-chiplet task evaluated at an absurdly small sampling
    // scale: before the 1-flit clamp its flows truncated to zero bytes and
    // the demand list went empty (zero packets, zero energy).
    const auto set = generate_sfc_set(6, 6, 6);
    const auto topo = make_floret(set);
    const auto routes = noc::RouteTable::build(topo, noc::RoutingPolicy::kUpDown);

    std::vector<std::unique_ptr<dnn::Network>> owner;
    const std::vector<std::string> ids{"DNN9"};
    const auto tasks = make_tasks(ids, /*params_per_chiplet_m=*/1.0, owner);
    FloretMapper mapper(set);
    const auto mapped = mapper.map_queue(tasks, nullptr);
    ASSERT_TRUE(mapped.front().mapped);
    ASSERT_FALSE(pipeline_flows(mapped.front(), 1).empty());

    EvalConfig cfg;
    cfg.traffic_scale = 1e-12;
    const auto res = evaluate_noi(topo, routes, mapped, cfg);
    EXPECT_TRUE(res.completed);
    EXPECT_GT(res.packets, 0);
    EXPECT_GT(res.energy_pj, 0.0);
}

}  // namespace
}  // namespace floretsim::core
