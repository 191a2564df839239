#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>

#include "src/core/moo.h"
#include "src/core/sweep.h"
#include "src/dnn/model_zoo.h"
#include "src/obs/metrics.h"
#include "src/topo/mesh.h"
#include "src/util/json.h"

namespace floretsim::core {
namespace {

struct Fixture {
    // The Fig. 6/7 configuration: ResNet34 on ImageNet over a 5x5x4 stack,
    // with the pipeline-period power model so the thermal objective is
    // meaningful.
    dnn::Network net = dnn::build_resnet(34, dnn::Dataset::kImageNet);
    pim::PartitionPlan plan = pim::partition_by_params(net, 36.5, 36.5 / 88.0);
    topo::Topology topo = topo::make_mesh3d(5, 5, 4);
    noc::RouteTable routes =
        noc::RouteTable::build(topo, noc::RoutingPolicy::kShortestPath);
    thermal::ThermalConfig tcfg{};
    thermal::ThermalModel model{tcfg};
    thermal::PowerParams pcfg{};
    pim::ReramConfig rcfg{};
    pim::ThermalAccuracyModel acc{};
    PerfParams perf{};

    Fixture() { pcfg.inference_period_ns = pim::pipeline_period_ns(net, plan, rcfg); }
};

TEST(Sfc3d, OrderIsHamiltonianAndContiguous) {
    const auto order = sfc3d_order(5, 5, 4);
    ASSERT_EQ(order.size(), 100u);
    std::set<topo::NodeId> unique(order.begin(), order.end());
    EXPECT_EQ(unique.size(), 100u);
    // Consecutive PEs differ by one grid step (incl. vertical).
    auto coords = [](topo::NodeId n) {
        return std::tuple{n % 5, (n / 5) % 5, n / 25};
    };
    for (std::size_t i = 1; i < order.size(); ++i) {
        const auto [x1, y1, z1] = coords(order[i - 1]);
        const auto [x2, y2, z2] = coords(order[i]);
        EXPECT_EQ(std::abs(x1 - x2) + std::abs(y1 - y2) + std::abs(z1 - z2), 1)
            << "gap at position " << i;
    }
}

TEST(Sfc3d, StartsAtBottomTier) {
    const auto order = sfc3d_order(5, 5, 4);
    EXPECT_LT(order.front(), 25);            // z = 0
    EXPECT_GE(order.back(), 75);             // z = 3
}

TEST(EvaluatePlacement, ProducesFiniteSaneMetrics) {
    Fixture f;
    const auto order = sfc3d_order(5, 5, 4);
    const auto ev = evaluate_placement(f.net, f.plan, order, f.routes, f.model, f.pcfg,
                                       f.rcfg, f.acc, f.perf);
    EXPECT_GT(ev.comm_cycles, 0.0);
    EXPECT_GT(ev.compute_ns, 0.0);
    EXPECT_GT(ev.energy_pj, 0.0);
    EXPECT_GT(ev.edp, 0.0);
    EXPECT_GT(ev.peak_k, f.tcfg.t_ambient_k);
    EXPECT_GE(ev.accuracy_drop, 0.0);
    EXPECT_LT(ev.accuracy_drop, f.acc.degradation_at_zero_window);
}

TEST(EvaluatePlacement, RejectsAThermalGridOfAnotherSize) {
    // Node ids index both the route table and the thermal grid: a 6x6x4
    // thermal grid over 5x5x4 routes would read past the route table.
    Fixture f;
    f.tcfg.width = 6;
    f.tcfg.height = 6;
    const thermal::ThermalModel model6(f.tcfg);
    const auto order = sfc3d_order(6, 6, 4);
    EXPECT_THROW((void)evaluate_placement(f.net, f.plan, order, f.routes, model6,
                                          f.pcfg, f.rcfg, f.acc, f.perf),
                 std::invalid_argument);
    MooConfig moo;
    moo.iterations = 5;
    EXPECT_THROW((void)optimize_joint(f.net, f.plan, f.routes, f.tcfg, f.pcfg, f.rcfg,
                                      f.acc, f.perf, moo),
                 std::invalid_argument);
    EXPECT_THROW((void)optimize_perf_only(f.net, f.plan, f.routes, f.tcfg, f.pcfg,
                                          f.rcfg, f.acc, f.perf, moo),
                 std::invalid_argument);
}

TEST(EvaluatePlacement, ScatteredPlacementHasWorseCommCost) {
    Fixture f;
    const auto sfc = sfc3d_order(5, 5, 4);
    // Adversarial placement: random shuffle scatters consecutive layers
    // across the stack.
    auto scattered = sfc;
    util::Rng rng(17);
    std::shuffle(scattered.begin(), scattered.end(), rng);
    const auto ev_sfc = evaluate_placement(f.net, f.plan, sfc, f.routes, f.model, f.pcfg,
                                           f.rcfg, f.acc, f.perf);
    const auto ev_scat = evaluate_placement(f.net, f.plan, scattered, f.routes, f.model,
                                            f.pcfg, f.rcfg, f.acc, f.perf);
    EXPECT_LT(ev_sfc.comm_cycles, ev_scat.comm_cycles);
    EXPECT_LT(ev_sfc.edp, ev_scat.edp);
}

TEST(OptimizeJoint, ReducesPeakTemperature) {
    Fixture f;
    MooConfig cfg;
    cfg.iterations = 1500;
    cfg.seed = 3;
    const auto order = sfc3d_order(5, 5, 4);
    const auto base = evaluate_placement(f.net, f.plan, order, f.routes, f.model, f.pcfg,
                                         f.rcfg, f.acc, f.perf);
    const auto res = optimize_joint(f.net, f.plan, f.routes, f.tcfg, f.pcfg, f.rcfg,
                                    f.acc, f.perf, cfg);
    EXPECT_GT(res.accepted_moves, 0);
    EXPECT_LT(res.eval.peak_k, base.peak_k);
}

TEST(OptimizeJoint, PerfOnlyBaselineKeepsBetterEdp) {
    // Fig. 6(a): the Floret (performance-only) mapping has ~9% better EDP;
    // the joint optimum trades EDP for temperature. With matched move
    // budgets the perf-only run must end at EDP no worse than the joint
    // run, while the joint run must end cooler.
    Fixture f;
    MooConfig cfg;
    cfg.iterations = 1500;
    cfg.seed = 3;
    const auto perf_only = optimize_perf_only(f.net, f.plan, f.routes, f.tcfg, f.pcfg,
                                              f.rcfg, f.acc, f.perf, cfg);
    const auto joint = optimize_joint(f.net, f.plan, f.routes, f.tcfg, f.pcfg, f.rcfg,
                                      f.acc, f.perf, cfg);
    EXPECT_LE(perf_only.eval.edp, joint.eval.edp * 1.02);
    EXPECT_GT(perf_only.eval.peak_k, joint.eval.peak_k);
}

TEST(OptimizeJoint, ResultIsValidPermutation) {
    Fixture f;
    MooConfig cfg;
    cfg.iterations = 200;
    const auto res = optimize_joint(f.net, f.plan, f.routes, f.tcfg, f.pcfg, f.rcfg,
                                    f.acc, f.perf, cfg);
    std::set<topo::NodeId> unique(res.pe_order.begin(), res.pe_order.end());
    EXPECT_EQ(unique.size(), 100u);
}

TEST(OptimizeJoint, DeterministicForSeed) {
    Fixture f;
    MooConfig cfg;
    cfg.iterations = 150;
    cfg.seed = 11;
    const auto a = optimize_joint(f.net, f.plan, f.routes, f.tcfg, f.pcfg, f.rcfg,
                                  f.acc, f.perf, cfg);
    const auto b = optimize_joint(f.net, f.plan, f.routes, f.tcfg, f.pcfg, f.rcfg,
                                  f.acc, f.perf, cfg);
    EXPECT_EQ(a.pe_order, b.pe_order);
    EXPECT_DOUBLE_EQ(a.eval.edp, b.eval.edp);
}

TEST(OptimizeJoint, WorkCountersMatchAcrossThreadCounts) {
    // moo.evals, moo.accepted and thermal.solves count deterministic work:
    // two anneals fanned out on 1 or 4 threads record the same counters,
    // one solve per placement evaluation.
    Fixture f;
    auto& metrics = obs::MetricsRegistry::global();
    metrics.reset();
    metrics.enable();
    std::string serialized[2];
    std::int64_t accepted = 0;
    std::int64_t evals = 0;
    std::int64_t solves = 0;
    int i = 0;
    for (const std::int32_t threads : {1, 4}) {
        SweepEngine engine(threads);
        const auto results = engine.map(2, [&](std::size_t k) {
            MooConfig cfg;
            cfg.iterations = 60;
            cfg.seed = 1 + k;
            return optimize_joint(f.net, f.plan, f.routes, f.tcfg, f.pcfg, f.rcfg, f.acc,
                                  f.perf, cfg);
        });
        const util::Json snap = metrics.snapshot();
        const util::Json& counters = *snap.find("counters");
        auto count = [&](const char* name) -> std::int64_t {
            const util::Json* v = counters.find(name);
            return v == nullptr ? 0 : v->as_int();
        };
        serialized[i++] = util::json_serialize(counters);
        accepted = results[0].accepted_moves + results[1].accepted_moves;
        evals = count("moo.evals");
        solves = count("thermal.solves");
        EXPECT_EQ(count("moo.accepted"), accepted);
        metrics.reset();
    }
    metrics.disable();
    EXPECT_EQ(serialized[0], serialized[1]);
    EXPECT_EQ(evals, solves);
    EXPECT_GT(evals, 2 * 60);
}

}  // namespace
}  // namespace floretsim::core
