#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <numeric>
#include <span>
#include <stdexcept>

#include "src/dnn/model_zoo.h"
#include "src/pim/partitioner.h"
#include "src/thermal/grid_solver.h"
#include "src/thermal/power.h"
#include "src/util/rng.h"

namespace floretsim::thermal {
namespace {

ThermalConfig small_cfg() {
    ThermalConfig cfg;
    cfg.width = 5;
    cfg.height = 5;
    cfg.depth = 4;
    return cfg;
}

ThermalResult solve(const ThermalConfig& cfg, std::span<const double> power) {
    return ThermalModel(cfg).solve(power);
}

/// The oracle: plain Gauss-Seidel on the same cell balance,
/// T_i = (P_i + sum_j g_ij T_j + g_sink T_amb) / sum g, swept until no
/// cell moves by 1e-12 K.
std::vector<double> gauss_seidel(const ThermalConfig& cfg, std::span<const double> power) {
    std::vector<double> t(power.size(), cfg.t_ambient_k);
    for (std::int64_t sweep = 0; sweep < 10'000'000; ++sweep) {
        double max_delta = 0.0;
        for (std::int32_t z = 0; z < cfg.depth; ++z)
            for (std::int32_t y = 0; y < cfg.height; ++y)
                for (std::int32_t x = 0; x < cfg.width; ++x) {
                    const auto i = static_cast<std::size_t>(cfg.index(x, y, z));
                    double g_sum = 0.0;
                    double flux = power[i];
                    auto couple = [&](std::int32_t xx, std::int32_t yy, std::int32_t zz,
                                      double g) {
                        g_sum += g;
                        flux += g * t[static_cast<std::size_t>(cfg.index(xx, yy, zz))];
                    };
                    if (x > 0) couple(x - 1, y, z, cfg.g_lateral_w_per_k);
                    if (x + 1 < cfg.width) couple(x + 1, y, z, cfg.g_lateral_w_per_k);
                    if (y > 0) couple(x, y - 1, z, cfg.g_lateral_w_per_k);
                    if (y + 1 < cfg.height) couple(x, y + 1, z, cfg.g_lateral_w_per_k);
                    if (z > 0) couple(x, y, z - 1, cfg.g_vertical_w_per_k);
                    if (z + 1 < cfg.depth) couple(x, y, z + 1, cfg.g_vertical_w_per_k);
                    if (z == cfg.depth - 1) {
                        g_sum += cfg.g_sink_w_per_k;
                        flux += cfg.g_sink_w_per_k * cfg.t_ambient_k;
                    }
                    const double next = flux / g_sum;
                    max_delta = std::max(max_delta, std::abs(next - t[i]));
                    t[i] = next;
                }
        if (max_delta < 1e-12) return t;
    }
    ADD_FAILURE() << "Gauss-Seidel oracle did not reach 1e-12 K";
    return t;
}

TEST(ThermalModel, MatchesGaussSeidelOnRandomStacks) {
    // Seeded random stacks: 5x5x4 (the paper's) and 8x8x4 always, then
    // 1-8 x 1-8 x 1-4 grids with every conductance in [0.05, 1] W/K and
    // every cell's power in [0, 2] W.
    util::Rng rng(2403190730);
    for (int c = 0; c < 60; ++c) {
        ThermalConfig cfg;
        cfg.width = c == 0 ? 5 : c == 1 ? 8 : static_cast<std::int32_t>(rng.range(1, 8));
        cfg.height = c == 0 ? 5 : c == 1 ? 8 : static_cast<std::int32_t>(rng.range(1, 8));
        cfg.depth = c <= 1 ? 4 : static_cast<std::int32_t>(rng.range(1, 4));
        cfg.g_lateral_w_per_k = rng.uniform(0.05, 1.0);
        cfg.g_vertical_w_per_k = rng.uniform(0.05, 1.0);
        cfg.g_sink_w_per_k = rng.uniform(0.05, 1.0);
        std::vector<double> power(static_cast<std::size_t>(cfg.cells()));
        for (double& p : power) p = rng.uniform(0.0, 2.0);

        const auto exact = solve(cfg, power);
        const auto oracle = gauss_seidel(cfg, power);
        ASSERT_EQ(exact.temp_k.size(), oracle.size());
        for (std::size_t i = 0; i < oracle.size(); ++i)
            ASSERT_NEAR(exact.temp_k[i], oracle[i], 1e-9)
                << "case " << c << ": " << cfg.width << "x" << cfg.height << "x"
                << cfg.depth << ", cell " << i;
    }
}

TEST(ThermalModel, RejectsBadDimensionsAndConductances) {
    for (auto dims : {std::array{0, 5, 4}, std::array{5, 0, 4}, std::array{5, 5, 0},
                      std::array{-1, 5, 4}}) {
        ThermalConfig cfg;
        cfg.width = dims[0];
        cfg.height = dims[1];
        cfg.depth = dims[2];
        EXPECT_THROW(ThermalModel{cfg}, std::invalid_argument);
    }
    for (double ThermalConfig::*g : {&ThermalConfig::g_lateral_w_per_k,
                                     &ThermalConfig::g_vertical_w_per_k,
                                     &ThermalConfig::g_sink_w_per_k}) {
        for (const double bad : {0.0, -0.5, std::numeric_limits<double>::quiet_NaN(),
                                 std::numeric_limits<double>::infinity()}) {
            ThermalConfig cfg;
            cfg.*g = bad;
            EXPECT_THROW(ThermalModel{cfg}, std::invalid_argument) << bad;
        }
    }
}

TEST(ThermalSolver, ZeroPowerIsAmbient) {
    const auto cfg = small_cfg();
    const std::vector<double> power(static_cast<std::size_t>(cfg.cells()), 0.0);
    const auto res = solve(cfg, power);
    for (const double t : res.temp_k) EXPECT_NEAR(t, cfg.t_ambient_k, 1e-6);
}

TEST(ThermalSolver, EnergyBalanceAtSink) {
    // In steady state all generated heat leaves through the sink:
    // sum_topcells G_sink * (T - T_amb) == total power.
    const auto cfg = small_cfg();
    std::vector<double> power(static_cast<std::size_t>(cfg.cells()), 0.0);
    power[0] = 2.0;
    power[37] = 1.5;
    power[99] = 0.5;
    const auto res = solve(cfg, power);
    double sink_flux = 0.0;
    for (std::int32_t y = 0; y < cfg.height; ++y)
        for (std::int32_t x = 0; x < cfg.width; ++x)
            sink_flux += cfg.g_sink_w_per_k *
                         (res.temp_k[static_cast<std::size_t>(
                              cfg.index(x, y, cfg.depth - 1))] -
                          cfg.t_ambient_k);
    EXPECT_NEAR(sink_flux, 4.0, 1e-4);
}

TEST(ThermalSolver, BottomTierHotterThanTop) {
    // The bottom tier (z=0) is farthest from the sink — the paper's Fig. 7
    // shows its hotspots.
    const auto cfg = small_cfg();
    const std::vector<double> power(static_cast<std::size_t>(cfg.cells()), 0.8);
    const auto res = solve(cfg, power);
    EXPECT_GT(res.tier_peak_k(0), res.tier_peak_k(cfg.depth - 1) + 2.0);
}

TEST(ThermalSolver, MonotoneInPower) {
    const auto cfg = small_cfg();
    std::vector<double> lo(static_cast<std::size_t>(cfg.cells()), 0.5);
    std::vector<double> hi(static_cast<std::size_t>(cfg.cells()), 1.0);
    const auto rl = solve(cfg, lo);
    const auto rh = solve(cfg, hi);
    for (std::size_t i = 0; i < rl.temp_k.size(); ++i)
        EXPECT_LT(rl.temp_k[i], rh.temp_k[i]);
}

TEST(ThermalSolver, SymmetricPowerGivesSymmetricField) {
    const auto cfg = small_cfg();
    std::vector<double> power(static_cast<std::size_t>(cfg.cells()), 0.3);
    const auto res = solve(cfg, power);
    // Uniform power on a symmetric grid: mirror symmetry in x and y.
    for (std::int32_t z = 0; z < cfg.depth; ++z) {
        for (std::int32_t y = 0; y < cfg.height; ++y) {
            for (std::int32_t x = 0; x < cfg.width; ++x) {
                const auto a = res.temp_k[static_cast<std::size_t>(cfg.index(x, y, z))];
                const auto b = res.temp_k[static_cast<std::size_t>(
                    cfg.index(cfg.width - 1 - x, y, z))];
                EXPECT_NEAR(a, b, 1e-5);
            }
        }
    }
}

TEST(ThermalSolver, HotspotNearConcentratedPower) {
    const auto cfg = small_cfg();
    std::vector<double> power(static_cast<std::size_t>(cfg.cells()), 0.2);
    power[static_cast<std::size_t>(cfg.index(2, 2, 0))] += 3.0;
    const auto res = solve(cfg, power);
    double peak = 0.0;
    std::int32_t px = -1, py = -1, pz = -1;
    for (std::int32_t z = 0; z < cfg.depth; ++z)
        for (std::int32_t y = 0; y < cfg.height; ++y)
            for (std::int32_t x = 0; x < cfg.width; ++x) {
                const auto t = res.temp_k[static_cast<std::size_t>(cfg.index(x, y, z))];
                if (t > peak) {
                    peak = t;
                    px = x; py = y; pz = z;
                }
            }
    EXPECT_EQ(px, 2);
    EXPECT_EQ(py, 2);
    EXPECT_EQ(pz, 0);
}

TEST(ThermalSolver, RealisticPowerInReramCriticalRange) {
    // ~0.8 W per PE on a 100-PE stack should land in the 330-360 K band
    // where the paper's accuracy discussion happens.
    const auto cfg = small_cfg();
    const std::vector<double> power(static_cast<std::size_t>(cfg.cells()), 0.8);
    const auto res = solve(cfg, power);
    EXPECT_GT(res.peak_k(), 330.0);
    EXPECT_LT(res.peak_k(), 370.0);
}

TEST(ThermalSolver, RejectsBadInput) {
    const auto cfg = small_cfg();
    EXPECT_THROW((void)solve(cfg, std::vector<double>(3, 1.0)), std::invalid_argument);
    std::vector<double> neg(static_cast<std::size_t>(cfg.cells()), 0.1);
    neg[5] = -1.0;
    EXPECT_THROW((void)solve(cfg, neg), std::invalid_argument);
}

TEST(ThermalSolver, HotspotCountThreshold) {
    const auto cfg = small_cfg();
    std::vector<double> power(static_cast<std::size_t>(cfg.cells()), 0.2);
    power[static_cast<std::size_t>(cfg.index(0, 0, 0))] += 2.0;
    const auto res = solve(cfg, power);
    EXPECT_GE(res.hotspot_count(0, res.tier_peak_k(0) - 0.5), 1);
    EXPECT_EQ(res.hotspot_count(0, res.peak_k() + 1.0), 0);
}

TEST(ThermalSolver, RenderProducesGrid) {
    const auto cfg = small_cfg();
    const std::vector<double> power(static_cast<std::size_t>(cfg.cells()), 0.5);
    const auto res = solve(cfg, power);
    const auto art = render_tier(res, 0);
    EXPECT_NE(art.find("tier z=0"), std::string::npos);
    // 5 rows of glyphs plus header.
    EXPECT_EQ(std::count(art.begin(), art.end(), '\n'), 6);
}

TEST(PowerMap, LeakageFloorAndComputeShare) {
    const auto net = dnn::build_resnet(18, dnn::Dataset::kCifar10);
    const auto plan = pim::partition_by_params(net, 11.22, 11.22 / 80.0);
    ASSERT_LE(plan.total_chiplets, 100);
    std::vector<std::int32_t> order(100);
    std::iota(order.begin(), order.end(), 0);
    const auto assign = pim::assign_layers(net, plan, order);
    PowerParams params;
    const auto power = pe_power_map(net, assign, 100, params);
    ASSERT_EQ(power.size(), 100u);
    for (const double p : power) EXPECT_GE(p, params.leakage_w - 1e-12);
    const double total = std::accumulate(power.begin(), power.end(), 0.0);
    EXPECT_GT(total, 100 * params.leakage_w);  // compute adds real power
}

TEST(PowerMap, EarlyLayersDrawMorePower) {
    // The paper: PEs executing the initial neural layers consume more
    // power as they process more activations.
    const auto net = dnn::build_vgg(11, dnn::Dataset::kImageNet);
    const auto plan = pim::partition_by_params(net, 132.9, 132.9 / 90.0);
    std::vector<std::int32_t> order(100);
    std::iota(order.begin(), order.end(), 0);
    const auto assign = pim::assign_layers(net, plan, order);
    const auto power = pe_power_map(net, assign, 100, PowerParams{});
    // Mean power of the first 10 PEs (early convs) exceeds the last 10
    // (classifier FCs).
    double early = 0.0;
    double late = 0.0;
    for (int i = 0; i < 10; ++i) early += power[static_cast<std::size_t>(i)];
    for (int i = 0; i < 10; ++i)
        late += power[static_cast<std::size_t>(plan.total_chiplets - 1 - i)];
    EXPECT_GT(early, 2.0 * late);
}

TEST(PowerMap, RejectsIncompleteAssignment) {
    const auto net = dnn::build_resnet(18, dnn::Dataset::kCifar10);
    std::vector<std::vector<std::int32_t>> bad(3);
    EXPECT_THROW(pe_power_map(net, bad, 10, PowerParams{}), std::invalid_argument);
}

}  // namespace
}  // namespace floretsim::thermal
