/// Differential suite for the activity-driven engine (SimCore::kActivity)
/// against the reference cycle loop: across random topologies, seeds,
/// buffer depths, sparse and saturating injection rates, saturated
/// single-sink drains (perfbench's drain recipe on the 10x10 Floret fabric
/// among them), corner-to-corner bursts, max_cycles-capped runs, routers
/// at the 63-in-channel fan-in bound and a seeded randomized sweep of
/// topologies x demands x SimConfigs, the activity core must produce a
/// bit-identical SimResult (cycles, packets, flits, flit_hops,
/// per-router/per-link counters, latency stats). The engine-work statistics
/// are the only fields allowed to differ — and they must prove the fast
/// path is both accounted (stepped + skipped == cycles) and no more work
/// than the reference in executed cycles, with switch allocation visiting
/// only outputs that move a flit.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "src/core/experiment.h"
#include "src/core/floret.h"
#include "src/core/sfc.h"
#include "src/noc/routing.h"
#include "src/noc/simulator.h"
#include "src/topo/butterfly.h"
#include "src/topo/kite.h"
#include "src/topo/mesh.h"
#include "src/topo/swap.h"
#include "src/util/rng.h"

namespace floretsim::noc {
namespace {

std::vector<Demand> random_demands(std::int32_t nodes, std::uint64_t seed,
                                   int count, std::int64_t max_bytes) {
    util::Rng rng(seed);
    std::vector<Demand> ds;
    for (int i = 0; i < count; ++i) {
        const auto s =
            static_cast<topo::NodeId>(rng.below(static_cast<std::uint64_t>(nodes)));
        const auto d =
            static_cast<topo::NodeId>(rng.below(static_cast<std::uint64_t>(nodes)));
        if (s == d) continue;
        const auto bytes =
            8 * (1 + static_cast<std::int64_t>(rng.below(
                         static_cast<std::uint64_t>(max_bytes / 8))));
        ds.push_back({s, d, bytes});
    }
    return ds;
}

SimResult run_with(const topo::Topology& t, const RouteTable& rt,
                   const std::vector<Demand>& demands, SimConfig cfg,
                   SimCore core) {
    cfg.core = core;
    Simulator sim(t, rt, cfg);
    sim.add_demands(demands);
    return sim.run();
}

/// The semantic SimResult fields: everything but the engine-work
/// statistics must match bit for bit.
void expect_same_result(const SimResult& fast, const SimResult& ref,
                        const std::string& tag) {
    EXPECT_EQ(fast.cycles, ref.cycles) << tag;
    EXPECT_EQ(fast.packets, ref.packets) << tag;
    EXPECT_EQ(fast.flits, ref.flits) << tag;
    EXPECT_EQ(fast.flit_hops, ref.flit_hops) << tag;
    EXPECT_EQ(fast.completed, ref.completed) << tag;
    EXPECT_EQ(fast.packet_latency.count(), ref.packet_latency.count()) << tag;
    EXPECT_EQ(fast.packet_latency.mean(), ref.packet_latency.mean()) << tag;
    EXPECT_EQ(fast.packet_latency.variance(), ref.packet_latency.variance())
        << tag;
    EXPECT_EQ(fast.packet_latency.min(), ref.packet_latency.min()) << tag;
    EXPECT_EQ(fast.packet_latency.max(), ref.packet_latency.max()) << tag;
    EXPECT_EQ(fast.router_flits, ref.router_flits) << tag;
    EXPECT_EQ(fast.link_flits, ref.link_flits) << tag;
}

struct Runs {
    SimResult ref;
    SimResult fast;
};

/// The differential contract: semantic fields bit-identical to the
/// reference, engine-work statistics accounted (every cycle is stepped or
/// skipped) and no worse than the reference. The reference core visits
/// every channel in switch allocation on every stepped cycle; the activity
/// core visits only ready outputs, and each of those moves a flit.
Runs expect_equivalent(const topo::Topology& t, const RouteTable& rt,
                       const std::vector<Demand>& demands, const SimConfig& cfg,
                       const std::string& label) {
    Runs r{run_with(t, rt, demands, cfg, SimCore::kReference),
           run_with(t, rt, demands, cfg, SimCore::kActivity)};
    expect_same_result(r.fast, r.ref, label);
    for (const auto* res : {&r.ref, &r.fast})
        EXPECT_EQ(res->cycles_stepped + res->cycles_skipped, res->cycles) << label;
    EXPECT_EQ(r.ref.arbitrations, r.ref.cycles_stepped * 2 * t.link_count()) << label;
    // The quiet-cycle proof subsumes the reference's idle-gap-only rule.
    EXPECT_LE(r.fast.cycles_stepped, r.ref.cycles_stepped) << label;
    EXPECT_EQ(r.fast.arbitrations, r.fast.flit_hops) << label;
    return r;
}

TEST(EventHorizon, DifferentialMatrixOnMesh) {
    const auto t = topo::make_mesh(5, 5);
    for (const auto policy :
         {RoutingPolicy::kShortestPath, RoutingPolicy::kUpDown}) {
        const auto rt = RouteTable::build(t, policy);
        for (std::int32_t depth = 1; depth <= 4; ++depth) {
            for (const std::uint64_t seed : {3u, 17u}) {
                for (const double rate : {0.005, 8.0}) {
                    SimConfig cfg;
                    cfg.max_cycles = 2'000'000;
                    cfg.input_buffer_flits = depth;
                    cfg.injection_rate = rate;
                    expect_equivalent(
                        t, rt, random_demands(25, seed, 60, 320), cfg,
                        "mesh policy=" + std::to_string(static_cast<int>(policy)) +
                            " depth=" + std::to_string(depth) + " seed=" +
                            std::to_string(seed) + " rate=" + std::to_string(rate));
                }
            }
        }
    }
}

TEST(EventHorizon, DifferentialOnIrregularTopologies) {
    util::Rng swap_rng(31);
    const auto swap = topo::make_swap(6, 6, swap_rng);
    const auto floret = core::make_floret(core::generate_sfc_set(8, 8, 4));
    struct Case {
        const topo::Topology* t;
        std::int32_t nodes;
    };
    for (const auto& c : {Case{&swap, 36}, Case{&floret, 64}}) {
        const auto rt = RouteTable::build(*c.t, RoutingPolicy::kUpDown);
        for (std::int32_t depth = 1; depth <= 4; ++depth) {
            SimConfig cfg;
            cfg.max_cycles = 2'000'000;
            cfg.input_buffer_flits = depth;
            cfg.injection_rate = depth % 2 == 0 ? 8.0 : 0.01;
            expect_equivalent(*c.t, rt, random_demands(c.nodes, 7 + depth, 80, 480),
                              cfg,
                              c.t->name() + " depth=" + std::to_string(depth));
        }
    }
}

TEST(EventHorizon, DifferentialOnDeepPipelines) {
    // Long links: many cycles where every flit is mid-pipe or stalled on a
    // credit that only a far-away arrival can free — the window the
    // credit-aware horizon jumps and the old FIFO-empty rule could not.
    topo::Topology t("longline", 4.0);
    for (std::int32_t i = 0; i < 5; ++i) t.add_node({8 * i, 0});
    for (int i = 0; i + 1 < 5; ++i) t.add_link(i, i + 1, 32.0);
    const auto rt = RouteTable::build(t, RoutingPolicy::kShortestPath);
    for (std::int32_t depth = 1; depth <= 4; ++depth) {
        SimConfig cfg;
        cfg.max_cycles = 2'000'000;
        cfg.input_buffer_flits = depth;
        cfg.injection_rate = 1.0;
        const auto demands = random_demands(5, 41 + depth, 30, 640);
        // Congested drains on deep pipes are exactly where the credit-aware
        // proof must beat cycle stepping outright.
        const auto fast = expect_equivalent(t, rt, demands, cfg, "longline depth=" +
                                                                     std::to_string(depth))
                              .fast;
        EXPECT_GT(fast.cycles_skipped, 0) << depth;
        EXPECT_LT(fast.cycles_stepped, fast.cycles) << depth;
    }
}

TEST(EventHorizon, DifferentialOnCappedRuns) {
    const auto t = topo::make_mesh(4, 4);
    const auto rt = RouteTable::build(t, RoutingPolicy::kShortestPath);
    for (const std::int64_t cap : {100, 2'000, 50'000}) {
        for (const double rate : {1e-4, 0.05, 8.0}) {
            SimConfig cfg;
            cfg.max_cycles = cap;
            cfg.injection_rate = rate;
            cfg.input_buffer_flits = 2;
            expect_equivalent(t, rt, random_demands(16, 5, 40, 320), cfg,
                              "cap=" + std::to_string(cap) +
                                  " rate=" + std::to_string(rate));
        }
    }
}

TEST(EventHorizon, SkipsCreditBlockedWindows) {
    // Hotspot: every node floods one sink, so head flits pile up blocked on
    // zero-credit outputs while the sink ejects one flit per port per
    // cycle. The FIFO-empty rule never fires here; the credit-aware proof
    // must still find jumps.
    const auto t = topo::make_mesh(5, 5);
    const auto rt = RouteTable::build(t, RoutingPolicy::kShortestPath);
    SimConfig cfg;
    cfg.max_cycles = 2'000'000;
    cfg.input_buffer_flits = 1;  // maximum backpressure
    cfg.injection_rate = 8.0;
    std::vector<Demand> demands;
    for (topo::NodeId n = 0; n < 25; ++n)
        if (n != 12) demands.push_back({n, 12, 400});
    EXPECT_GT(expect_equivalent(t, rt, demands, cfg, "hotspot").fast.horizon_jumps, 0);
}

TEST(EventHorizon, SaturatedDrainArbitratesOnlyRequestedOutputs) {
    // One corner port ejecting, the rest of the fabric quiescent: a few
    // scattered sources flood node 0 while the other 95 nodes stay silent.
    // Something moves near the sink every cycle, so the quiet proof almost
    // never fires and both cores step nearly every cycle — but the activity
    // core offers switch allocation only the outputs the drain's head flits
    // request, never the idle fabric's channels.
    const auto t = topo::make_mesh(10, 10);
    const auto rt = RouteTable::build(t, RoutingPolicy::kShortestPath);
    SimConfig cfg;
    cfg.max_cycles = 2'000'000;
    cfg.input_buffer_flits = 2;
    cfg.injection_rate = 8.0;
    std::vector<Demand> demands;
    for (const topo::NodeId src : {9, 44, 55, 90, 99})
        demands.push_back({src, 0, 8 * 1024});
    const auto runs = expect_equivalent(t, rt, demands, cfg, "saturated drain");
    EXPECT_TRUE(runs.ref.completed);
    EXPECT_GT(runs.fast.arbitrations, 0);
    EXPECT_LT(runs.fast.arbitrations, runs.ref.arbitrations);
}

TEST(EventHorizon, PerfbenchDrainRecipeOnFloret) {
    // perfbench's hotspot_drain at its default seed: ArchCache's 10x10
    // Floret fabric, each node in turn the sink of five distinct random
    // sources sending 4 KiB each, with 2-flit buffers at a saturating rate.
    core::experiment::ArchCache cache;
    const auto fabric = cache.get(core::experiment::Arch::kFloret, 10, 10);
    const auto nodes = fabric->topology.node_count();
    SimConfig cfg;
    cfg.injection_rate = 8.0;
    cfg.input_buffer_flits = 2;
    cfg.max_cycles = 2'000'000;
    util::Rng rng(1);
    for (topo::NodeId sink = 0; sink < nodes; ++sink) {
        std::vector<Demand> demands;
        while (demands.size() < 5) {
            const auto src =
                static_cast<topo::NodeId>(rng.below(static_cast<std::uint64_t>(nodes)));
            if (src != sink && std::none_of(demands.begin(), demands.end(),
                                            [&](const Demand& d) { return d.src == src; }))
                demands.push_back({src, sink, 4 * 1024});
        }
        const auto runs = expect_equivalent(fabric->topology, fabric->routes, demands, cfg,
                                            "floret drain sink=" + std::to_string(sink));
        EXPECT_TRUE(runs.ref.completed) << sink;
    }
}

/// A hub with `leaves` spokes: the hub's router has one in-channel per
/// leaf plus its injection port.
topo::Topology star(std::int32_t leaves) {
    topo::Topology t("star", 4.0);
    t.add_node({0, 0});
    for (std::int32_t i = 1; i <= leaves; ++i) {
        t.add_node({i, 1});
        t.add_link(0, i, 4.0);
    }
    return t;
}

TEST(EventHorizon, RouterFanInBound) {
    // 63 in-channels plus the injection port fill the hub's 64-bit request
    // masks exactly: every leaf (and the hub itself) floods the others, so
    // round-robin wraps across the highest source position.
    const auto t63 = star(63);
    const auto rt63 = RouteTable::build(t63, RoutingPolicy::kShortestPath);
    SimConfig cfg;
    cfg.max_cycles = 2'000'000;
    cfg.input_buffer_flits = 2;
    cfg.injection_rate = 8.0;
    std::vector<Demand> demands;
    for (topo::NodeId src = 0; src <= 63; ++src)
        for (const topo::NodeId step : {1, 17, 40})
            demands.push_back({src, (src + step) % 64, 96});
    EXPECT_TRUE(expect_equivalent(t63, rt63, demands, cfg, "star63").ref.completed);

    // One more spoke does not fit: both cores refuse the fabric by name.
    const auto t64 = star(64);
    const auto rt64 = RouteTable::build(t64, RoutingPolicy::kShortestPath);
    for (const auto core : {SimCore::kReference, SimCore::kActivity}) {
        try {
            (void)run_with(t64, rt64, {{1, 2, 64}}, cfg, core);
            ADD_FAILURE() << "expected a fan-in rejection on " << sim_core_name(core);
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find("node 0 "), std::string::npos) << e.what();
        }
    }
}

TEST(EventHorizon, CornerToCornerBurstHotspot) {
    // A single corner-to-corner burst: one long diagonal of busy links,
    // everything off-path idle. The result must stay bit-identical while
    // the activity core arbitrates only along the path.
    const auto t = topo::make_mesh(8, 8);
    const auto rt = RouteTable::build(t, RoutingPolicy::kShortestPath);
    SimConfig cfg;
    cfg.max_cycles = 2'000'000;
    cfg.input_buffer_flits = 1;  // maximum backpressure along the path
    cfg.injection_rate = 8.0;
    const std::vector<Demand> demands{{0, 63, 16 * 1024}};
    const auto runs = expect_equivalent(t, rt, demands, cfg, "corner burst");
    EXPECT_TRUE(runs.ref.completed);
    EXPECT_GT(runs.fast.arbitrations, 0);
    EXPECT_LT(runs.fast.arbitrations, runs.ref.arbitrations);
}

TEST(EventHorizon, StatisticsAreZeroWorkOnEmptyRun) {
    const auto t = topo::make_mesh(2, 2);
    const auto rt = RouteTable::build(t, RoutingPolicy::kShortestPath);
    for (const auto core : {SimCore::kReference, SimCore::kActivity}) {
        const auto res = run_with(t, rt, {}, SimConfig{}, core);
        EXPECT_TRUE(res.completed) << sim_core_name(core);
        EXPECT_EQ(res.cycles_stepped, 0) << sim_core_name(core);
        EXPECT_EQ(res.cycles_skipped, 0) << sim_core_name(core);
        EXPECT_EQ(res.horizon_jumps, 0) << sim_core_name(core);
        EXPECT_EQ(res.arbitrations, 0) << sim_core_name(core);
    }
}

TEST(EventHorizon, CoreNamesAreStable) {
    EXPECT_STREQ(sim_core_name(SimCore::kReference), "reference");
    EXPECT_STREQ(sim_core_name(SimCore::kActivity), "activity");
    for (const auto core : {SimCore::kReference, SimCore::kActivity}) {
        const auto parsed = sim_core_from_name(sim_core_name(core));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, core);
    }
    // Deleted cores are not aliases of the activity core: a stale name
    // must fail to parse, never run a default.
    for (const char* stale : {"regional", "event-horizon", "event_horizon", "warp", ""})
        EXPECT_FALSE(sim_core_from_name(stale).has_value()) << stale;
}

// ---- Seeded randomized differential ----------------------------------------

/// A random geometric graph: `n` nodes at distinct random positions of a
/// w x h grid, linked when within `radius` Manhattan pitches; components
/// are then bridged through their closest node pair until connected.
topo::Topology random_geometric(util::Rng& rng) {
    const auto w = static_cast<std::int32_t>(3 + rng.below(6));
    const auto h = static_cast<std::int32_t>(3 + rng.below(6));
    const auto n = static_cast<std::int32_t>(
        2 + rng.below(static_cast<std::uint64_t>(w * h - 1)));
    const auto radius = static_cast<std::int32_t>(1 + rng.below(3));
    topo::Topology t("rgg", 4.0);
    std::vector<util::Point2> cells;
    for (std::int32_t y = 0; y < h; ++y)
        for (std::int32_t x = 0; x < w; ++x) cells.push_back({x, y});
    for (std::int32_t i = 0; i < n; ++i) {
        const auto k = rng.below(cells.size());
        t.add_node(cells[k]);
        cells.erase(cells.begin() + static_cast<std::ptrdiff_t>(k));
    }
    const auto dist = [&](topo::NodeId a, topo::NodeId b) {
        return util::manhattan(t.node(a).pos, t.node(b).pos);
    };
    for (topo::NodeId a = 0; a < n; ++a)
        for (topo::NodeId b = a + 1; b < n; ++b)
            if (dist(a, b) <= radius && rng.below(4) != 0) t.add_link(a, b);
    for (;;) {
        const auto reach = t.hop_distances(0);
        std::pair<topo::NodeId, topo::NodeId> bridge{-1, -1};
        std::int32_t best = std::numeric_limits<std::int32_t>::max();
        for (topo::NodeId a = 0; a < n; ++a)
            for (topo::NodeId b = 0; b < n; ++b)
                if (reach[static_cast<std::size_t>(a)] >= 0 &&
                    reach[static_cast<std::size_t>(b)] < 0 && dist(a, b) < best) {
                    best = dist(a, b);
                    bridge = {a, b};
                }
        if (bridge.first < 0) break;
        t.add_link(bridge.first, bridge.second);
    }
    return t;
}

/// One random fabric: a geometric graph, a src/topo generator or a Floret
/// NoI at a random size, with a deadlock-free route table (dimension order
/// on meshes half the time, up*/down* otherwise).
std::pair<topo::Topology, RouteTable> random_fabric(util::Rng& rng) {
    const auto w = static_cast<std::int32_t>(4 + rng.below(4));
    const auto h = static_cast<std::int32_t>(4 + rng.below(4));
    bool mesh = false;
    topo::Topology t("?");
    switch (rng.below(9)) {
        case 0:
        case 1: t = random_geometric(rng); break;
        case 2: t = topo::make_mesh(w, h); mesh = true; break;
        case 3: t = topo::make_mesh3d(w / 2, h / 2, 2, 1.0, 0.05); mesh = true; break;
        case 4: t = topo::make_torus(w, h); break;
        case 5: t = topo::make_kite(w, h); break;
        case 6: t = rng.below(2) == 0 ? topo::make_butter_donut(w, h)
                                      : topo::make_double_butterfly(w, h);
                break;
        case 7: t = topo::make_swap(w, h, rng); break;
        default:
            t = core::make_floret(core::generate_sfc_set(
                w, h, static_cast<std::int32_t>(2 * (1 + rng.below(2)))));
    }
    const auto policy =
        mesh && rng.below(2) == 0 ? RoutingPolicy::kXY : RoutingPolicy::kUpDown;
    auto rt = RouteTable::build(t, policy);
    return {std::move(t), std::move(rt)};
}

/// Random knobs: buffers of 1-8 flits, packet and flit sizes, router
/// delays, wire speeds down to wheels of 10+ slots, sparse to saturating
/// rates, and a cycle cap on one run in four.
SimConfig random_config(util::Rng& rng) {
    SimConfig cfg;
    cfg.input_buffer_flits = static_cast<std::int32_t>(1 + rng.below(8));
    cfg.max_packet_flits = static_cast<std::int32_t>(1 + rng.below(16));
    cfg.flit_bytes = 4 << rng.below(4);
    cfg.router_delay_cycles = static_cast<std::int32_t>(rng.below(4));
    constexpr double kWireSpeeds[] = {0.25, 0.5, 1.0, 4.0, 16.0};
    cfg.mm_per_cycle = kWireSpeeds[rng.below(5)];
    cfg.injection_rate = std::pow(10.0, rng.uniform(-3.0, 1.0));
    cfg.max_cycles = rng.below(4) == 0
                         ? static_cast<std::int64_t>(50 + rng.below(5'000))
                         : 2'000'000;
    return cfg;
}

/// Random demands: uniform pairs, or a hotspot where every source targets
/// one sink, sized so a sparse schedule still drains well inside the cap.
std::vector<Demand> random_demand_set(util::Rng& rng, std::int32_t nodes,
                                      const SimConfig& cfg) {
    const auto n = static_cast<std::uint64_t>(nodes);
    const bool hotspot = rng.below(3) == 0;
    const auto sink = static_cast<topo::NodeId>(rng.below(n));
    const auto max_bytes = static_cast<std::uint64_t>(std::max(
        8.0, std::min(4096.0, 2e4 * cfg.injection_rate * cfg.flit_bytes)));
    std::vector<Demand> ds;
    const auto count = 1 + rng.below(48);
    for (std::uint64_t i = 0; i < count; ++i) {
        const auto s = static_cast<topo::NodeId>(rng.below(n));
        const auto d = hotspot ? sink : static_cast<topo::NodeId>(rng.below(n));
        ds.push_back({s, d, static_cast<std::int64_t>(1 + rng.below(max_bytes))});
    }
    return ds;
}

TEST(EventHorizon, RandomizedDifferential) {
    // A fixed seed list, so a failure names a reproducible case; each seed
    // draws one fabric, one demand set and one SimConfig.
    for (std::uint64_t seed = 1; seed <= 96; ++seed) {
        util::Rng rng(0xd1ff0000 + seed);
        const auto [t, rt] = random_fabric(rng);
        const auto cfg = random_config(rng);
        const auto demands = random_demand_set(rng, t.node_count(), cfg);
        const auto runs = expect_equivalent(
            t, rt, demands, cfg,
            "seed=" + std::to_string(seed) + " " + t.name() + " nodes=" +
                std::to_string(t.node_count()) +
                " buffer=" + std::to_string(cfg.input_buffer_flits) +
                " rate=" + std::to_string(cfg.injection_rate) +
                " cap=" + std::to_string(cfg.max_cycles));
        if (cfg.max_cycles == 2'000'000) {
            EXPECT_TRUE(runs.ref.completed) << seed;
        }
    }
}

}  // namespace
}  // namespace floretsim::noc
