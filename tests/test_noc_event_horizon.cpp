/// Differential suite for the activity-driven engine (SimCore::kActivity)
/// against the reference cycle loop: across random topologies, seeds,
/// buffer depths, sparse and saturating injection rates, saturated
/// single-sink drains (perfbench's drain recipe on the 10x10 Floret fabric
/// among them), corner-to-corner bursts, max_cycles-capped runs, routers
/// at the 63-in-channel fan-in bound, single-hop trains at each of their
/// boundaries and seeded randomized sweeps of topologies x demands x
/// SimConfigs (one of them biased towards trains), the activity core must
/// produce a bit-identical SimResult (cycles, packets, flits, flit_hops,
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
    EXPECT_EQ(r.ref.trains, 0) << label;
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
        // A 2-flit buffer is shallower than every Floret link delay.
        EXPECT_EQ(runs.fast.trains, 0) << sink;
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

// ---- Single-hop trains -------------------------------------------------------

/// Nodes 0..n-1 in a row, neighbours linked by `link_mm` wires: 4 mm gives
/// a link delay of 3 cycles at the default wire speed and router delay.
topo::Topology line(std::int32_t n, double link_mm = 4.0) {
    topo::Topology t("line", 4.0);
    for (std::int32_t i = 0; i < n; ++i) t.add_node({i, 0});
    for (std::int32_t i = 0; i + 1 < n; ++i) t.add_link(i, i + 1, link_mm);
    return t;
}

/// Runs both cores (expect_equivalent) and checks the activity core's train
/// count.
Runs expect_trains(const topo::Topology& t, const std::vector<Demand>& demands,
                   const SimConfig& cfg, std::int64_t trains, const std::string& label) {
    const auto rt = RouteTable::build(t, RoutingPolicy::kShortestPath);
    auto runs = expect_equivalent(t, rt, demands, cfg, label);
    EXPECT_EQ(runs.fast.trains, trains) << label;
    return runs;
}

TEST(EventHorizon, TrainsFollowTrainsOverOneLink) {
    // Five 16-flit packets of one demand, due two cycles apart: each leaves
    // as the previous train's tail does, with that train's last flits still
    // on the wire. A buffer as deep as the 3-cycle delay still streams; one
    // flit shallower, the in-flight flits could exhaust the credits.
    const auto t = line(2);
    SimConfig cfg;
    cfg.injection_rate = 8.0;
    for (const auto& [buffer, trains] : {std::pair{8, 5}, std::pair{3, 5}, std::pair{2, 0}}) {
        cfg.input_buffer_flits = buffer;
        const auto runs = expect_trains(t, {{0, 1, 5 * 128}}, cfg, trains,
                                        "back-to-back buffer=" + std::to_string(buffer));
        EXPECT_TRUE(runs.ref.completed);
        // Trains stream one flit per cycle: the last tail leaves at cycle
        // 79 and ejects 3 cycles later.
        if (trains > 0) {
            EXPECT_EQ(runs.ref.cycles, 5 * 16 + 3);
        }
    }
}

TEST(EventHorizon, ShortTrainsPutEveryFlitOnTheWheel) {
    // 4-flit packets on a 10-cycle link: every flit is still in flight when
    // the tail leaves, and back-to-back trains book more credits than the
    // output holds until the first train's flits land.
    const auto t = line(2, 32.0);
    SimConfig cfg;
    cfg.injection_rate = 8.0;
    cfg.max_packet_flits = 4;
    cfg.input_buffer_flits = 10;
    expect_trains(t, {{0, 1, 3 * 32}, {1, 0, 5 * 32}}, cfg, 8, "short trains");
    cfg.input_buffer_flits = 9;
    expect_trains(t, {{0, 1, 3 * 32}, {1, 0, 5 * 32}}, cfg, 0, "short trains buffer=9");
}

TEST(EventHorizon, NoTrainStraddlesTheCycleCap) {
    // One 16-flit packet granted at cycle 0: its tail leaves at 15 and
    // lands at 18. A cap of 18 cuts the would-be train (no train, the run
    // stops with 15 flits delivered); a cap of 19 lets it finish.
    const auto t = line(2);
    SimConfig cfg;
    cfg.max_cycles = 18;
    const auto capped = expect_trains(t, {{0, 1, 128}}, cfg, 0, "cap=18");
    EXPECT_FALSE(capped.ref.completed);
    EXPECT_EQ(capped.ref.flits, 15);
    cfg.max_cycles = 19;
    const auto done = expect_trains(t, {{0, 1, 128}}, cfg, 1, "cap=19");
    EXPECT_TRUE(done.ref.completed);
    EXPECT_EQ(done.ref.cycles, 19);
}

TEST(EventHorizon, NoTrainBehindPassingFlits) {
    // Node 0 sends an 8-flit packet through node 1 to node 2, then a
    // one-hop packet to node 1 over the same output. With a buffer of 3
    // (the delay), node 1 forwards each passing flit as it lands, so its
    // FIFO is empty at the one-hop head's grant, but the passing packet's
    // last flits are still on the wire: each returns its credit only when
    // node 1 forwards it, after output 0->1's turn in that cycle's
    // allocation, and the one-hop packet stalls on it. No train.
    const auto t = line(3);
    SimConfig cfg;
    cfg.injection_rate = 8.0;
    cfg.input_buffer_flits = 3;
    expect_trains(t, {{0, 2, 64}, {0, 1, 64}}, cfg, 0, "passing flits on the wire");
    // With a buffer of 8, node 1's own train holds 1->2, so the passing
    // packet waits in node 1's FIFO and the one-hop head finds it
    // non-empty. Only node 1's packet streams.
    cfg.input_buffer_flits = 8;
    expect_trains(t, {{0, 2, 64}, {0, 1, 64}, {1, 2, 128}}, cfg, 1,
                  "passing flits in the FIFO");
}

TEST(EventHorizon, RoundRobinResumesAfterARelease) {
    // Node 1 streams trains into 1->2 while node 0's two-hop packets reach
    // node 1 and enroll on the locked output. Each release hands the output
    // to the other source, so round-robin alternates node 1, node 0, node 1,
    // node 0: latencies 18, 34, 48 and 64 cycles (node 1's packets back to
    // back would give 18, 32, 50 and 64).
    const auto t = line(3);
    SimConfig cfg;
    cfg.injection_rate = 8.0;
    const auto runs = expect_trains(t, {{1, 2, 2 * 128}, {0, 2, 2 * 128}}, cfg, 2,
                                    "round-robin after release");
    util::RunningStats alternating;
    for (const double latency : {18.0, 34.0, 48.0, 64.0}) alternating.add(latency);
    EXPECT_EQ(runs.ref.packet_latency.variance(), alternating.variance());
    EXPECT_EQ(runs.ref.cycles, 67);
}

TEST(EventHorizon, PacketDueMidTrainWaitsBehindIt) {
    // Node 1's second packet (to node 0, over a free output) becomes due at
    // cycle 8, mid-train: it leaves only after the train's tail (cycle 15),
    // so its head leaves at 16 and its tail lands at 16 + 15 + 3.
    const auto t = line(3);
    SimConfig cfg;
    cfg.injection_rate = 2.0;
    const auto runs =
        expect_trains(t, {{1, 2, 128}, {1, 0, 128}}, cfg, 2, "due mid-train");
    EXPECT_EQ(runs.ref.packet_latency.max(), 16 + 15 + 3 - 8);
}

TEST(EventHorizon, OneFlitPacketsRunNoTrains) {
    const auto t = line(2);
    SimConfig cfg;
    cfg.injection_rate = 8.0;
    cfg.max_packet_flits = 1;
    expect_trains(t, {{0, 1, 80}, {1, 0, 80}}, cfg, 0, "one-flit packets");
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

/// Train-biased knobs: buffers of 2-9 flits, fast wires and short router
/// delays (link delays mostly within the buffer), packets of 1-24 flits,
/// a saturating rate half the time, and a cycle cap on one run in four.
SimConfig train_config(util::Rng& rng) {
    SimConfig cfg;
    cfg.input_buffer_flits = static_cast<std::int32_t>(2 + rng.below(8));
    cfg.max_packet_flits = static_cast<std::int32_t>(1 + rng.below(24));
    cfg.flit_bytes = 4 << rng.below(3);
    cfg.router_delay_cycles = static_cast<std::int32_t>(rng.below(3));
    constexpr double kWireSpeeds[] = {1.0, 4.0, 16.0};
    cfg.mm_per_cycle = kWireSpeeds[rng.below(3)];
    cfg.injection_rate = rng.below(2) == 0 ? 8.0 : std::pow(10.0, rng.uniform(-2.0, 0.5));
    cfg.max_cycles = rng.below(4) == 0 ? static_cast<std::int64_t>(20 + rng.below(2'000))
                                       : 2'000'000;
    return cfg;
}

/// Mostly neighbour demands (three in four ride one random link), the rest
/// uniform pairs, up to 2 KiB each.
std::vector<Demand> neighbour_demands(util::Rng& rng, const topo::Topology& t) {
    std::vector<Demand> ds;
    const auto count = 1 + rng.below(32);
    for (std::uint64_t i = 0; i < count; ++i) {
        const auto bytes = static_cast<std::int64_t>(8 * (1 + rng.below(256)));
        if (rng.below(4) != 0) {
            const auto& l = t.links()[rng.below(t.links().size())];
            ds.push_back(rng.below(2) == 0 ? Demand{l.a, l.b, bytes} : Demand{l.b, l.a, bytes});
        } else {
            const auto n = static_cast<std::uint64_t>(t.node_count());
            ds.push_back({static_cast<topo::NodeId>(rng.below(n)),
                          static_cast<topo::NodeId>(rng.below(n)), bytes});
        }
    }
    return ds;
}

TEST(EventHorizon, RandomizedTrainDifferential) {
    std::int64_t trains = 0;
    std::int32_t seeds_with_trains = 0;
    for (std::uint64_t seed = 1; seed <= 240; ++seed) {
        util::Rng rng(0x7a1a0000 + seed);
        const auto [t, rt] = random_fabric(rng);
        const auto cfg = train_config(rng);
        const auto demands = neighbour_demands(rng, t);
        const auto runs = expect_equivalent(
            t, rt, demands, cfg,
            "train seed=" + std::to_string(seed) + " " + t.name() +
                " buffer=" + std::to_string(cfg.input_buffer_flits) +
                " rate=" + std::to_string(cfg.injection_rate) +
                " cap=" + std::to_string(cfg.max_cycles));
        if (cfg.max_cycles == 2'000'000) {
            EXPECT_TRUE(runs.ref.completed) << seed;
        }
        trains += runs.fast.trains;
        seeds_with_trains += runs.fast.trains > 0 ? 1 : 0;
    }
    EXPECT_GT(trains, 0);
    EXPECT_GE(seeds_with_trains, 120) << trains << " trains";
}

}  // namespace
}  // namespace floretsim::noc
