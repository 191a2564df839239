#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "src/core/floret.h"
#include "src/core/sfc.h"
#include "src/noc/routing.h"
#include "src/noc/simulator.h"
#include "src/topo/mesh.h"
#include "src/topo/swap.h"
#include "src/util/rng.h"

namespace floretsim::noc {
namespace {

SimConfig fast_cfg() {
    SimConfig cfg;
    cfg.max_cycles = 2'000'000;
    return cfg;
}

TEST(Simulator, SinglePacketUncontendedLatency) {
    const auto t = topo::make_mesh(4, 1, 4.0);
    const auto rt = RouteTable::build(t, RoutingPolicy::kShortestPath);
    SimConfig cfg = fast_cfg();
    cfg.injection_rate = 1.0;
    Simulator sim(t, rt, cfg);
    sim.add_demand({0, 3, 8});  // exactly one flit
    const auto res = sim.run();
    EXPECT_TRUE(res.completed);
    EXPECT_EQ(res.packets, 1);
    EXPECT_EQ(res.flits, 1);
    EXPECT_EQ(res.flit_hops, 3);
    // 3 hops x (1 link cycle + 2 router cycles) plus arbitration cycles:
    // latency must be close to the pipeline lower bound.
    EXPECT_GE(res.packet_latency.mean(), 9.0);
    EXPECT_LE(res.packet_latency.mean(), 14.0);
}

TEST(Simulator, MultiFlitPacketSerialization) {
    const auto t = topo::make_mesh(2, 1, 4.0);
    const auto rt = RouteTable::build(t, RoutingPolicy::kShortestPath);
    SimConfig cfg = fast_cfg();
    cfg.injection_rate = 1.0;
    Simulator sim(t, rt, cfg);
    sim.add_demand({0, 1, 64});  // 8 flits, one packet
    const auto res = sim.run();
    EXPECT_TRUE(res.completed);
    EXPECT_EQ(res.packets, 1);
    EXPECT_EQ(res.flits, 8);
    EXPECT_EQ(res.flit_hops, 8);
}

TEST(Simulator, LargeDemandSegmentsIntoPackets) {
    const auto t = topo::make_mesh(2, 1);
    const auto rt = RouteTable::build(t, RoutingPolicy::kShortestPath);
    SimConfig cfg = fast_cfg();
    Simulator sim(t, rt, cfg);
    sim.add_demand({0, 1, 8 * 16 * 5});  // 5 max-size packets
    const auto res = sim.run();
    EXPECT_TRUE(res.completed);
    EXPECT_EQ(res.packets, 5);
    EXPECT_EQ(res.flits, 80);
}

TEST(Simulator, LocalAndEmptyDemandsIgnored) {
    const auto t = topo::make_mesh(2, 2);
    const auto rt = RouteTable::build(t, RoutingPolicy::kShortestPath);
    Simulator sim(t, rt, fast_cfg());
    sim.add_demand({1, 1, 100});
    sim.add_demand({0, 1, 0});
    const auto res = sim.run();
    EXPECT_TRUE(res.completed);
    EXPECT_EQ(res.packets, 0);
    EXPECT_EQ(res.cycles, 0);
}

TEST(Simulator, RejectsOutOfRangeEndpoints) {
    const auto t = topo::make_mesh(2, 2);
    const auto rt = RouteTable::build(t, RoutingPolicy::kShortestPath);
    Simulator sim(t, rt, fast_cfg());
    EXPECT_THROW(sim.add_demand({0, 9, 10}), std::out_of_range);
    EXPECT_THROW(sim.add_demand({-1, 0, 10}), std::out_of_range);
}

TEST(Simulator, RejectsOutOfRangeConfigs) {
    // Each out-of-range field throws std::invalid_argument naming it, at
    // construction: a zero flit or packet size would otherwise divide by
    // zero or never finish packetizing.
    const auto t = topo::make_mesh(2, 2);
    const auto rt = RouteTable::build(t, RoutingPolicy::kShortestPath);
    const auto with = [](auto edit) {
        SimConfig cfg = fast_cfg();
        edit(cfg);
        return cfg;
    };
    const std::vector<std::pair<std::string, SimConfig>> bad{
        {"flit_bytes", with([](SimConfig& c) { c.flit_bytes = 0; })},
        {"max_packet_flits", with([](SimConfig& c) { c.max_packet_flits = 0; })},
        {"input_buffer_flits", with([](SimConfig& c) { c.input_buffer_flits = -3; })},
        {"router_delay_cycles", with([](SimConfig& c) { c.router_delay_cycles = -1; })},
        {"mm_per_cycle", with([](SimConfig& c) { c.mm_per_cycle = 0.0; })},
        {"mm_per_cycle", with([](SimConfig& c) {
             c.mm_per_cycle = std::numeric_limits<double>::infinity();
         })},
        {"mm_per_cycle", with([](SimConfig& c) {
             c.mm_per_cycle = std::numeric_limits<double>::quiet_NaN();
         })},
    };
    for (const auto& [field, cfg] : bad) {
        try {
            Simulator sim(t, rt, cfg);
            ADD_FAILURE() << "expected rejection of " << field;
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
        }
    }
    // The smallest valid values run.
    SimConfig edge = fast_cfg();
    edge.flit_bytes = 1;
    edge.max_packet_flits = 1;
    edge.input_buffer_flits = 1;
    edge.router_delay_cycles = 0;
    edge.mm_per_cycle = 1e-3;
    Simulator sim(t, rt, edge);
    sim.add_demand({0, 3, 4});
    const auto res = sim.run();
    EXPECT_TRUE(res.completed);
    EXPECT_EQ(res.packets, 4);
}

TEST(Simulator, ConservationUnderRandomTraffic) {
    const auto t = topo::make_mesh(5, 5);
    const auto rt = RouteTable::build(t, RoutingPolicy::kShortestPath);
    Simulator sim(t, rt, fast_cfg());
    util::Rng rng(3);
    std::int64_t expect_packets = 0;
    for (int i = 0; i < 200; ++i) {
        const auto s = static_cast<topo::NodeId>(rng.below(25));
        const auto d = static_cast<topo::NodeId>(rng.below(25));
        if (s == d) continue;
        const std::int64_t bytes = 8 * (1 + static_cast<std::int64_t>(rng.below(40)));
        expect_packets += (bytes / 8 + 15) / 16;
        sim.add_demand({s, d, bytes});
    }
    const auto res = sim.run();
    EXPECT_TRUE(res.completed);
    EXPECT_EQ(res.packets, expect_packets);
}

TEST(Simulator, FlitHopCountersConsistent) {
    const auto t = topo::make_mesh(4, 4);
    const auto rt = RouteTable::build(t, RoutingPolicy::kShortestPath);
    Simulator sim(t, rt, fast_cfg());
    sim.add_demand({0, 15, 800});
    const auto res = sim.run();
    ASSERT_TRUE(res.completed);
    std::int64_t router_total = 0;
    for (const auto f : res.router_flits) router_total += f;
    std::int64_t link_total = 0;
    for (const auto f : res.link_flits) link_total += f;
    EXPECT_EQ(router_total, res.flit_hops);
    EXPECT_EQ(link_total, res.flit_hops);
    // 100 flits x 6 hops.
    EXPECT_EQ(res.flit_hops, 600);
}

TEST(Simulator, BackpressureWithTinyBuffersStillDrains) {
    const auto t = topo::make_mesh(6, 6);
    const auto rt = RouteTable::build(t, RoutingPolicy::kUpDown);
    SimConfig cfg = fast_cfg();
    cfg.input_buffer_flits = 1;  // stress credit flow control
    Simulator sim(t, rt, cfg);
    util::Rng rng(9);
    for (int i = 0; i < 100; ++i) {
        const auto s = static_cast<topo::NodeId>(rng.below(36));
        const auto d = static_cast<topo::NodeId>(rng.below(36));
        if (s != d) sim.add_demand({s, d, 160});
    }
    const auto res = sim.run();
    EXPECT_TRUE(res.completed) << "deadlock or starvation with 1-flit buffers";
}

TEST(Simulator, HotspotContentionSlowsDelivery) {
    const auto t = topo::make_mesh(5, 5);
    const auto rt = RouteTable::build(t, RoutingPolicy::kShortestPath);
    // All nodes send to node 12 (center) -> serialization at its inputs.
    SimConfig cfg = fast_cfg();
    Simulator hot(t, rt, cfg);
    for (topo::NodeId n = 0; n < 25; ++n)
        if (n != 12) hot.add_demand({n, 12, 400});
    const auto res_hot = hot.run();

    // Same volume as neighbor-to-neighbor traffic drains much faster.
    Simulator cool(t, rt, cfg);
    for (topo::NodeId n = 0; n + 1 < 25; ++n) cool.add_demand({n, n + 1, 400});
    const auto res_cool = cool.run();

    ASSERT_TRUE(res_hot.completed);
    ASSERT_TRUE(res_cool.completed);
    EXPECT_GT(res_hot.packet_latency.mean(), 1.5 * res_cool.packet_latency.mean());
}

TEST(Simulator, LongLinksIncreaseLatency) {
    // Two-node topologies with 4mm vs 20mm links.
    topo::Topology short_t("short", 4.0);
    short_t.add_node({0, 0});
    short_t.add_node({1, 0});
    short_t.add_link(0, 1, 4.0);
    topo::Topology long_t("long", 4.0);
    long_t.add_node({0, 0});
    long_t.add_node({1, 0});
    long_t.add_link(0, 1, 20.0);

    for (const auto* t : {&short_t, &long_t}) {
        const auto rt = RouteTable::build(*t, RoutingPolicy::kShortestPath);
        Simulator sim(*t, rt, fast_cfg());
        sim.add_demand({0, 1, 8});
        const auto res = sim.run();
        ASSERT_TRUE(res.completed);
    }
    const auto rts = RouteTable::build(short_t, RoutingPolicy::kShortestPath);
    Simulator s1(short_t, rts, fast_cfg());
    s1.add_demand({0, 1, 8});
    const auto r1 = s1.run();
    const auto rtl = RouteTable::build(long_t, RoutingPolicy::kShortestPath);
    Simulator s2(long_t, rtl, fast_cfg());
    s2.add_demand({0, 1, 8});
    const auto r2 = s2.run();
    EXPECT_GT(r2.packet_latency.mean(), r1.packet_latency.mean());
}

TEST(Simulator, DeadlockFreeOnIrregularTopologiesWithUpDown) {
    util::Rng rng(31);
    const auto swap = topo::make_swap(8, 8, rng);
    const auto floret = core::make_floret(core::generate_sfc_set(8, 8, 4));
    for (const auto* t : {&swap, &floret}) {
        const auto rt = RouteTable::build(*t, RoutingPolicy::kUpDown);
        SimConfig cfg = fast_cfg();
        cfg.input_buffer_flits = 2;
        Simulator sim(*t, rt, cfg);
        util::Rng traffic_rng(7);
        for (int i = 0; i < 300; ++i) {
            const auto s = static_cast<topo::NodeId>(traffic_rng.below(64));
            const auto d = static_cast<topo::NodeId>(traffic_rng.below(64));
            if (s != d) sim.add_demand({s, d, 320});
        }
        const auto res = sim.run();
        EXPECT_TRUE(res.completed) << t->name() << " failed to drain (deadlock?)";
    }
}

TEST(Simulator, ReusableAfterRun) {
    const auto t = topo::make_mesh(3, 3);
    const auto rt = RouteTable::build(t, RoutingPolicy::kShortestPath);
    Simulator sim(t, rt, fast_cfg());
    sim.add_demand({0, 8, 80});
    const auto r1 = sim.run();
    EXPECT_TRUE(r1.completed);
    sim.add_demand({8, 0, 80});
    const auto r2 = sim.run();
    EXPECT_TRUE(r2.completed);
    EXPECT_EQ(r2.packets, r1.packets);
}

/// Runs the same demand set on the reference cycle loop and the default
/// (activity) core and requires bit-identical SimResults — every skipped
/// cycle must be a no-op. (tests/test_noc_event_horizon.cpp runs the full
/// randomized differential matrix.)
void expect_skip_ahead_equivalent(const topo::Topology& t, const RouteTable& rt,
                                  const std::vector<Demand>& demands,
                                  SimConfig cfg) {
    cfg.core = SimCore::kReference;
    Simulator ref_sim(t, rt, cfg);
    ref_sim.add_demands(demands);
    const auto ref = ref_sim.run();

    cfg.core = SimConfig{}.core;
    Simulator fast_sim(t, rt, cfg);
    fast_sim.add_demands(demands);
    const auto fast = fast_sim.run();

    EXPECT_EQ(fast.cycles, ref.cycles);
    EXPECT_EQ(fast.packets, ref.packets);
    EXPECT_EQ(fast.flits, ref.flits);
    EXPECT_EQ(fast.flit_hops, ref.flit_hops);
    EXPECT_EQ(fast.completed, ref.completed);
    EXPECT_EQ(fast.packet_latency.count(), ref.packet_latency.count());
    EXPECT_EQ(fast.packet_latency.mean(), ref.packet_latency.mean());
    EXPECT_EQ(fast.packet_latency.max(), ref.packet_latency.max());
    EXPECT_EQ(fast.router_flits, ref.router_flits);
    EXPECT_EQ(fast.link_flits, ref.link_flits);
}

std::vector<Demand> sparse_demands(std::int32_t nodes, std::uint64_t seed) {
    util::Rng rng(seed);
    std::vector<Demand> ds;
    for (int i = 0; i < 40; ++i) {
        const auto s = static_cast<topo::NodeId>(rng.below(static_cast<std::uint64_t>(nodes)));
        const auto d = static_cast<topo::NodeId>(rng.below(static_cast<std::uint64_t>(nodes)));
        if (s != d) ds.push_back({s, d, 8 * (1 + static_cast<std::int64_t>(rng.below(24)))});
    }
    return ds;
}

TEST(Simulator, SkipAheadMatchesReferenceOnMeshSparse) {
    const auto t = topo::make_mesh(6, 6);
    const auto rt = RouteTable::build(t, RoutingPolicy::kShortestPath);
    SimConfig cfg = fast_cfg();
    cfg.injection_rate = 0.002;  // long idle gaps between packet waves
    expect_skip_ahead_equivalent(t, rt, sparse_demands(36, 11), cfg);
}

TEST(Simulator, SkipAheadMatchesReferenceOnMeshDense) {
    const auto t = topo::make_mesh(6, 6);
    const auto rt = RouteTable::build(t, RoutingPolicy::kUpDown);
    SimConfig cfg = fast_cfg();
    cfg.injection_rate = 1.0;
    cfg.input_buffer_flits = 2;  // heavy backpressure
    expect_skip_ahead_equivalent(t, rt, sparse_demands(36, 23), cfg);
}

TEST(Simulator, SkipAheadMatchesReferenceOnFloret) {
    const auto floret = core::make_floret(core::generate_sfc_set(8, 8, 4));
    const auto rt = RouteTable::build(floret, RoutingPolicy::kUpDown);
    SimConfig cfg = fast_cfg();
    cfg.injection_rate = 0.01;
    expect_skip_ahead_equivalent(floret, rt, sparse_demands(64, 7), cfg);
}

TEST(Simulator, SkipAheadMatchesReferenceOnLongLinks) {
    // Long links mean deep pipelines: many cycles where every in-flight
    // flit is mid-link — exactly the window the fast path jumps across.
    topo::Topology t("long", 4.0);
    t.add_node({0, 0});
    t.add_node({8, 0});
    t.add_node({16, 0});
    t.add_link(0, 1, 32.0);
    t.add_link(1, 2, 32.0);
    const auto rt = RouteTable::build(t, RoutingPolicy::kShortestPath);
    SimConfig cfg = fast_cfg();
    cfg.injection_rate = 0.05;
    expect_skip_ahead_equivalent(t, rt, {{0, 2, 160}, {2, 0, 80}, {1, 2, 8}}, cfg);
}

TEST(Simulator, SkipAheadMatchesReferenceWhenCycleCapped) {
    const auto t = topo::make_mesh(4, 4);
    const auto rt = RouteTable::build(t, RoutingPolicy::kShortestPath);
    SimConfig cfg = fast_cfg();
    cfg.injection_rate = 1e-4;   // schedule stretches far beyond the cap
    cfg.max_cycles = 5'000;
    expect_skip_ahead_equivalent(t, rt, sparse_demands(16, 3), cfg);
}

TEST(Simulator, ActivityCoreIsOnByDefault) {
    EXPECT_EQ(SimConfig{}.core, SimCore::kActivity);
}

TEST(Simulator, IdleFastForwardClampsCappedRuns) {
    // An idle gap whose next injection lies beyond max_cycles: the idle
    // fast-forward must clamp to the cap, never report cycles > max_cycles
    // (this was a real bug — the jump used to land on the injection cycle
    // itself, so a capped run reported a makespan past its own cap).
    const auto t = topo::make_mesh(4, 1, 4.0);
    const auto rt = RouteTable::build(t, RoutingPolicy::kShortestPath);
    SimConfig cfg;
    cfg.injection_rate = 1e-6;  // second packet schedules ~1e7 cycles out
    cfg.max_cycles = 1'000;
    for (const auto core : {SimCore::kReference, SimCore::kActivity}) {
        cfg.core = core;
        Simulator sim(t, rt, cfg);
        sim.add_demand({0, 3, 8});  // delivered almost immediately
        sim.add_demand({0, 3, 8});  // injects far beyond the cap
        const auto res = sim.run();
        EXPECT_FALSE(res.completed) << sim_core_name(core);
        EXPECT_EQ(res.packets, 1) << sim_core_name(core);
        EXPECT_EQ(res.cycles, cfg.max_cycles) << sim_core_name(core);
    }
}

TEST(Simulator, InjectionRateThrottlesMakespan) {
    const auto t = topo::make_mesh(4, 4);
    const auto rt = RouteTable::build(t, RoutingPolicy::kShortestPath);
    SimConfig slow = fast_cfg();
    slow.injection_rate = 0.01;
    SimConfig fast = fast_cfg();
    fast.injection_rate = 0.5;
    Simulator sim_slow(t, rt, slow);
    Simulator sim_fast(t, rt, fast);
    for (topo::NodeId n = 0; n < 16; ++n) {
        if (n != 5) {
            sim_slow.add_demand({n, 5, 160});
            sim_fast.add_demand({n, 5, 160});
        }
    }
    const auto rs = sim_slow.run();
    const auto rf = sim_fast.run();
    ASSERT_TRUE(rs.completed);
    ASSERT_TRUE(rf.completed);
    EXPECT_GT(rs.cycles, rf.cycles);
}

}  // namespace
}  // namespace floretsim::noc
