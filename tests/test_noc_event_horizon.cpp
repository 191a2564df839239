/// Differential suite for the per-region-clock engine (SimCore::kRegional)
/// against the reference cycle loop: across random topologies, seeds,
/// buffer depths of 1-4 flits, sparse and saturating injection rates,
/// saturated single-sink drains, corner-to-corner bursts, and
/// max_cycles-capped runs, the regional core must produce a bit-identical
/// SimResult (cycles, packets, flits, flit_hops, per-router/per-link
/// counters, latency stats) on three region shapes: the topology's own
/// partition, one region spanning the fabric (the global event horizon),
/// and a seeded random non-contiguous partition. The engine-work
/// statistics are the only fields allowed to differ — and they must prove
/// the fast path is both accounted (global stepped + skipped == cycles;
/// per-region stepped + skipped == regions * cycles) and not slower than
/// the reference in executed cycles.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
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

/// Region shapes the regional core is checked on, forced through
/// Topology::set_region_hint on a copy of the fabric (routes depend only on
/// the links, so the route table is reused as is).
enum class Shape {
    kOwn,        ///< The topology's own partition (petals or ~8-node tiles).
    kOneRegion,  ///< One region spanning the fabric: the global event horizon.
    kRandom,     ///< Seeded random labels: non-contiguous regions, the
                 ///< hardest case for cross-region credit wake-ups.
};

const char* shape_name(Shape shape) {
    switch (shape) {
        case Shape::kOwn: return "own regions";
        case Shape::kOneRegion: return "one region";
        case Shape::kRandom: return "random regions";
    }
    return "?";
}

SimResult run_regional(const topo::Topology& t, const RouteTable& rt,
                       const std::vector<Demand>& demands, const SimConfig& cfg,
                       Shape shape) {
    topo::Topology shaped = t;
    const auto n = static_cast<std::size_t>(t.node_count());
    if (shape == Shape::kOneRegion) {
        shaped.set_region_hint(std::vector<std::int32_t>(n, 0));
    } else if (shape == Shape::kRandom) {
        util::Rng rng(0x5eed + n);
        std::vector<std::int32_t> hint(n);
        for (auto& h : hint)
            h = static_cast<std::int32_t>(rng.below(std::min<std::uint64_t>(n, 6)));
        shaped.set_region_hint(std::move(hint));
    }
    return run_with(shaped, rt, demands, cfg, SimCore::kRegional);
}

/// Accounting every core must satisfy regardless of which engine ran:
/// global cycles split exactly into stepped + skipped, and the per-region
/// totals are conserved — each region either participates in a stepped
/// cycle or its local clock leaps it, so the region totals sum to
/// regions * cycles and the hottest region bounds the extremes.
void expect_conserved(const SimResult& r, const std::string& label) {
    EXPECT_EQ(r.cycles_stepped + r.cycles_skipped, r.cycles) << label;
    EXPECT_GE(r.regions, 1) << label;
    EXPECT_EQ(r.region_cycles_stepped + r.region_cycles_skipped,
              r.regions * r.cycles)
        << label;
    EXPECT_LE(r.region_stepped_min, r.region_stepped_max) << label;
    EXPECT_LE(r.region_stepped_max, r.cycles_stepped) << label;
    EXPECT_GE(r.region_stepped_min, 0) << label;
    EXPECT_LE(r.region_cycles_stepped, r.regions * r.cycles_stepped) << label;
    // Every globally stepped cycle had at least one participating region.
    EXPECT_GE(r.region_cycles_stepped, r.cycles_stepped) << label;
}

/// The differential contract: semantic fields bit-identical to the
/// reference on every region shape, engine-work statistics internally
/// consistent and no worse than the reference.
void expect_equivalent(const topo::Topology& t, const RouteTable& rt,
                       const std::vector<Demand>& demands, const SimConfig& cfg,
                       const std::string& label) {
    const auto ref = run_with(t, rt, demands, cfg, SimCore::kReference);
    expect_conserved(ref, label + " [reference]");
    // The reference core reports one region spanning the fabric.
    EXPECT_EQ(ref.regions, 1) << label;
    EXPECT_EQ(ref.region_cycles_stepped, ref.cycles_stepped) << label;

    for (const auto shape : {Shape::kOwn, Shape::kOneRegion, Shape::kRandom}) {
        const std::string tag = label + " [regional, " + shape_name(shape) + "]";
        const auto fast = run_regional(t, rt, demands, cfg, shape);

        EXPECT_EQ(fast.cycles, ref.cycles) << tag;
        EXPECT_EQ(fast.packets, ref.packets) << tag;
        EXPECT_EQ(fast.flits, ref.flits) << tag;
        EXPECT_EQ(fast.flit_hops, ref.flit_hops) << tag;
        EXPECT_EQ(fast.completed, ref.completed) << tag;
        EXPECT_EQ(fast.packet_latency.count(), ref.packet_latency.count())
            << tag;
        EXPECT_EQ(fast.packet_latency.mean(), ref.packet_latency.mean()) << tag;
        EXPECT_EQ(fast.packet_latency.variance(), ref.packet_latency.variance())
            << tag;
        EXPECT_EQ(fast.packet_latency.min(), ref.packet_latency.min()) << tag;
        EXPECT_EQ(fast.packet_latency.max(), ref.packet_latency.max()) << tag;
        EXPECT_EQ(fast.router_flits, ref.router_flits) << tag;
        EXPECT_EQ(fast.link_flits, ref.link_flits) << tag;

        expect_conserved(fast, tag);
        // The regional no-op proofs subsume the reference's idle-gap-only
        // rule, so no region shape can ever execute more cycles.
        EXPECT_LE(fast.cycles_stepped, ref.cycles_stepped) << tag;
        if (shape == Shape::kOneRegion) {
            EXPECT_EQ(fast.regions, 1) << tag;
        }
    }
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
        expect_equivalent(t, rt, demands, cfg, "longline depth=" +
                                                   std::to_string(depth));
        // Congested drains on deep pipes are exactly where the credit-aware
        // proof must beat cycle stepping outright, even with one global
        // clock.
        const auto fast = run_regional(t, rt, demands, cfg, Shape::kOneRegion);
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
    // must still find jumps on one global clock.
    const auto t = topo::make_mesh(5, 5);
    const auto rt = RouteTable::build(t, RoutingPolicy::kShortestPath);
    SimConfig cfg;
    cfg.max_cycles = 2'000'000;
    cfg.input_buffer_flits = 1;  // maximum backpressure
    cfg.injection_rate = 8.0;
    std::vector<Demand> demands;
    for (topo::NodeId n = 0; n < 25; ++n)
        if (n != 12) demands.push_back({n, 12, 400});
    expect_equivalent(t, rt, demands, cfg, "hotspot");
    const auto fast = run_regional(t, rt, demands, cfg, Shape::kOneRegion);
    EXPECT_GT(fast.horizon_jumps, 0);
}

TEST(EventHorizon, SaturatedDrainSleepsColdRegions) {
    // One corner port ejecting, the rest of the fabric quiescent: a few
    // scattered sources flood node 0 while the other 95 nodes stay silent.
    // Something moves near the sink every cycle, so the global quiet proof
    // almost never fires — but the regional core's off-path tiles prove
    // local fixed points and leap, which is the entire point of per-region
    // clocks; path tiles wake for passing flits and jump back to sleep.
    const auto t = topo::make_mesh(10, 10);
    const auto rt = RouteTable::build(t, RoutingPolicy::kShortestPath);
    SimConfig cfg;
    cfg.max_cycles = 2'000'000;
    cfg.input_buffer_flits = 2;
    cfg.injection_rate = 8.0;
    std::vector<Demand> demands;
    for (const topo::NodeId src : {9, 44, 55, 90, 99})
        demands.push_back({src, 0, 8 * 1024});
    expect_equivalent(t, rt, demands, cfg, "saturated drain");

    const auto regional = run_regional(t, rt, demands, cfg, Shape::kOwn);
    EXPECT_GT(regional.regions, 1);
    EXPECT_GT(regional.region_cycles_skipped, 0);
    EXPECT_GT(regional.region_horizon_jumps, 0);
    // The drain concentrates work: the sink's region steps nearly every
    // cycle while the far corner sleeps through most of the run.
    EXPECT_LT(regional.region_stepped_min, regional.region_stepped_max);
    // Strict superset of one global clock's skipping on this pattern: the
    // per-region totals must beat what the one-region partition can prove.
    const auto global = run_regional(t, rt, demands, cfg, Shape::kOneRegion);
    EXPECT_GT(regional.region_cycles_skipped,
              global.cycles_skipped * global.regions);
}

TEST(EventHorizon, CornerToCornerBurstHotspot) {
    // A single corner-to-corner burst: one long diagonal of busy links,
    // everything off-path idle. Every region shape must stay bit-identical;
    // the topology's own tiles must additionally prove off-path tiles asleep.
    const auto t = topo::make_mesh(8, 8);
    const auto rt = RouteTable::build(t, RoutingPolicy::kShortestPath);
    SimConfig cfg;
    cfg.max_cycles = 2'000'000;
    cfg.input_buffer_flits = 1;  // maximum backpressure along the path
    cfg.injection_rate = 8.0;
    const std::vector<Demand> demands{{0, 63, 16 * 1024}};
    expect_equivalent(t, rt, demands, cfg, "corner burst");

    const auto regional = run_regional(t, rt, demands, cfg, Shape::kOwn);
    EXPECT_GT(regional.regions, 1);
    EXPECT_GT(regional.region_cycles_skipped, 0);
}

TEST(EventHorizon, ForcedRegionCountsPreserveResults) {
    // Region shape is a scheduling choice, never a semantic one: any forced
    // partition — including one region (the global event horizon) and
    // counts that do not divide the mesh — must reproduce the reference
    // bits. Row-major stripes of the 36 nodes force exactly `regions`.
    const auto t = topo::make_mesh(6, 6);
    const auto rt = RouteTable::build(t, RoutingPolicy::kUpDown);
    const auto demands = random_demands(36, 23, 60, 400);
    SimConfig cfg;
    cfg.max_cycles = 2'000'000;
    cfg.injection_rate = 0.05;
    const auto ref = run_with(t, rt, demands, cfg, SimCore::kReference);
    for (const std::int32_t regions : {1, 2, 5, 7}) {
        auto forced = t;
        std::vector<std::int32_t> hint(36);
        for (std::int32_t n = 0; n < 36; ++n)
            hint[static_cast<std::size_t>(n)] = n * regions / 36;
        forced.set_region_hint(std::move(hint));
        const auto r = run_with(forced, rt, demands, cfg, SimCore::kRegional);
        const std::string tag = "forced regions=" + std::to_string(regions);
        EXPECT_EQ(r.regions, regions) << tag;
        EXPECT_EQ(r.cycles, ref.cycles) << tag;
        EXPECT_EQ(r.packets, ref.packets) << tag;
        EXPECT_EQ(r.flit_hops, ref.flit_hops) << tag;
        EXPECT_EQ(r.packet_latency.mean(), ref.packet_latency.mean()) << tag;
        EXPECT_EQ(r.router_flits, ref.router_flits) << tag;
        EXPECT_EQ(r.link_flits, ref.link_flits) << tag;
        expect_conserved(r, tag);
        EXPECT_LE(r.cycles_stepped, ref.cycles_stepped) << tag;
    }
}

TEST(EventHorizon, StatisticsAreZeroWorkOnEmptyRun) {
    const auto t = topo::make_mesh(2, 2);
    const auto rt = RouteTable::build(t, RoutingPolicy::kShortestPath);
    Simulator sim(t, rt, SimConfig{});
    const auto res = sim.run();
    EXPECT_TRUE(res.completed);
    EXPECT_EQ(res.cycles_stepped, 0);
    EXPECT_EQ(res.cycles_skipped, 0);
    EXPECT_EQ(res.horizon_jumps, 0);
}

TEST(EventHorizon, CoreNamesAreStable) {
    EXPECT_STREQ(sim_core_name(SimCore::kReference), "reference");
    EXPECT_STREQ(sim_core_name(SimCore::kRegional), "regional");
    for (const auto core : {SimCore::kReference, SimCore::kRegional}) {
        const auto parsed = sim_core_from_name(sim_core_name(core));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, core);
    }
    // "event-horizon" is not an alias for the one-region regional
    // schedule: a stale core name must fail to parse, never run a default.
    EXPECT_FALSE(sim_core_from_name("event-horizon").has_value());
    EXPECT_FALSE(sim_core_from_name("event_horizon").has_value());
    EXPECT_FALSE(sim_core_from_name("warp").has_value());
    EXPECT_FALSE(sim_core_from_name("").has_value());
}

}  // namespace
}  // namespace floretsim::noc
