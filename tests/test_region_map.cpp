/// topo::make_region_map is the seam the regional simulator core (and any
/// future intra-simulation parallelism) stands on, so its contract gets
/// its own suite: every node lands in exactly one region, ids are dense
/// and deterministic, and generator hints (Floret petals) are respected.

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "src/core/floret.h"
#include "src/core/sfc.h"
#include "src/topo/mesh.h"
#include "src/topo/topology.h"

namespace floretsim::topo {
namespace {

/// Partition validity shared by every case: dense ids in [0, count), every
/// node assigned.
void expect_valid(const Topology& t, const RegionMap& m) {
    ASSERT_EQ(static_cast<std::int32_t>(m.region_of.size()), t.node_count());
    EXPECT_GE(m.count, 1);
    EXPECT_LE(m.count, t.node_count());
    std::set<std::int32_t> used;
    for (const auto r : m.region_of) {
        EXPECT_GE(r, 0);
        EXPECT_LT(r, m.count);
        used.insert(r);
    }
    EXPECT_EQ(static_cast<std::int32_t>(used.size()), m.count)
        << "region ids must be dense";
}

TEST(RegionMap, AutoTilingCoversMeshes) {
    for (const auto [w, h] : {std::pair{4, 4}, {10, 10}, {1, 7}, {16, 2}}) {
        const auto t = make_mesh(w, h);
        const auto m = make_region_map(t);
        expect_valid(t, m);
        // Auto mode aims at ~8-node tiles, capped at 64 regions.
        EXPECT_LE(m.count, 64) << w << "x" << h;
        if (t.node_count() >= 16) EXPECT_GT(m.count, 1) << w << "x" << h;
    }
}

TEST(RegionMap, DeterministicAcrossCalls) {
    const auto t = make_mesh(7, 5);
    const auto a = make_region_map(t);
    const auto b = make_region_map(t);
    EXPECT_EQ(a.count, b.count);
    EXPECT_EQ(a.region_of, b.region_of);
}

TEST(RegionMap, GeneratorHintWinsOverTiling) {
    Topology t("hinted", 4.0);
    for (std::int32_t i = 0; i < 6; ++i) t.add_node({i, 0});
    for (std::int32_t i = 0; i + 1 < 6; ++i) t.add_link(i, i + 1);
    // Interleaved hint ids, deliberately not spatial and not dense in
    // first-seen order (2 appears before 0): densification must preserve
    // groupings, not raw ids.
    t.set_region_hint({2, 0, 2, 0, 1, 1});
    const auto m = make_region_map(t);
    expect_valid(t, m);
    EXPECT_EQ(m.count, 3);
    EXPECT_EQ(m.region_of[0], m.region_of[2]);
    EXPECT_EQ(m.region_of[1], m.region_of[3]);
    EXPECT_EQ(m.region_of[4], m.region_of[5]);
    EXPECT_EQ(m.region_of[0], 0) << "first-seen hint takes id 0";
}

TEST(RegionMap, HintValidationRejectsBadInput) {
    Topology t("bad", 4.0);
    t.add_node({0, 0});
    t.add_node({1, 0});
    EXPECT_THROW(t.set_region_hint({0}), std::invalid_argument);
    EXPECT_THROW(t.set_region_hint({0, -1}), std::invalid_argument);
}

TEST(RegionMap, FloretPetalsBecomeRegions) {
    const auto set = core::generate_sfc_set(8, 8, 4);
    const auto t = core::make_floret(set);
    const auto m = make_region_map(t);
    expect_valid(t, m);
    EXPECT_EQ(m.count, static_cast<std::int32_t>(set.sfcs.size()))
        << "one region per petal";
    // Petals are contiguous SFC paths: most links stay inside a petal and
    // only the express/boundary links cross.
    std::int32_t cut = 0;
    for (const auto& l : t.links())
        if (m.region_of[static_cast<std::size_t>(l.a)] !=
            m.region_of[static_cast<std::size_t>(l.b)])
            ++cut;
    EXPECT_LT(cut, t.link_count());
}

}  // namespace
}  // namespace floretsim::topo
