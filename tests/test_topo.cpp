#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "src/topo/kite.h"
#include "src/topo/mesh.h"
#include "src/topo/swap.h"
#include "src/topo/topology.h"
#include "src/util/hash.h"

namespace floretsim::topo {
namespace {

TEST(Topology, AddNodeAndLink) {
    Topology t("t", 4.0);
    const auto a = t.add_node({0, 0});
    const auto b = t.add_node({1, 0});
    const auto l = t.add_link(a, b);
    EXPECT_EQ(t.node_count(), 2);
    EXPECT_EQ(t.link_count(), 1);
    EXPECT_TRUE(t.has_link(a, b));
    EXPECT_TRUE(t.has_link(b, a));
    EXPECT_DOUBLE_EQ(t.link(l).length_mm, 4.0);
    EXPECT_EQ(t.link(l).hop_span, 1);
}

TEST(Topology, RejectsSelfLoopAndDuplicates) {
    Topology t("t");
    const auto a = t.add_node({0, 0});
    const auto b = t.add_node({1, 0});
    EXPECT_THROW(t.add_link(a, a), std::invalid_argument);
    t.add_link(a, b);
    EXPECT_THROW(t.add_link(b, a), std::invalid_argument);
    EXPECT_THROW(t.add_link(a, static_cast<NodeId>(5)), std::out_of_range);
}

TEST(Topology, PortsExcludeLocalNi) {
    const Topology t = make_mesh(3, 3);
    // Corner router: 2 network ports; edge: 3; center: 4.
    EXPECT_EQ(t.ports(0), 2);
    EXPECT_EQ(t.ports(1), 3);
    EXPECT_EQ(t.ports(4), 4);
}

TEST(Topology, HopDistancesOnPath) {
    Topology t("chain");
    for (int i = 0; i < 5; ++i) t.add_node({i, 0});
    for (int i = 0; i + 1 < 5; ++i) t.add_link(i, i + 1);
    const auto d = t.hop_distances(0);
    for (int i = 0; i < 5; ++i) EXPECT_EQ(d[static_cast<std::size_t>(i)], i);
}

TEST(Mesh, CountsAndConnectivity) {
    const Topology t = make_mesh(10, 10);
    EXPECT_EQ(t.node_count(), 100);
    EXPECT_EQ(t.link_count(), 180);  // 2*w*h - w - h
    EXPECT_TRUE(t.connected());
    const auto ports = t.port_histogram();
    EXPECT_EQ(ports.at(2), 4u);    // corners
    EXPECT_EQ(ports.at(3), 32u);   // edges
    EXPECT_EQ(ports.at(4), 64u);   // interior
}

TEST(Mesh, AllLinksSingleHop) {
    const Topology t = make_mesh(6, 6);
    for (const auto& l : t.links()) EXPECT_EQ(l.hop_span, 1);
}

TEST(Torus, WrapLinksExist) {
    const Topology t = make_torus(5, 5);
    EXPECT_EQ(t.node_count(), 25);
    EXPECT_EQ(t.link_count(), 50);  // 2 per node on a torus
    EXPECT_TRUE(t.connected());
    // All routers are 4-ported on a torus.
    EXPECT_EQ(t.port_histogram().at(4), 25u);
    EXPECT_TRUE(t.has_link(0, 4));  // row wrap
    EXPECT_TRUE(t.has_link(0, 20));  // column wrap
}

TEST(Torus, FoldedWrapLength) {
    const Topology t = make_torus(5, 5, 4.0);
    for (const auto& l : t.links()) {
        if (l.hop_span > 1) {
            EXPECT_DOUBLE_EQ(l.length_mm, 8.0);
        }
    }
}

TEST(Kite, MostlyFourPortRoutersAndTwoHopLinks) {
    const Topology t = make_kite(10, 10);
    EXPECT_TRUE(t.connected());
    const auto ports = t.port_histogram();
    // Fig. 2(a): four-port routers are the most frequent with Kite.
    std::size_t mode = 0;
    for (std::size_t p = 1; p < ports.size(); ++p)
        if (ports.at(p) > ports.at(mode)) mode = p;
    EXPECT_EQ(mode, 4u);
    // Fig. 2(b): mainly two-hop links.
    const auto spans = t.link_span_histogram();
    EXPECT_GT(spans.at(2), spans.at(1));
}

TEST(Kite, SmallGridsConnected) {
    for (const int n : {3, 4, 5, 7}) {
        const Topology t = make_kite(n, n);
        EXPECT_TRUE(t.connected()) << n;
    }
}

TEST(Swap, RespectsDegreeBudgetMostly) {
    util::Rng rng(17);
    const Topology t = make_swap(10, 10, rng);
    EXPECT_TRUE(t.connected());
    const auto ports = t.port_histogram();
    // SWAP profile: 2-3 port routers dominate (serpentine backbone plus a
    // bounded number of shortcuts).
    EXPECT_GT(ports.at(2) + ports.at(3), 80u);
    for (const auto& n : t.nodes()) EXPECT_LE(t.ports(n.id), SwapConfig{}.max_degree);
}

TEST(Swap, HasSomeLongLinks) {
    util::Rng rng(17);
    const Topology t = make_swap(10, 10, rng);
    std::int32_t longest = 0;
    for (const auto& l : t.links()) longest = std::max(longest, l.hop_span);
    EXPECT_GE(longest, 3);  // the paper notes 4-5 hop links; at least long-range
}

TEST(Swap, FewerLinksThanMesh) {
    util::Rng rng(7);
    const Topology swap = make_swap(10, 10, rng);
    const Topology mesh = make_mesh(10, 10);
    EXPECT_LT(swap.link_count(), mesh.link_count());
}

TEST(Swap, DeterministicForSeed) {
    util::Rng r1(42);
    util::Rng r2(42);
    const Topology a = make_swap(8, 8, r1);
    const Topology b = make_swap(8, 8, r2);
    ASSERT_EQ(a.link_count(), b.link_count());
    for (std::int32_t i = 0; i < a.link_count(); ++i) {
        EXPECT_EQ(a.link(i).a, b.link(i).a);
        EXPECT_EQ(a.link(i).b, b.link(i).b);
    }
}

/// FNV-1a over every link's (a, b, hop_span) in link-id order.
std::uint64_t link_digest(const Topology& t) {
    std::uint64_t h = util::kFnvOffsetBasis;
    for (const Link& l : t.links())
        h = util::fnv1a(std::to_string(l.a) + "," + std::to_string(l.b) + "," +
                            std::to_string(l.hop_span) + ";",
                        h);
    return h;
}

struct SwapCase {
    std::int32_t width = 0;
    std::int32_t height = 0;
    std::uint64_t seed = 0;
    SwapConfig cfg;
};

/// The registry's 10x10, CI's 8x8 and fleet_parity's 6x6 at the default
/// swap_seed (13), then 24 configs drawn from a fixed-seed Rng.
std::vector<SwapCase> golden_swap_cases() {
    std::vector<SwapCase> cases{{10, 10, 13, {}}, {8, 8, 13, {}}, {6, 6, 13, {}}};
    util::Rng draw(2403);
    for (int i = 0; i < 24; ++i) {
        SwapCase c;
        c.width = static_cast<std::int32_t>(draw.range(2, 12));
        c.height = static_cast<std::int32_t>(draw.range(2, 12));
        c.seed = draw.next();
        c.cfg.sa_iters = static_cast<std::int32_t>(draw.range(0, 400));
        c.cfg.max_degree = static_cast<std::int32_t>(draw.range(3, 4));
        c.cfg.alpha = draw.uniform(1.3, 2.5);
        c.cfg.extra_link_frac = draw.uniform(0.1, 0.6);
        cases.push_back(c);
    }
    return cases;
}

// Recorded with the anneal that rebuilt a Topology and ran all-pairs BFS
// per move. `next` is the caller's next rng.below(2^32) after make_swap,
// so a changed number or order of RNG draws fails too.
TEST(Swap, MatchesParentGoldens) {
    struct Golden {
        std::uint64_t digest;
        std::uint64_t next;
    };
    const std::vector<Golden> goldens{
        {0x90f8daceebfc2e07ULL, 3784347733ULL},
        {0xeed9e517219bee51ULL, 2429646024ULL},
        {0x680dfdd49f0fe76dULL, 760142413ULL},
        {0xe79c9f6a535a10c1ULL, 107630945ULL},
        {0x059fbf9d0b048294ULL, 3847998733ULL},
        {0xae0c02ca14320158ULL, 2979797094ULL},
        {0x4e0417e8f346477eULL, 1221562053ULL},
        {0x785418eab2c29f17ULL, 351377287ULL},
        {0x0e61714f2d65030fULL, 2939979006ULL},
        {0x08ff04b584dc111fULL, 3019466862ULL},
        {0x655f461e069a8a87ULL, 3352780248ULL},
        {0xc9a1f399c2314eb2ULL, 2893205625ULL},
        {0x22f54102a47ffc58ULL, 3309939327ULL},
        {0xcecfc939de5899ecULL, 1348672515ULL},
        {0x1d08ff4779b65f58ULL, 2761482497ULL},
        {0x1ab0c847ffc9e64fULL, 3289337614ULL},
        {0x261304e8b6318f1dULL, 2657289118ULL},
        {0xc8a3fb7828d3f18cULL, 2563060919ULL},
        {0xe8205aea64fc1c8aULL, 1967018414ULL},
        {0x3829c5f0c26eb2cdULL, 2515279476ULL},
        {0x8c0c4cc5b17aae1bULL, 214297229ULL},
        {0xf85c3bff8358b616ULL, 3718255984ULL},
        {0x39503130503221cdULL, 2324852116ULL},
        {0x2e8078914a3f572cULL, 1551052517ULL},
        {0x84c19bcb1d723159ULL, 2859009637ULL},
        {0x0ed4e39c05f9e00fULL, 327576387ULL},
        {0x56c19cc8af4ead82ULL, 1460416127ULL},
    };
    const auto cases = golden_swap_cases();
    ASSERT_EQ(cases.size(), goldens.size());
    for (std::size_t i = 0; i < cases.size(); ++i) {
        const SwapCase& c = cases[i];
        util::Rng rng(c.seed);
        const Topology t = make_swap(c.width, c.height, rng, c.cfg);
        const std::uint64_t next = rng.below(std::uint64_t{1} << 32);
        EXPECT_EQ(link_digest(t), goldens[i].digest)
            << "case " << i << ": " << c.width << "x" << c.height;
        EXPECT_EQ(next, goldens[i].next) << "case " << i;
    }
}

TEST(Mesh3d, StructureAndVerticalLinks) {
    const Topology t = make_mesh3d(5, 5, 4);
    EXPECT_EQ(t.node_count(), 100);
    EXPECT_TRUE(t.connected());
    // links: per tier 2*5*5-5-5=40, x4 tiers = 160; vertical 25*3 = 75.
    EXPECT_EQ(t.link_count(), 235);
    // Vertical links are much shorter than lateral ones (MIV/TSV).
    std::int32_t vertical = 0;
    for (const auto& l : t.links()) {
        if (t.node(l.a).tier != t.node(l.b).tier) {
            ++vertical;
            EXPECT_LT(l.length_mm, 0.1);
        }
    }
    EXPECT_EQ(vertical, 75);
}

TEST(PathTopology, BuildsChainsAndExpress) {
    const std::vector<std::vector<NodeId>> paths{{0, 1, 2}, {3, 4, 5}};
    const std::vector<std::pair<NodeId, NodeId>> express{{2, 3}};
    const Topology t = make_path_topology("p", 3, 2, paths, express);
    EXPECT_EQ(t.node_count(), 6);
    EXPECT_EQ(t.link_count(), 5);
    EXPECT_TRUE(t.connected());
}

TEST(PathTopology, DeduplicatesSharedEdges) {
    const std::vector<std::vector<NodeId>> paths{{0, 1, 2}, {2, 1}};
    const Topology t = make_path_topology("p", 3, 1, paths, {});
    EXPECT_EQ(t.link_count(), 2);
}

class MeshSizes : public ::testing::TestWithParam<std::tuple<std::int32_t, std::int32_t>> {};

TEST_P(MeshSizes, LinkCountFormulaAndConnectivity) {
    const auto [w, h] = GetParam();
    const Topology t = make_mesh(w, h);
    EXPECT_EQ(t.link_count(), 2 * w * h - w - h);
    EXPECT_TRUE(t.connected());
    for (const auto& n : t.nodes()) {
        EXPECT_GE(t.ports(n.id), (w == 1 || h == 1) ? 1 : 2);
        EXPECT_LE(t.ports(n.id), 4);
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MeshSizes,
                         ::testing::Values(std::tuple{2, 2}, std::tuple{3, 5},
                                           std::tuple{6, 6}, std::tuple{10, 10},
                                           std::tuple{12, 8}, std::tuple{1, 7}));

class SwapSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SwapSeeds, AlwaysConnectedWithinBudget) {
    util::Rng rng(GetParam());
    SwapConfig cfg;
    cfg.sa_iters = 50;  // keep the sweep fast
    const Topology t = make_swap(8, 8, rng, cfg);
    EXPECT_TRUE(t.connected());
    EXPECT_LT(t.link_count(), 2 * 64 - 16);  // fewer links than the mesh
    for (const auto& n : t.nodes()) EXPECT_LE(t.ports(n.id), cfg.max_degree);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SwapSeeds, ::testing::Values(1, 2, 3, 5, 8, 13));

}  // namespace
}  // namespace floretsim::topo
