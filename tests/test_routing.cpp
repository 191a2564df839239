#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <utility>

#include "src/core/floret.h"
#include "src/core/sfc.h"
#include "src/noc/routing.h"
#include "src/noc/simulator.h"
#include "src/topo/kite.h"
#include "src/topo/mesh.h"
#include "src/topo/swap.h"

namespace floretsim::noc {
namespace {

using topo::NodeId;

/// A route must be a walk along existing links from src to dst.
void expect_valid_route(const topo::Topology& t, const std::vector<NodeId>& route,
                        NodeId src, NodeId dst) {
    ASSERT_FALSE(route.empty());
    EXPECT_EQ(route.front(), src);
    EXPECT_EQ(route.back(), dst);
    for (std::size_t i = 1; i < route.size(); ++i)
        EXPECT_TRUE(t.has_link(route[i - 1], route[i]))
            << route[i - 1] << "->" << route[i];
}

TEST(Routing, ShortestPathOnMeshMatchesManhattan) {
    const auto t = topo::make_mesh(6, 6);
    const auto rt = RouteTable::build(t, RoutingPolicy::kShortestPath);
    ASSERT_TRUE(rt.complete());
    for (NodeId s = 0; s < t.node_count(); ++s) {
        for (NodeId d = 0; d < t.node_count(); ++d) {
            const auto hops = rt.hops(s, d);
            const auto expect = util::manhattan(t.node(s).pos, t.node(d).pos);
            EXPECT_EQ(hops, expect) << s << "->" << d;
        }
    }
}

TEST(Routing, RoutesAreValidWalks) {
    const auto t = topo::make_mesh(5, 5);
    const auto rt = RouteTable::build(t, RoutingPolicy::kShortestPath);
    for (NodeId s = 0; s < t.node_count(); ++s)
        for (NodeId d = 0; d < t.node_count(); ++d)
            if (s != d) expect_valid_route(t, rt.route(s, d), s, d);
}

TEST(Routing, SelfRouteIsTrivial) {
    const auto t = topo::make_mesh(3, 3);
    const auto rt = RouteTable::build(t, RoutingPolicy::kUpDown);
    for (NodeId n = 0; n < t.node_count(); ++n) {
        EXPECT_EQ(rt.route(n, n).size(), 1u);
        EXPECT_EQ(rt.hops(n, n), 0);
    }
}

TEST(Routing, UpDownCompleteOnIrregularGraphs) {
    util::Rng rng(5);
    const auto swap = topo::make_swap(8, 8, rng);
    const auto rt = RouteTable::build(swap, RoutingPolicy::kUpDown);
    EXPECT_TRUE(rt.complete());
    for (NodeId s = 0; s < swap.node_count(); s += 7)
        for (NodeId d = 0; d < swap.node_count(); d += 5)
            if (s != d) expect_valid_route(swap, rt.route(s, d), s, d);
}

TEST(Routing, UpDownNeverTurnsBackUp) {
    // Validate the up*/down* invariant: once a route takes a "down" move
    // (toward higher BFS level from the root), it never goes "up" again.
    const auto t = topo::make_kite(8, 8);
    const auto rt = RouteTable::build(t, RoutingPolicy::kUpDown, /*root=*/0);
    const auto level = t.hop_distances(0);
    for (NodeId s = 0; s < t.node_count(); ++s) {
        for (NodeId d = 0; d < t.node_count(); ++d) {
            const auto& route = rt.route(s, d);
            bool went_down = false;
            for (std::size_t i = 1; i < route.size(); ++i) {
                const auto from = route[i - 1];
                const auto to = route[i];
                const bool up =
                    level[static_cast<std::size_t>(to)] < level[static_cast<std::size_t>(from)] ||
                    (level[static_cast<std::size_t>(to)] == level[static_cast<std::size_t>(from)] &&
                     to < from);
                if (up) {
                    EXPECT_FALSE(went_down) << "up after down " << s << "->" << d;
                } else {
                    went_down = true;
                }
            }
        }
    }
}

TEST(Routing, UpDownAtMostModeratelyLongerThanShortest) {
    const auto t = topo::make_mesh(8, 8);
    const auto sp = RouteTable::build(t, RoutingPolicy::kShortestPath);
    const auto ud = RouteTable::build(t, RoutingPolicy::kUpDown);
    EXPECT_GE(ud.mean_hops(), sp.mean_hops());
    EXPECT_LT(ud.mean_hops(), 1.8 * sp.mean_hops());
}

TEST(Routing, MeanHopsReasonableOnMesh) {
    const auto t = topo::make_mesh(10, 10);
    const auto rt = RouteTable::build(t, RoutingPolicy::kShortestPath);
    // Mean Manhattan distance on a 10x10 grid = 2*(n^2-1)/(3n) = 6.6.
    EXPECT_NEAR(rt.mean_hops(), 6.6667, 0.05);
}

TEST(Routing, FloretRoutesComplete) {
    const auto set = core::generate_sfc_set(10, 10, 4);
    const auto t = core::make_floret(set);
    const auto rt = RouteTable::build(t, RoutingPolicy::kUpDown);
    EXPECT_TRUE(rt.complete());
    for (NodeId s = 0; s < t.node_count(); s += 9)
        for (NodeId d = 0; d < t.node_count(); d += 11)
            if (s != d) expect_valid_route(t, rt.route(s, d), s, d);
}

TEST(Routing, FloretConsecutiveSfcNodesAreOneHop) {
    const auto set = core::generate_sfc_set(10, 10, 4);
    const auto t = core::make_floret(set);
    const auto rt = RouteTable::build(t, RoutingPolicy::kUpDown);
    for (const auto& sfc : set.sfcs)
        for (std::size_t i = 1; i < sfc.path.size(); ++i)
            EXPECT_EQ(rt.hops(sfc.path[i - 1], sfc.path[i]), 1);
}

TEST(Routing, MismatchedTopologyRejectedBySimulator) {
    const auto t1 = topo::make_mesh(3, 3);
    const auto t2 = topo::make_mesh(4, 4);
    const auto rt = RouteTable::build(t1, RoutingPolicy::kShortestPath);
    EXPECT_THROW(Simulator(t2, rt, SimConfig{}), std::invalid_argument);
}

/// The route table as it was built before each node's neighbours were
/// sorted once per build: every BFS pop copies and sorts the node's
/// adjacency list, and each up*/down* path is reversed out of its parent
/// chain. Routes are indexed src * n + dst. The fast build must match it
/// route for route.
std::vector<std::vector<NodeId>> copy_and_sort_routes(const topo::Topology& t,
                                                      RoutingPolicy policy,
                                                      NodeId root) {
    const auto n = static_cast<std::size_t>(t.node_count());
    std::vector<std::vector<NodeId>> routes(n * n);
    if (policy == RoutingPolicy::kShortestPath) {
        for (NodeId dst = 0; dst < t.node_count(); ++dst) {
            std::vector<NodeId> parent(n, -1);
            std::vector<std::int32_t> dist(n, -1);
            std::queue<NodeId> q;
            dist[static_cast<std::size_t>(dst)] = 0;
            q.push(dst);
            while (!q.empty()) {
                const NodeId cur = q.front();
                q.pop();
                auto nbrs = t.adjacency(cur);
                std::sort(nbrs.begin(), nbrs.end());
                for (const auto& [nbr, lid] : nbrs) {
                    if (dist[static_cast<std::size_t>(nbr)] < 0) {
                        dist[static_cast<std::size_t>(nbr)] =
                            dist[static_cast<std::size_t>(cur)] + 1;
                        parent[static_cast<std::size_t>(nbr)] = cur;
                        q.push(nbr);
                    }
                }
            }
            for (NodeId src = 0; src < t.node_count(); ++src) {
                auto& route = routes[static_cast<std::size_t>(src) * n +
                                     static_cast<std::size_t>(dst)];
                if (dist[static_cast<std::size_t>(src)] < 0) continue;
                for (NodeId cur = src; cur != dst;
                     cur = parent[static_cast<std::size_t>(cur)])
                    route.push_back(cur);
                route.push_back(dst);
            }
        }
        return routes;
    }
    const auto level = t.hop_distances(root);
    const auto is_up = [&](NodeId from, NodeId to) {
        const auto lf = level[static_cast<std::size_t>(from)];
        const auto lt = level[static_cast<std::size_t>(to)];
        return lt < lf || (lt == lf && to < from);
    };
    for (NodeId src = 0; src < t.node_count(); ++src) {
        std::vector<std::int32_t> dist(n * 2, -1);
        std::vector<std::int32_t> prev(n * 2, -1);
        std::queue<std::int32_t> q;
        dist[static_cast<std::size_t>(src) * 2] = 0;
        q.push(src * 2);
        while (!q.empty()) {
            const std::int32_t st = q.front();
            q.pop();
            const NodeId cur = st / 2;
            const std::int32_t phase = st % 2;
            auto nbrs = t.adjacency(cur);
            std::sort(nbrs.begin(), nbrs.end());
            for (const auto& [nbr, lid] : nbrs) {
                const bool up = is_up(cur, nbr);
                if (phase == 1 && up) continue;
                const std::int32_t nst = nbr * 2 + (up ? phase : 1);
                if (dist[static_cast<std::size_t>(nst)] < 0) {
                    dist[static_cast<std::size_t>(nst)] =
                        dist[static_cast<std::size_t>(st)] + 1;
                    prev[static_cast<std::size_t>(nst)] = st;
                    q.push(nst);
                }
            }
        }
        for (NodeId dst = 0; dst < t.node_count(); ++dst) {
            auto& route = routes[static_cast<std::size_t>(src) * n +
                                 static_cast<std::size_t>(dst)];
            if (src == dst) {
                route = {src};
                continue;
            }
            std::int32_t best = -1;
            for (const std::int32_t phase : {0, 1}) {
                const std::int32_t st = dst * 2 + phase;
                if (dist[static_cast<std::size_t>(st)] < 0) continue;
                if (best < 0 || dist[static_cast<std::size_t>(st)] <
                                    dist[static_cast<std::size_t>(best)])
                    best = st;
            }
            if (best < 0) continue;
            std::vector<NodeId> rev;
            for (std::int32_t st = best; st >= 0;
                 st = prev[static_cast<std::size_t>(st)])
                rev.push_back(st / 2);
            std::reverse(rev.begin(), rev.end());
            route = std::move(rev);
        }
    }
    return routes;
}

void expect_matches_oracle(const topo::Topology& t, NodeId root) {
    const auto n = static_cast<std::size_t>(t.node_count());
    for (const RoutingPolicy policy :
         {RoutingPolicy::kShortestPath, RoutingPolicy::kUpDown}) {
        const auto rt = RouteTable::build(t, policy, root);
        const auto want = copy_and_sort_routes(t, policy, root);
        for (NodeId s = 0; s < t.node_count(); ++s)
            for (NodeId d = 0; d < t.node_count(); ++d)
                ASSERT_EQ(rt.route(s, d),
                          want[static_cast<std::size_t>(s) * n +
                               static_cast<std::size_t>(d)])
                    << t.name() << " policy " << static_cast<int>(policy)
                    << " root " << root << ": " << s << "->" << d;
    }
}

TEST(Routing, BuildMatchesCopyAndSortOracle) {
    // Seeded random connected graphs: a random spanning tree plus extra
    // links, all added in shuffled order so adjacency lists are unsorted.
    util::Rng rng(2024);
    for (int graph = 0; graph < 60; ++graph) {
        const auto n = static_cast<NodeId>(2 + rng.below(39));  // 2..40
        topo::Topology t("random" + std::to_string(graph));
        for (NodeId i = 0; i < n; ++i)
            (void)t.add_node({static_cast<std::int32_t>(rng.below(8)),
                              static_cast<std::int32_t>(rng.below(8))});
        std::vector<NodeId> order(static_cast<std::size_t>(n));
        for (NodeId i = 0; i < n; ++i) order[static_cast<std::size_t>(i)] = i;
        const auto shuffle = [&](auto& v) {
            for (std::size_t i = v.size(); i > 1; --i)
                std::swap(v[i - 1], v[rng.below(i)]);
        };
        shuffle(order);
        std::vector<std::pair<NodeId, NodeId>> links;
        for (std::size_t i = 1; i < order.size(); ++i)
            links.emplace_back(order[i], order[rng.below(i)]);
        const auto extra = rng.below(static_cast<std::uint64_t>(n) * 2);
        for (std::uint64_t k = 0; k < extra; ++k) {
            const auto a = static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(n)));
            const auto b = static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(n)));
            const bool dup = std::any_of(links.begin(), links.end(), [&](const auto& l) {
                return (l.first == a && l.second == b) || (l.first == b && l.second == a);
            });
            if (a != b && !dup) links.emplace_back(a, b);
        }
        shuffle(links);
        for (const auto& [a, b] : links) (void)t.add_link(a, b);
        ASSERT_TRUE(t.connected());
        expect_matches_oracle(
            t, static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(n))));
    }
    // The paper's fabrics, rooted at a corner and at the grid centre.
    util::Rng swap_rng(3);
    const auto kite = topo::make_kite(8, 8);
    const auto mesh = topo::make_mesh(8, 8);
    const auto swap = topo::make_swap(8, 8, swap_rng);
    const auto floret = core::make_floret(core::generate_sfc_set(8, 8, 4));
    for (const auto* t : {&kite, &mesh, &swap, &floret})
        for (const NodeId root : {0, 27}) expect_matches_oracle(*t, root);
}

class RoutingBothPolicies : public ::testing::TestWithParam<RoutingPolicy> {};

TEST_P(RoutingBothPolicies, CompleteOnAllArchitectures) {
    util::Rng rng(11);
    const auto mesh = topo::make_mesh(6, 6);
    const auto kite = topo::make_kite(6, 6);
    const auto swap = topo::make_swap(6, 6, rng);
    const auto floret = core::make_floret(core::generate_sfc_set(6, 6, 6));
    for (const auto* t : {&mesh, &kite, &swap, &floret}) {
        const auto rt = RouteTable::build(*t, GetParam());
        EXPECT_TRUE(rt.complete()) << t->name();
    }
}

INSTANTIATE_TEST_SUITE_P(Policies, RoutingBothPolicies,
                         ::testing::Values(RoutingPolicy::kShortestPath,
                                           RoutingPolicy::kUpDown));

}  // namespace
}  // namespace floretsim::noc
