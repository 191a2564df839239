#include "src/noc/routing.h"

#include <algorithm>
#include <limits>
#include <map>
#include <stdexcept>
#include <tuple>

namespace floretsim::noc {
namespace {

using topo::NodeId;

/// Node nearest the centroid of all node positions (tie: lowest id).
NodeId central_node(const topo::Topology& t) {
    double cx = 0.0;
    double cy = 0.0;
    for (const auto& n : t.nodes()) {
        cx += n.pos.x;
        cy += n.pos.y;
    }
    cx /= std::max(1, t.node_count());
    cy /= std::max(1, t.node_count());
    NodeId best = 0;
    double best_d = std::numeric_limits<double>::max();
    for (const auto& n : t.nodes()) {
        const double dx = n.pos.x - cx;
        const double dy = n.pos.y - cy;
        const double d = dx * dx + dy * dy;
        if (d < best_d) {
            best_d = d;
            best = n.id;
        }
    }
    return best;
}

/// BFS levels from the root (spanning-tree depth for up*/down*).
std::vector<std::int32_t> bfs_levels(const topo::Topology& t, NodeId root) {
    return t.hop_distances(root);
}

/// "Up" direction: toward (lower level, lower id). Every link has exactly
/// one up end, so the orientation is a DAG and up-then-down paths exist
/// between all pairs (via the root in the worst case).
bool is_up_move(const std::vector<std::int32_t>& level, NodeId from, NodeId to) {
    const auto lf = level[static_cast<std::size_t>(from)];
    const auto lt = level[static_cast<std::size_t>(to)];
    return lt < lf || (lt == lf && to < from);
}

/// Every node's neighbour ids in ascending order, sorted once per build:
/// the BFS visit order that breaks ties toward the lowest neighbour id.
std::vector<std::vector<NodeId>> sorted_neighbours(const topo::Topology& t) {
    std::vector<std::vector<NodeId>> nbrs(static_cast<std::size_t>(t.node_count()));
    for (NodeId n = 0; n < t.node_count(); ++n) {
        auto& ids = nbrs[static_cast<std::size_t>(n)];
        for (const auto& [nbr, lid] : t.adjacency(n)) ids.push_back(nbr);
        std::sort(ids.begin(), ids.end());
    }
    return nbrs;
}

}  // namespace

RouteTable RouteTable::build(const topo::Topology& t, RoutingPolicy policy,
                             topo::NodeId root) {
    RouteTable rt;
    rt.n_ = t.node_count();
    rt.routes_.assign(static_cast<std::size_t>(rt.n_) * static_cast<std::size_t>(rt.n_), {});

    if (policy == RoutingPolicy::kXY) {
        // Node lookup by (x, y, tier).
        std::map<std::tuple<std::int32_t, std::int32_t, std::int32_t>, NodeId> at;
        for (const auto& node : t.nodes())
            at[{node.pos.x, node.pos.y, node.tier}] = node.id;
        auto step = [&](NodeId cur, std::int32_t dx, std::int32_t dy,
                        std::int32_t dz) -> NodeId {
            const auto& n = t.node(cur);
            const auto it = at.find({n.pos.x + dx, n.pos.y + dy, n.tier + dz});
            if (it == at.end() || !t.has_link(cur, it->second))
                throw std::invalid_argument(
                    "XY routing requires a mesh-structured topology: missing link at "
                    "node " + std::to_string(cur));
            return it->second;
        };
        for (NodeId src = 0; src < rt.n_; ++src) {
            for (NodeId dst = 0; dst < rt.n_; ++dst) {
                auto& route = rt.routes_[rt.index(src, dst)];
                route = {src};
                NodeId cur = src;
                while (cur != dst) {
                    const auto& c = t.node(cur);
                    const auto& d = t.node(dst);
                    if (c.pos.x != d.pos.x)
                        cur = step(cur, c.pos.x < d.pos.x ? 1 : -1, 0, 0);
                    else if (c.pos.y != d.pos.y)
                        cur = step(cur, 0, c.pos.y < d.pos.y ? 1 : -1, 0);
                    else
                        cur = step(cur, 0, 0, c.tier < d.tier ? 1 : -1);
                    route.push_back(cur);
                }
            }
        }
        return rt;
    }

    const auto nbrs = sorted_neighbours(t);
    const auto n = static_cast<std::size_t>(rt.n_);
    if (policy == RoutingPolicy::kShortestPath) {
        // BFS from every destination, recording parent pointers toward it;
        // ties broken toward the lowest neighbor id for determinism. The
        // buffers serve every destination in turn.
        std::vector<NodeId> parent(n);
        std::vector<std::int32_t> dist(n);
        std::vector<NodeId> queue(n);
        for (NodeId dst = 0; dst < rt.n_; ++dst) {
            std::fill(dist.begin(), dist.end(), -1);
            dist[static_cast<std::size_t>(dst)] = 0;
            std::size_t head = 0, tail = 0;
            queue[tail++] = dst;
            while (head < tail) {
                const NodeId cur = queue[head++];
                for (const NodeId nbr : nbrs[static_cast<std::size_t>(cur)]) {
                    if (dist[static_cast<std::size_t>(nbr)] < 0) {
                        dist[static_cast<std::size_t>(nbr)] =
                            dist[static_cast<std::size_t>(cur)] + 1;
                        parent[static_cast<std::size_t>(nbr)] = cur;
                        queue[tail++] = nbr;
                    }
                }
            }
            for (NodeId src = 0; src < rt.n_; ++src) {
                const std::int32_t d = dist[static_cast<std::size_t>(src)];
                if (d < 0) continue;  // unreachable
                auto& route = rt.routes_[rt.index(src, dst)];
                route.resize(static_cast<std::size_t>(d) + 1);
                NodeId cur = src;
                for (auto& hop : route) {
                    hop = cur;
                    cur = parent[static_cast<std::size_t>(cur)];
                }
            }
        }
        return rt;
    }

    // Up*/down*: BFS over the state graph (node, has-gone-down), whose
    // buffers serve every source in turn.
    const NodeId r = root >= 0 ? root : central_node(t);
    const auto level = bfs_levels(t, r);
    // State: node * 2 + phase (0 = still ascending, 1 = descending).
    std::vector<std::int32_t> dist(n * 2);
    std::vector<std::int32_t> prev(n * 2);  // previous state index
    std::vector<std::int32_t> queue(n * 2);
    for (NodeId src = 0; src < rt.n_; ++src) {
        std::fill(dist.begin(), dist.end(), -1);
        const std::int32_t start = static_cast<std::int32_t>(src) * 2;
        dist[static_cast<std::size_t>(start)] = 0;
        std::size_t head = 0, tail = 0;
        queue[tail++] = start;
        while (head < tail) {
            const std::int32_t st = queue[head++];
            const NodeId cur = st / 2;
            const std::int32_t phase = st % 2;
            for (const NodeId nbr : nbrs[static_cast<std::size_t>(cur)]) {
                const bool up = is_up_move(level, cur, nbr);
                if (phase == 1 && up) continue;  // down -> up forbidden
                const std::int32_t nphase = up ? phase : 1;
                const std::int32_t nst = static_cast<std::int32_t>(nbr) * 2 + nphase;
                if (dist[static_cast<std::size_t>(nst)] < 0) {
                    dist[static_cast<std::size_t>(nst)] =
                        dist[static_cast<std::size_t>(st)] + 1;
                    prev[static_cast<std::size_t>(nst)] = st;
                    queue[tail++] = nst;
                }
            }
        }
        for (NodeId dst = 0; dst < rt.n_; ++dst) {
            // Prefer the shorter of the two terminal phases (src == dst
            // ends in phase 0 at distance 0: the route [src]).
            std::int32_t best_state = -1;
            for (const std::int32_t phase : {0, 1}) {
                const std::int32_t st = static_cast<std::int32_t>(dst) * 2 + phase;
                if (dist[static_cast<std::size_t>(st)] < 0) continue;
                if (best_state < 0 || dist[static_cast<std::size_t>(st)] <
                                          dist[static_cast<std::size_t>(best_state)])
                    best_state = st;
            }
            if (best_state < 0) continue;  // unreachable
            // Walk the prev chain back from dst, writing the path in place.
            auto& route = rt.routes_[rt.index(src, dst)];
            route.resize(static_cast<std::size_t>(
                             dist[static_cast<std::size_t>(best_state)]) + 1);
            std::int32_t st = best_state;
            for (auto hop = route.rbegin(); hop != route.rend(); ++hop) {
                *hop = st / 2;
                st = prev[static_cast<std::size_t>(st)];
            }
        }
    }
    return rt;
}

double RouteTable::mean_hops() const {
    double total = 0.0;
    std::int64_t pairs = 0;
    for (std::int32_t s = 0; s < n_; ++s) {
        for (std::int32_t d = 0; d < n_; ++d) {
            if (s == d) continue;
            const auto& r = routes_[index(s, d)];
            if (r.empty()) continue;
            total += static_cast<double>(r.size()) - 1.0;
            ++pairs;
        }
    }
    return pairs > 0 ? total / static_cast<double>(pairs) : 0.0;
}

bool RouteTable::complete() const {
    for (std::int32_t s = 0; s < n_; ++s)
        for (std::int32_t d = 0; d < n_; ++d)
            if (routes_[index(s, d)].empty()) return false;
    return true;
}

}  // namespace floretsim::noc
