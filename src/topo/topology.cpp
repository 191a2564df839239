#include "src/topo/topology.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <queue>
#include <stdexcept>

namespace floretsim::topo {

NodeId Topology::add_node(util::Point2 pos, std::int32_t tier) {
    Node n;
    n.id = static_cast<NodeId>(nodes_.size());
    n.pos = pos;
    n.tier = tier;
    nodes_.push_back(n);
    adj_.emplace_back();
    return n.id;
}

LinkId Topology::add_link(NodeId a, NodeId b) {
    const auto span = util::manhattan(node(a).pos, node(b).pos) +
                      std::abs(node(a).tier - node(b).tier);
    return add_link(a, b, span * pitch_mm_);
}

LinkId Topology::add_link(NodeId a, NodeId b, double length_mm) {
    if (a == b) throw std::invalid_argument("self-loop link on node " + std::to_string(a));
    if (a < 0 || b < 0 || a >= node_count() || b >= node_count())
        throw std::out_of_range("link endpoint out of range");
    if (has_link(a, b))
        throw std::invalid_argument("duplicate link " + std::to_string(a) + "-" +
                                    std::to_string(b));
    Link l;
    l.id = static_cast<LinkId>(links_.size());
    l.a = a;
    l.b = b;
    l.length_mm = length_mm;
    l.hop_span = util::manhattan(node(a).pos, node(b).pos) +
                 std::abs(node(a).tier - node(b).tier);
    links_.push_back(l);
    adj_[static_cast<std::size_t>(a)].emplace_back(b, l.id);
    adj_[static_cast<std::size_t>(b)].emplace_back(a, l.id);
    return l.id;
}

bool Topology::has_link(NodeId a, NodeId b) const noexcept {
    if (a < 0 || a >= node_count()) return false;
    for (const auto& [nbr, lid] : adj_[static_cast<std::size_t>(a)])
        if (nbr == b) return true;
    return false;
}

util::Histogram Topology::port_histogram() const {
    util::Histogram h;
    for (const Node& n : nodes_) h.add(static_cast<std::size_t>(ports(n.id)));
    return h;
}

util::Histogram Topology::link_span_histogram() const {
    util::Histogram h;
    for (const Link& l : links_) h.add(static_cast<std::size_t>(l.hop_span));
    return h;
}

bool Topology::connected() const {
    if (nodes_.empty()) return true;
    const auto dist = hop_distances(0);
    for (const auto d : dist)
        if (d < 0) return false;
    return true;
}

std::vector<std::int32_t> Topology::hop_distances(NodeId src) const {
    std::vector<std::int32_t> dist(nodes_.size(), -1);
    std::queue<NodeId> q;
    dist[static_cast<std::size_t>(src)] = 0;
    q.push(src);
    while (!q.empty()) {
        const NodeId cur = q.front();
        q.pop();
        for (const auto& [nbr, lid] : adj_[static_cast<std::size_t>(cur)]) {
            if (dist[static_cast<std::size_t>(nbr)] < 0) {
                dist[static_cast<std::size_t>(nbr)] =
                    dist[static_cast<std::size_t>(cur)] + 1;
                q.push(nbr);
            }
        }
    }
    return dist;
}

void Topology::set_region_hint(std::vector<std::int32_t> hint) {
    if (static_cast<std::int32_t>(hint.size()) != node_count())
        throw std::invalid_argument("region hint size " +
                                    std::to_string(hint.size()) + " != node count " +
                                    std::to_string(node_count()));
    for (const auto r : hint)
        if (r < 0) throw std::invalid_argument("negative region hint id");
    region_hint_ = std::move(hint);
}

RegionMap make_region_map(const Topology& t) {
    RegionMap m;
    const auto n = t.node_count();
    if (n == 0) return m;
    m.region_of.assign(static_cast<std::size_t>(n), 0);

    std::vector<std::int32_t> raw;
    if (!t.region_hint().empty()) {
        raw = t.region_hint();
    } else {
        // Spatial tiling: rx x ry rectangle tiles over the position
        // bounding box, shaped to the box's aspect ratio. Tiers fold into
        // the same tile (a 3D stack's column is one locality unit).
        std::int32_t min_x = t.node(0).pos.x, max_x = min_x;
        std::int32_t min_y = t.node(0).pos.y, max_y = min_y;
        for (const Node& nd : t.nodes()) {
            min_x = std::min(min_x, nd.pos.x);
            max_x = std::max(max_x, nd.pos.x);
            min_y = std::min(min_y, nd.pos.y);
            max_y = std::max(max_y, nd.pos.y);
        }
        const std::int32_t w = max_x - min_x + 1;
        const std::int32_t h = max_y - min_y + 1;
        const std::int32_t target = std::clamp<std::int32_t>(n / 8, 1, 64);
        std::int32_t rx = std::clamp<std::int32_t>(
            static_cast<std::int32_t>(std::lround(
                std::sqrt(static_cast<double>(target) * w / h))),
            1, w);
        const std::int32_t ry =
            std::clamp<std::int32_t>((target + rx - 1) / rx, 1, h);
        rx = std::clamp<std::int32_t>((target + ry - 1) / ry, 1, w);
        const std::int32_t tile_w = (w + rx - 1) / rx;
        const std::int32_t tile_h = (h + ry - 1) / ry;
        raw.resize(static_cast<std::size_t>(n));
        for (const Node& nd : t.nodes())
            raw[static_cast<std::size_t>(nd.id)] =
                ((nd.pos.y - min_y) / tile_h) * rx + (nd.pos.x - min_x) / tile_w;
    }

    // Densify ids in first-seen node order so downstream indexing is [0, count).
    std::map<std::int32_t, std::int32_t> dense;
    for (NodeId i = 0; i < n; ++i) {
        const auto [it, fresh] =
            dense.emplace(raw[static_cast<std::size_t>(i)], m.count);
        if (fresh) ++m.count;
        m.region_of[static_cast<std::size_t>(i)] = it->second;
    }
    return m;
}

Topology make_path_topology(const std::string& name, std::int32_t width,
                            std::int32_t height,
                            const std::vector<std::vector<NodeId>>& paths,
                            const std::vector<std::pair<NodeId, NodeId>>& express,
                            double pitch_mm) {
    Topology t(name, pitch_mm);
    for (std::int32_t y = 0; y < height; ++y)
        for (std::int32_t x = 0; x < width; ++x) t.add_node(util::Point2{x, y});

    for (const auto& path : paths) {
        for (std::size_t i = 1; i < path.size(); ++i) {
            if (!t.has_link(path[i - 1], path[i])) t.add_link(path[i - 1], path[i]);
        }
    }
    for (const auto& [a, b] : express) {
        if (!t.has_link(a, b)) t.add_link(a, b);
    }
    return t;
}

}  // namespace floretsim::topo
