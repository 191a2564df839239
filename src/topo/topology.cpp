#include "src/topo/topology.h"

#include <cmath>
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
