#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/util/geometry.h"
#include "src/util/stats.h"

namespace floretsim::topo {

using NodeId = std::int32_t;
using LinkId = std::int32_t;

/// One chiplet/PE site with its router. `pos` is the grid coordinate on
/// the interposer (or within a tier for 3D; `tier` disambiguates).
struct Node {
    NodeId id = -1;
    util::Point2 pos;
    std::int32_t tier = 0;  ///< 0 for 2.5D; tier index for 3D stacks.
};

/// Bidirectional inter-router link. `length_mm` drives link delay, energy,
/// and area; `hop_span` is the Manhattan span in grid pitches (the paper's
/// "one-hop/two-hop link" classification in Fig. 2b).
struct Link {
    LinkId id = -1;
    NodeId a = -1;
    NodeId b = -1;
    double length_mm = 0.0;
    std::int32_t hop_span = 1;
};

/// An interconnect graph with physical placement. This is the common
/// substrate for every NoI/NoC in the paper (SIAM mesh, Kite, SWAP,
/// Floret, 3D mesh): generators differ only in which links they create.
class Topology {
public:
    /// `pitch_mm` is the center-to-center chiplet spacing used to convert
    /// grid spans to physical link lengths.
    Topology(std::string name, double pitch_mm = 4.0)
        : name_(std::move(name)), pitch_mm_(pitch_mm) {}

    /// Adds a node at the given grid position (and tier). Returns its id.
    NodeId add_node(util::Point2 pos, std::int32_t tier = 0);

    /// Adds an undirected link; length defaults to Manhattan span x pitch.
    /// Self-loops and duplicate links are rejected (std::invalid_argument).
    LinkId add_link(NodeId a, NodeId b);
    LinkId add_link(NodeId a, NodeId b, double length_mm);

    [[nodiscard]] bool has_link(NodeId a, NodeId b) const noexcept;

    [[nodiscard]] const std::string& name() const noexcept { return name_; }
    [[nodiscard]] double pitch_mm() const noexcept { return pitch_mm_; }
    [[nodiscard]] std::int32_t node_count() const noexcept {
        return static_cast<std::int32_t>(nodes_.size());
    }
    [[nodiscard]] std::int32_t link_count() const noexcept {
        return static_cast<std::int32_t>(links_.size());
    }
    [[nodiscard]] const std::vector<Node>& nodes() const noexcept { return nodes_; }
    [[nodiscard]] const std::vector<Link>& links() const noexcept { return links_; }
    [[nodiscard]] const Node& node(NodeId id) const { return nodes_.at(static_cast<std::size_t>(id)); }
    [[nodiscard]] const Link& link(LinkId id) const { return links_.at(static_cast<std::size_t>(id)); }

    /// Neighbors of `n` as (node, link) pairs.
    [[nodiscard]] const std::vector<std::pair<NodeId, LinkId>>& adjacency(NodeId n) const {
        return adj_.at(static_cast<std::size_t>(n));
    }

    /// Router network-port count of `n` (degree; the local NI port is not
    /// counted, matching the paper's Fig. 2a convention).
    [[nodiscard]] std::int32_t ports(NodeId n) const {
        return static_cast<std::int32_t>(adj_.at(static_cast<std::size_t>(n)).size());
    }

    /// Histogram of router port counts across all nodes (Fig. 2a).
    [[nodiscard]] util::Histogram port_histogram() const;

    /// Histogram of link hop spans (Fig. 2b's one-hop/two-hop breakdown).
    [[nodiscard]] util::Histogram link_span_histogram() const;

    /// True when every node can reach every other node.
    [[nodiscard]] bool connected() const;

    /// BFS hop distances from `src` to all nodes (-1 if unreachable).
    [[nodiscard]] std::vector<std::int32_t> hop_distances(NodeId src) const;

private:
    std::string name_;
    double pitch_mm_;
    std::vector<Node> nodes_;
    std::vector<Link> links_;
    std::vector<std::vector<std::pair<NodeId, LinkId>>> adj_;
};

/// Builds a topology from explicit node paths: nodes are laid out on a
/// `width` x `height` grid (row-major ids); each path contributes chain
/// links; `express` adds long-range links (e.g. SFC tail-to-head
/// connections). This is the generic builder the Floret generator uses.
[[nodiscard]] Topology make_path_topology(
    const std::string& name, std::int32_t width, std::int32_t height,
    const std::vector<std::vector<NodeId>>& paths,
    const std::vector<std::pair<NodeId, NodeId>>& express, double pitch_mm = 4.0);

}  // namespace floretsim::topo
