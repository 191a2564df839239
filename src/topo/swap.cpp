#include "src/topo/swap.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <vector>

namespace floretsim::topo {
namespace {

/// Serpentine (boustrophedon) order over the grid: consecutive ids are
/// grid neighbors, so the backbone links are all single-hop.
std::vector<NodeId> serpentine_order(std::int32_t width, std::int32_t height) {
    std::vector<NodeId> order;
    order.reserve(static_cast<std::size_t>(width) * height);
    for (std::int32_t y = 0; y < height; ++y) {
        if (y % 2 == 0)
            for (std::int32_t x = 0; x < width; ++x) order.push_back(y * width + x);
        else
            for (std::int32_t x = width - 1; x >= 0; --x) order.push_back(y * width + x);
    }
    return order;
}

struct Shortcut {
    NodeId a;
    NodeId b;
};

/// The anneal's working graph: the backbone plus the current shortcuts,
/// which each move edits in place and reverts on reject.
class WorkingGraph {
public:
    WorkingGraph(std::int32_t width, std::int32_t height)
        : n_(width * height),
          words_((static_cast<std::size_t>(n_) + 63) / 64),
          nbrs_(static_cast<std::size_t>(n_)),
          adj_(static_cast<std::size_t>(n_) * words_, 0),
          reach_(adj_.size()),
          next_(adj_.size()) {
        pos_.reserve(static_cast<std::size_t>(n_));
        for (std::int32_t y = 0; y < height; ++y)
            for (std::int32_t x = 0; x < width; ++x) pos_.push_back(util::Point2{x, y});
    }

    [[nodiscard]] std::int32_t node_count() const noexcept { return n_; }
    [[nodiscard]] util::Point2 pos(NodeId v) const { return pos_[idx(v)]; }
    [[nodiscard]] std::int32_t degree(NodeId v) const {
        return static_cast<std::int32_t>(nbrs_[idx(v)].size());
    }
    [[nodiscard]] bool has_link(NodeId a, NodeId b) const {
        return (adj_[idx(a) * words_ + idx(b) / 64] >> (idx(b) % 64)) & 1U;
    }

    void add_link(NodeId a, NodeId b) {
        nbrs_[idx(a)].push_back(b);
        nbrs_[idx(b)].push_back(a);
        flip(a, b);
    }

    void remove_link(NodeId a, NodeId b) {
        drop(nbrs_[idx(a)], b);
        drop(nbrs_[idx(b)], a);
        flip(a, b);
    }

    /// The SA objective: mean hop distance between serpentine-consecutive
    /// nodes (pipeline traffic) plus 0.2 x the mean all-pairs hop count.
    /// The backbone links every consecutive pair, so the pipeline term is
    /// exactly 1 and the anneal minimizes only the mean all-pairs hops.
    [[nodiscard]] double comm_cost() { return 1.0 + 0.2 * mean_hops(); }

private:
    [[nodiscard]] static std::size_t idx(NodeId v) { return static_cast<std::size_t>(v); }

    static void drop(std::vector<NodeId>& list, NodeId v) {
        *std::find(list.begin(), list.end(), v) = list.back();
        list.pop_back();
    }

    void flip(NodeId a, NodeId b) {
        adj_[idx(a) * words_ + idx(b) / 64] ^= std::uint64_t{1} << (idx(b) % 64);
        adj_[idx(b) * words_ + idx(a) / 64] ^= std::uint64_t{1} << (idx(a) % 64);
    }

    /// Mean hop count over ordered pairs of distinct reachable nodes, by a
    /// bit-parallel all-pairs BFS. Row v of `reach_` is the set of nodes
    /// within `level` hops of v; one level ORs each row with its
    /// neighbours' rows, and every newly reached bit is a pair at distance
    /// `level`. The hop sum is an exact integer, so the mean matches a
    /// per-source BFS bit for bit. A row that stops growing holds all v
    /// reaches, in both buffers, so it leaves `active_`.
    double mean_hops() {
        std::fill(reach_.begin(), reach_.end(), 0);
        active_.clear();
        for (NodeId v = 0; v < n_; ++v) {
            reach_[idx(v) * words_ + idx(v) / 64] = std::uint64_t{1} << (idx(v) % 64);
            active_.push_back(v);
        }
        std::int64_t hops = 0;
        std::int64_t pairs = 0;
        const std::int64_t all = static_cast<std::int64_t>(n_) * (n_ - 1);
        for (std::int64_t level = 1; pairs < all && !active_.empty(); ++level) {
            std::int64_t reached = 0;
            std::size_t kept = 0;
            for (const NodeId v : active_) {
                const std::uint64_t* own = &reach_[idx(v) * words_];
                std::uint64_t* row = &next_[idx(v) * words_];
                std::int64_t grown = 0;
                for (std::size_t w = 0; w < words_; ++w) {
                    std::uint64_t bits = own[w];
                    for (const NodeId u : nbrs_[idx(v)]) bits |= reach_[idx(u) * words_ + w];
                    row[w] = bits;
                    if (bits != own[w]) grown += std::popcount(bits & ~own[w]);
                }
                if (grown > 0) active_[kept++] = v;
                reached += grown;
            }
            active_.resize(kept);
            hops += level * reached;
            pairs += reached;
            reach_.swap(next_);
        }
        return pairs > 0 ? static_cast<double>(hops) / static_cast<double>(pairs) : 0.0;
    }

    std::int32_t n_;
    std::size_t words_;  ///< 64-bit words per bit row.
    std::vector<util::Point2> pos_;
    std::vector<std::vector<NodeId>> nbrs_;
    std::vector<std::uint64_t> adj_;  ///< n x n adjacency bit matrix.
    std::vector<std::uint64_t> reach_;
    std::vector<std::uint64_t> next_;
    std::vector<NodeId> active_;  ///< Rows still growing.
};

/// Samples a shortcut respecting the degree budget; length ~ l^-alpha.
bool sample_shortcut(const WorkingGraph& g, util::Rng& rng, const SwapConfig& cfg,
                     Shortcut& out) {
    std::vector<NodeId> candidates;
    for (int attempt = 0; attempt < 64; ++attempt) {
        const auto a = static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(g.node_count())));
        if (g.degree(a) >= cfg.max_degree) continue;
        // Sample a target length from the truncated power law, then a node
        // at (approximately) that Manhattan radius.
        const double u = rng.uniform();
        const double lmax = static_cast<double>(g.node_count());
        const double length =
            std::pow((std::pow(lmax, 1.0 - cfg.alpha) - 1.0) * u + 1.0,
                     1.0 / (1.0 - cfg.alpha));
        const auto radius = std::max<std::int32_t>(2, static_cast<std::int32_t>(length));
        candidates.clear();
        for (NodeId b = 0; b < g.node_count(); ++b) {
            if (b == a || g.has_link(a, b)) continue;
            if (g.degree(b) >= cfg.max_degree) continue;
            const auto span = util::manhattan(g.pos(a), g.pos(b));
            if (span == radius || span == radius + 1) candidates.push_back(b);
        }
        if (candidates.empty()) continue;
        out = Shortcut{a, candidates[rng.below(candidates.size())]};
        return true;
    }
    return false;
}

}  // namespace

Topology make_swap(std::int32_t width, std::int32_t height, util::Rng& rng,
                   const SwapConfig& cfg, double pitch_mm) {
    const auto order = serpentine_order(width, height);
    WorkingGraph g(width, height);
    for (std::size_t i = 1; i < order.size(); ++i) g.add_link(order[i - 1], order[i]);

    // Seed shortcut set. Shortcuts span at least 2 hops and are sampled
    // against the current graph, so none repeats a link.
    const auto n_extra = static_cast<std::size_t>(
        std::max(1.0, cfg.extra_link_frac * width * height));
    std::vector<Shortcut> shortcuts;
    while (shortcuts.size() < n_extra) {
        Shortcut s{};
        if (!sample_shortcut(g, rng, cfg, s)) break;
        g.add_link(s.a, s.b);
        shortcuts.push_back(s);
    }

    // Simulated-annealing refinement: swap one shortcut for a re-sampled
    // one; accept improvements (and occasional regressions, cooling).
    auto best = shortcuts;
    double best_cost = g.comm_cost();
    double temperature = 0.3 * best_cost;
    for (std::int32_t it = 0; it < cfg.sa_iters && !shortcuts.empty(); ++it) {
        const std::size_t victim = rng.below(shortcuts.size());
        const Shortcut old = shortcuts[victim];
        g.remove_link(old.a, old.b);
        Shortcut s{};
        if (!sample_shortcut(g, rng, cfg, s)) {
            g.add_link(old.a, old.b);
            continue;
        }
        g.add_link(s.a, s.b);
        const double cost = g.comm_cost();
        const double delta = cost - best_cost;
        if (delta < 0.0 || rng.chance(std::exp(-delta / std::max(1e-9, temperature)))) {
            shortcuts.erase(shortcuts.begin() + static_cast<std::ptrdiff_t>(victim));
            shortcuts.push_back(s);
            if (cost < best_cost) {
                best_cost = cost;
                best = shortcuts;
            }
        } else {
            g.remove_link(s.a, s.b);
            g.add_link(old.a, old.b);
        }
        temperature *= 0.995;
    }

    Topology t("SWAP" + std::to_string(width) + "x" + std::to_string(height), pitch_mm);
    for (std::int32_t y = 0; y < height; ++y)
        for (std::int32_t x = 0; x < width; ++x) t.add_node(util::Point2{x, y});
    for (std::size_t i = 1; i < order.size(); ++i) t.add_link(order[i - 1], order[i]);
    for (const auto& s : best) t.add_link(s.a, s.b);
    return t;
}

}  // namespace floretsim::topo
