#include "src/core/floret.h"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

namespace floretsim::core {

topo::Topology make_floret(const SfcSet& set, const FloretOptions& opts) {
    std::vector<std::vector<topo::NodeId>> paths;
    paths.reserve(set.sfcs.size());
    for (const auto& s : set.sfcs) paths.push_back(s.path);

    std::vector<std::pair<topo::NodeId, topo::NodeId>> express;
    for (std::size_t i = 0; i < set.sfcs.size(); ++i) {
        const auto t = set.sfcs[i].tail();
        // Rank the other SFC heads by distance; connect the nearest ones
        // within the span limit, capped per tail. If none are in range,
        // the closest head is linked anyway: the spillover path
        // (tail -> next SFC's head) must always exist.
        std::vector<std::pair<std::int32_t, topo::NodeId>> heads;
        for (std::size_t j = 0; j < set.sfcs.size(); ++j) {
            if (i == j) continue;
            const auto h = set.sfcs[j].head();
            if (h == t) continue;
            heads.emplace_back(util::manhattan(set.pos(t), set.pos(h)), h);
        }
        std::sort(heads.begin(), heads.end());
        std::int32_t made = 0;
        for (const auto& [d, h] : heads) {
            if (made >= opts.max_express_per_tail) break;
            if (d > opts.max_tail_head_span && made > 0) break;
            express.emplace_back(t, h);
            ++made;
        }
    }

    topo::Topology topo = topo::make_path_topology(
        "Floret" + std::to_string(set.width) + "x" + std::to_string(set.height) + "l" +
            std::to_string(set.lambda()),
        set.width, set.height, paths, express, opts.pitch_mm);

    // Connectivity repair: bridge components through the closest
    // tail-to-head pair until the graph is connected.
    while (!topo.connected()) {
        const auto dist = topo.hop_distances(set.sfcs.front().head());
        std::int32_t best = std::numeric_limits<std::int32_t>::max();
        std::pair<topo::NodeId, topo::NodeId> bridge{-1, -1};
        for (const auto& si : set.sfcs) {
            for (const auto& sj : set.sfcs) {
                for (const auto a : {si.tail(), si.head()}) {
                    for (const auto b : {sj.head(), sj.tail()}) {
                        if (a == b || topo.has_link(a, b)) continue;
                        const bool a_reach = dist[static_cast<std::size_t>(a)] >= 0;
                        const bool b_reach = dist[static_cast<std::size_t>(b)] >= 0;
                        if (a_reach == b_reach) continue;  // same component
                        const auto d = util::manhattan(set.pos(a), set.pos(b));
                        if (d < best) {
                            best = d;
                            bridge = {a, b};
                        }
                    }
                }
            }
        }
        if (bridge.first < 0) break;  // nothing to bridge (shouldn't happen)
        topo.add_link(bridge.first, bridge.second);
    }

    return topo;
}

}  // namespace floretsim::core
