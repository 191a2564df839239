#include "src/core/moo.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "src/obs/metrics.h"
#include "src/pim/reram.h"

namespace floretsim::core {

std::vector<topo::NodeId> sfc3d_order(std::int32_t width, std::int32_t height,
                                      std::int32_t depth) {
    std::vector<topo::NodeId> order;
    order.reserve(static_cast<std::size_t>(width) * height * depth);
    for (std::int32_t z = 0; z < depth; ++z) {
        // Serpentine within the tier; alternate the row scan between tiers
        // so the inter-tier step is a single vertical hop.
        for (std::int32_t row = 0; row < height; ++row) {
            const std::int32_t y = (z % 2 == 0) ? row : height - 1 - row;
            const bool l2r = (row % 2 == 0) == (z % 2 == 0);
            for (std::int32_t col = 0; col < width; ++col) {
                const std::int32_t x = l2r ? col : width - 1 - col;
                order.push_back((z * height + y) * width + x);
            }
        }
    }
    return order;
}

PlacementEval evaluate_placement(const dnn::Network& net, const pim::PartitionPlan& plan,
                                 std::span<const topo::NodeId> pe_order,
                                 const noc::RouteTable& routes,
                                 const thermal::ThermalModel& model,
                                 const thermal::PowerParams& pcfg,
                                 const pim::ReramConfig& rcfg,
                                 const pim::ThermalAccuracyModel& acc,
                                 const PerfParams& perf) {
    // The route table and the thermal grid must describe one stack: node
    // ids index both.
    const thermal::ThermalConfig& tcfg = model.config();
    if (routes.node_count() != tcfg.cells())
        throw std::invalid_argument(
            "placement: route table has " + std::to_string(routes.node_count()) +
            " nodes but the thermal grid has " + std::to_string(tcfg.cells()) + " cells");
    obs::MetricsRegistry::global().add("moo.evals");
    const auto layer_nodes = pim::assign_layers(net, plan, pe_order);

    PlacementEval ev;

    // Communication: flits x hops, one flit stream per edge node-pair.
    double flit_hops = 0.0;
    for (const auto& e : net.edges()) {
        const auto& src = layer_nodes[static_cast<std::size_t>(e.src)];
        const auto& dst = layer_nodes[static_cast<std::size_t>(e.dst)];
        if (src.empty() || dst.empty()) continue;
        const double bytes_per_pair =
            static_cast<double>(e.elems) * perf.bytes_per_elem /
            (static_cast<double>(src.size()) * static_cast<double>(dst.size()));
        const double flits_per_pair =
            std::ceil(bytes_per_pair / static_cast<double>(perf.flit_bytes));
        for (const auto s : src)
            for (const auto d : dst)
                if (s != d) flit_hops += flits_per_pair * routes.hops(s, d);
    }
    ev.comm_cycles = flit_hops;

    // Compute: layers execute in dataflow order; chiplet parallelism is
    // already inside layer_compute_latency_ns.
    double compute_ns = 0.0;
    double compute_pj = 0.0;
    for (const auto& seg : plan.segments) {
        const auto& layer = net.layer(seg.layer_id);
        compute_ns += pim::layer_compute_latency_ns(layer, seg.chiplets(), rcfg);
        compute_pj += pim::layer_compute_energy_pj(layer, rcfg) * perf.compute_energy_scale;
    }
    ev.compute_ns = compute_ns;
    ev.latency_ns = compute_ns + ev.comm_cycles * perf.cycle_ns;
    ev.energy_pj = compute_pj + flit_hops * perf.hop_energy_pj;
    ev.edp = ev.latency_ns * ev.energy_pj;

    // Thermal + accuracy.
    const auto power = thermal::pe_power_map(net, layer_nodes, tcfg.cells(), pcfg);
    const auto thermal_result = model.solve(power);
    ev.peak_k = thermal_result.peak_k();

    std::vector<double> weight_frac(static_cast<std::size_t>(tcfg.cells()), 0.0);
    double total_w = 0.0;
    for (const auto& seg : plan.segments) {
        const auto& nodes = layer_nodes[static_cast<std::size_t>(seg.layer_id)];
        if (nodes.empty()) continue;
        const double per_node =
            static_cast<double>(seg.weights) / static_cast<double>(nodes.size());
        for (const auto n : nodes) {
            weight_frac[static_cast<std::size_t>(n)] += per_node;
            total_w += per_node;
        }
    }
    if (total_w > 0.0)
        for (auto& w : weight_frac) w /= total_w;
    ev.accuracy_drop = acc.accuracy_drop(thermal_result.temp_k, weight_frac);
    return ev;
}

namespace {

/// Structured starting candidates: the SFC order with its tier-sized
/// blocks permuted (which tier hosts which pipeline stage) and optionally
/// reversed end to end. These are the macro design moves an architect
/// applies first — e.g. "start the pipeline at the tier next to the heat
/// sink" — and they preserve intra-block adjacency, so they are nearly
/// free in EDP.
std::vector<std::vector<topo::NodeId>> structured_candidates(
    const std::vector<topo::NodeId>& base, std::int32_t tier_cells,
    std::int32_t tiers) {
    std::vector<std::vector<topo::NodeId>> out;
    out.push_back(base);
    if (tier_cells <= 0 || tiers <= 1 ||
        static_cast<std::size_t>(tier_cells) * tiers != base.size()) {
        auto rev = base;
        std::reverse(rev.begin(), rev.end());
        out.push_back(std::move(rev));
        return out;
    }
    std::vector<std::int32_t> perm(static_cast<std::size_t>(tiers));
    for (std::int32_t i = 0; i < tiers; ++i) perm[static_cast<std::size_t>(i)] = i;
    do {
        std::vector<topo::NodeId> cand;
        cand.reserve(base.size());
        for (const auto block : perm) {
            const auto begin = base.begin() + block * tier_cells;
            cand.insert(cand.end(), begin, begin + tier_cells);
        }
        out.push_back(cand);
        std::reverse(cand.begin(), cand.end());
        out.push_back(std::move(cand));
    } while (std::next_permutation(perm.begin(), perm.end()));
    return out;
}

}  // namespace

MooResult optimize_joint(const dnn::Network& net, const pim::PartitionPlan& plan,
                         const noc::RouteTable& routes, const thermal::ThermalConfig& tcfg,
                         const thermal::PowerParams& pcfg, const pim::ReramConfig& rcfg,
                         const pim::ThermalAccuracyModel& acc, const PerfParams& perf,
                         const MooConfig& cfg) {
    const thermal::ThermalModel model(tcfg);
    MooResult res;
    res.pe_order = sfc3d_order(tcfg.width, tcfg.height, tcfg.depth);

    auto base = evaluate_placement(net, plan, res.pe_order, routes, model, pcfg, rcfg,
                                   acc, perf);
    const double edp_norm = std::max(1e-30, base.edp);
    auto scalar = [&](const PlacementEval& ev) {
        return cfg.w_perf * ev.edp / edp_norm +
               cfg.w_thermal * std::max(0.0, ev.peak_k - cfg.t_target_k);
    };

    util::Rng rng(cfg.seed);
    auto cur_order = res.pe_order;
    auto cur_eval = base;
    double cur_cost = scalar(base);

    // Portfolio phase: pick the best structured candidate as the start.
    for (const auto& cand : structured_candidates(
             res.pe_order, tcfg.width * tcfg.height, tcfg.depth)) {
        const auto ev =
            evaluate_placement(net, plan, cand, routes, model, pcfg, rcfg, acc, perf);
        const double cost = scalar(ev);
        if (cost < cur_cost) {
            cur_cost = cost;
            cur_order = cand;
            cur_eval = ev;
        }
    }
    auto best_order = cur_order;
    auto best_eval = cur_eval;
    double best_cost = cur_cost;

    // Start lukewarm: the initial order is already performance-optimal,
    // so the search should hill-climb with occasional escapes rather than
    // random-walk away from it.
    double temperature = 0.05 * std::max(1e-12, cur_cost);
    for (std::int32_t it = 0; it < cfg.iterations; ++it) {
        auto prop = cur_order;
        // Move set: point swaps and short reversals relocate individual
        // segments; chunk swaps exchange whole contiguous runs of the
        // pipeline between physical regions (e.g. pushing a hot early
        // stage to the tier next to the heat sink at almost no extra
        // communication cost — the designer move Section III describes).
        const auto n = prop.size();
        const double move = rng.uniform();
        if (move < 0.4) {
            const auto i = rng.below(n);
            const auto j = rng.below(n);
            std::swap(prop[i], prop[j]);
        } else if (move < 0.75) {
            const auto i = rng.below(n);
            const auto len = 2 + rng.below(6);
            const auto j = std::min(n, i + len);
            std::reverse(prop.begin() + static_cast<std::ptrdiff_t>(i),
                         prop.begin() + static_cast<std::ptrdiff_t>(j));
        } else {
            // Tier-scale chunk: big enough to relocate a whole hot
            // pipeline stage block (e.g. bottom tier -> sink tier).
            const std::size_t chunk = std::max<std::size_t>(4, n / 4);
            const auto i = rng.below(n - chunk + 1);
            const auto j = rng.below(n - chunk + 1);
            if (i != j && (i + chunk <= j || j + chunk <= i)) {
                for (std::size_t k = 0; k < chunk; ++k)
                    std::swap(prop[i + k], prop[j + k]);
            } else {
                std::swap(prop[rng.below(n)], prop[rng.below(n)]);
            }
        }
        const auto ev = evaluate_placement(net, plan, prop, routes, model, pcfg, rcfg,
                                           acc, perf);
        const double cost = scalar(ev);
        const double delta = cost - cur_cost;
        if (delta < 0.0 || rng.chance(std::exp(-delta / std::max(1e-12, temperature)))) {
            cur_order = std::move(prop);
            cur_eval = ev;
            cur_cost = cost;
            ++res.accepted_moves;
            if (cost < best_cost) {
                best_cost = cost;
                best_order = cur_order;
                best_eval = cur_eval;
            }
        }
        temperature *= 0.999;
    }

    // Greedy pairwise refinement: apply improving single swaps until a
    // full sampling pass finds none. This reliably harvests the local
    // improvements simulated annealing leaves on the table (moving one
    // hot segment off the peak cell, etc.).
    const auto n_nodes = best_order.size();
    for (std::int32_t pass = 0; pass < 25; ++pass) {
        bool improved = false;
        for (std::int32_t trial = 0; trial < 120; ++trial) {
            const auto i = rng.below(n_nodes);
            const auto j = rng.below(n_nodes);
            if (i == j) continue;
            auto prop = best_order;
            std::swap(prop[i], prop[j]);
            const auto ev = evaluate_placement(net, plan, prop, routes, model, pcfg,
                                               rcfg, acc, perf);
            const double cost = scalar(ev);
            if (cost < best_cost - 1e-12) {
                best_cost = cost;
                best_order = std::move(prop);
                best_eval = ev;
                improved = true;
                ++res.accepted_moves;
            }
        }
        if (!improved) break;
    }

    res.pe_order = std::move(best_order);
    res.eval = best_eval;
    obs::MetricsRegistry::global().add("moo.accepted", res.accepted_moves);
    return res;
}

MooResult optimize_perf_only(const dnn::Network& net, const pim::PartitionPlan& plan,
                             const noc::RouteTable& routes,
                             const thermal::ThermalConfig& tcfg,
                             const thermal::PowerParams& pcfg,
                             const pim::ReramConfig& rcfg,
                             const pim::ThermalAccuracyModel& acc,
                             const PerfParams& perf, const MooConfig& cfg) {
    MooConfig perf_cfg = cfg;
    perf_cfg.w_thermal = 0.0;
    return optimize_joint(net, plan, routes, tcfg, pcfg, rcfg, acc, perf, perf_cfg);
}

}  // namespace floretsim::core
