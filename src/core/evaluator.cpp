#include "src/core/evaluator.h"

#include <algorithm>
#include <cmath>

#include "src/dnn/traffic.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace floretsim::core {

std::vector<dnn::Flow> pipeline_flows(const MappedTask& task,
                                      std::int32_t bytes_per_elem) {
    std::vector<dnn::Flow> flows;
    if (!task.mapped) return flows;
    const dnn::Network& net = *task.net;

    // Intra-segment streaming: each boundary inside a multi-chiplet layer
    // carries the layer's input activations (multicast along the chain of
    // its chiplets).
    for (const pim::LayerSegment& seg : task.plan.segments) {
        const auto& nodes = task.layer_nodes[static_cast<std::size_t>(seg.layer_id)];
        const auto in_bytes =
            net.layer(seg.layer_id).in.elems() * static_cast<std::int64_t>(bytes_per_elem);
        for (std::size_t i = 1; i < nodes.size(); ++i) {
            if (nodes[i - 1] != nodes[i])
                flows.push_back(dnn::Flow{nodes[i - 1], nodes[i], in_bytes, false});
        }
    }

    // Inter-layer dataflow: the producing segment's tail chiplet sends the
    // full activation volume to the consuming segment's head chiplet.
    for (const dnn::Edge& e : net.edges()) {
        const auto& src = task.layer_nodes[static_cast<std::size_t>(e.src)];
        const auto& dst = task.layer_nodes[static_cast<std::size_t>(e.dst)];
        if (src.empty() || dst.empty()) continue;
        const auto from = src.back();
        const auto to = dst.front();
        if (from == to) continue;
        flows.push_back(dnn::Flow{
            from, to, e.elems * static_cast<std::int64_t>(bytes_per_elem), e.skip});
    }
    return flows;
}

EvalResult evaluate_noi(const topo::Topology& topo, const noc::RouteTable& routes,
                        std::span<const MappedTask> tasks, const EvalConfig& cfg) {
    const obs::Span span("evaluate_noi", "noi");
    obs::MetricsRegistry::global().add("noi.evals");
    noc::Simulator sim(topo, routes, cfg.sim);

    for (const MappedTask& task : tasks) {
        if (!task.mapped) continue;
        const auto flows = pipeline_flows(task, cfg.bytes_per_elem);
        for (const auto& f : flows) {
            if (f.bytes <= 0) continue;
            // Clamp to one flit: a nonzero flow must stay in the demand
            // list, or aggressive traffic_scale values silently erase
            // small layers from the comparison.
            const auto scaled = std::max<std::int64_t>(
                1, std::llround(static_cast<double>(f.bytes) * cfg.traffic_scale));
            sim.add_demand(noc::Demand{f.src, f.dst, scaled});
        }
        if (cfg.include_weight_load) {
            // One byte per 8-bit parameter, split over the segment span,
            // streamed from the I/O node to every chiplet of the segment.
            for (const auto& seg : task.plan.segments) {
                const auto& nodes =
                    task.layer_nodes[static_cast<std::size_t>(seg.layer_id)];
                if (nodes.empty() || seg.weights == 0) continue;
                const double per_node = static_cast<double>(seg.weights) /
                                        static_cast<double>(nodes.size());
                for (const auto n : nodes) {
                    if (n == cfg.io_node) continue;
                    const auto scaled = std::max<std::int64_t>(
                        1, std::llround(per_node * cfg.traffic_scale));
                    sim.add_demand(noc::Demand{cfg.io_node, n, scaled});
                }
            }
        }
    }

    const noc::SimResult s = sim.run();

    EvalResult res;
    res.latency_cycles = static_cast<double>(s.cycles);
    res.mean_packet_latency = s.packet_latency.mean();
    res.energy_pj = cost::noi_energy_pj(topo, s, cfg.cost);
    res.flit_hops = s.flit_hops;
    res.packets = s.packets;
    res.completed = s.completed;
    res.sim_cycles_stepped = s.cycles_stepped;
    res.sim_cycles_skipped = s.cycles_skipped;
    res.sim_horizon_jumps = s.horizon_jumps;
    return res;
}

}  // namespace floretsim::core
