#include "src/core/evaluator.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "src/dnn/traffic.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/hash.h"

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

std::vector<noc::Demand> noi_demands(std::span<const MappedTask* const> tasks,
                                     const EvalConfig& cfg) {
    std::vector<noc::Demand> demands;
    for (const MappedTask* in_place : tasks) {
        const MappedTask& task = *in_place;
        if (!task.mapped) continue;
        const auto flows = pipeline_flows(task, cfg.bytes_per_elem);
        for (const auto& f : flows) {
            if (f.bytes <= 0) continue;
            // Clamp to one flit: a nonzero flow must stay in the demand
            // list, or aggressive traffic_scale values silently erase
            // small layers from the comparison.
            const auto scaled = std::max<std::int64_t>(
                1, std::llround(static_cast<double>(f.bytes) * cfg.traffic_scale));
            demands.push_back(noc::Demand{f.src, f.dst, scaled});
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
                    demands.push_back(noc::Demand{cfg.io_node, n, scaled});
                }
            }
        }
    }
    return demands;
}

std::vector<noc::Demand> noi_demands(std::span<const MappedTask> tasks,
                                     const EvalConfig& cfg) {
    std::vector<const MappedTask*> in_place;
    in_place.reserve(tasks.size());
    for (const MappedTask& task : tasks) in_place.push_back(&task);
    return noi_demands(in_place, cfg);
}

namespace {

/// evaluate_noi over a demand list already built from its tasks.
EvalResult simulate_and_price(const topo::Topology& topo, const noc::RouteTable& routes,
                              const std::vector<noc::Demand>& demands, const EvalConfig& cfg) {
    const obs::Span span("evaluate_noi", "noi");
    obs::MetricsRegistry::global().add("noi.evals");
    noc::Simulator sim(topo, routes, cfg.sim);
    {
        const obs::Span demands_span("noi.demands", "noi");
        sim.add_demands(demands);
    }
    const noc::SimResult s = sim.run();

    const obs::Span price_span("noi.price", "noi");
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

void put_varint(std::string& out, std::uint64_t v) {
    for (; v >= 0x80; v >>= 7) out.push_back(static_cast<char>((v & 0x7f) | 0x80));
    out.push_back(static_cast<char>(v));
}

/// Zigzag first, so a negative (out-of-range) node id stays short.
void put_signed(std::string& out, std::int64_t v) {
    put_varint(out, (static_cast<std::uint64_t>(v) << 1) ^
                        static_cast<std::uint64_t>(v >> 63));
}

void put_double(std::string& out, double v) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(bits >> (8 * i)));
}

// A new SimConfig field changes what a run computes, so it must join the
// key below before this size is updated.
static_assert(sizeof(noc::SimConfig) == 48, "add the new SimConfig field to memo_key");

/// Every field is self-delimiting and the sequence is fixed, so distinct
/// inputs always encode to distinct strings.
std::string memo_key(std::span<const noc::Demand> demands, const EvalConfig& cfg) {
    const noc::SimConfig& sim = cfg.sim;
    std::string key;
    key.reserve(64 + 6 * demands.size());
    put_signed(key, sim.flit_bytes);
    put_signed(key, sim.max_packet_flits);
    put_signed(key, sim.input_buffer_flits);
    put_signed(key, sim.router_delay_cycles);
    put_double(key, sim.mm_per_cycle);
    put_signed(key, sim.max_cycles);
    put_double(key, sim.injection_rate);
    put_varint(key, static_cast<std::uint64_t>(noc::resolved_sim_core(sim.core)));
    put_double(key, cfg.cost.router_energy_base_pj);
    put_double(key, cfg.cost.router_energy_per_port_pj);
    put_double(key, cfg.cost.link_energy_per_mm_pj);
    for (const noc::Demand& d : demands) {
        put_signed(key, d.src);
        put_signed(key, d.dst);
        put_signed(key, d.bytes);
    }
    return key;
}

}  // namespace

EvalResult evaluate_noi(const topo::Topology& topo, const noc::RouteTable& routes,
                        std::span<const MappedTask> tasks, const EvalConfig& cfg) {
    return simulate_and_price(topo, routes, noi_demands(tasks, cfg), cfg);
}

std::size_t NoiMemo::KeyHash::operator()(const std::string& key) const noexcept {
    return static_cast<std::size_t>(util::fnv1a(key));
}

EvalResult NoiMemo::evaluate(std::span<const MappedTask> tasks, const EvalConfig& cfg) {
    return evaluate_demands(noi_demands(tasks, cfg), cfg);
}

EvalResult NoiMemo::evaluate(std::span<const MappedTask* const> tasks, const EvalConfig& cfg) {
    return evaluate_demands(noi_demands(tasks, cfg), cfg);
}

EvalResult NoiMemo::evaluate_demands(const std::vector<noc::Demand>& demands,
                                     const EvalConfig& cfg) {
    const std::string key = memo_key(demands, cfg);
    auto& metrics = obs::MetricsRegistry::global();
    bool stored = false;
    EvalResult res = results_.get(
        key, [&] { return simulate_and_price(topo_, routes_, demands, cfg); },
        [&](util::Lookup lookup) {
            metrics.add(lookup == util::Lookup::kHit ? "noi.memo_hits" : "noi.memo_misses");
            stored = lookup == util::Lookup::kMiss;
        });
    if (stored) {
        const auto bytes = static_cast<std::int64_t>(key.size() + sizeof(EvalResult));
        bytes_ += bytes;
        metrics.add("noi.memo_bytes", bytes);
    }
    return res;
}

}  // namespace floretsim::core
