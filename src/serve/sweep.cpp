#include "src/serve/sweep.h"

#include <algorithm>

namespace floretsim::serve {

std::vector<ServeStats> run_replications(core::SweepEngine& engine,
                                         const ServeSpec& spec) {
    const auto n = static_cast<std::size_t>(std::max(spec.replications, 0));
    return engine.map(n, [&](std::size_t r) {
        auto arch = core::experiment::build_arch(engine.cache(), spec.arch,
                                                 spec.width, spec.height,
                                                 spec.swap_seed,
                                                 spec.greedy_max_gap);
        ServeConfig cfg = spec.config;
        cfg.seed = spec.base_seed + r;
        return serve_requests(arch, cfg);
    });
}

ServeAggregate aggregate(std::span<const ServeStats> runs) {
    ServeAggregate agg;
    if (runs.empty()) return agg;
    for (const auto& s : runs) {
        agg.arrived += s.arrived;
        agg.completed += s.completed;
        agg.rejected += s.rejected;
        agg.sla_violations += s.sla_violations;
        agg.mean_throughput_per_mcycle += s.throughput_per_mcycle;
        agg.mean_utilization += s.mean_utilization;
        agg.mean_queue_depth += s.mean_queue_depth;
        agg.mean_latency_cycles += s.mean_latency_cycles;
        agg.p50_latency_cycles += s.p50_latency_cycles;
        agg.p95_latency_cycles += s.p95_latency_cycles;
        agg.p99_latency_cycles += s.p99_latency_cycles;
        agg.batched_requests += s.batched_requests;
        agg.preemptions += s.preemptions;
        agg.evictions += s.evictions;
        agg.noi_rounds += s.noi_rounds;
        agg.noi_cache_hits += s.noi_cache_hits;
        agg.sim_cycles_stepped += s.sim_cycles_stepped;
        agg.sim_cycles_skipped += s.sim_cycles_skipped;
        agg.sim_horizon_jumps += s.sim_horizon_jumps;
    }
    const auto n = static_cast<double>(runs.size());
    agg.mean_throughput_per_mcycle /= n;
    agg.mean_utilization /= n;
    agg.mean_queue_depth /= n;
    agg.mean_latency_cycles /= n;
    agg.p50_latency_cycles /= n;
    agg.p95_latency_cycles /= n;
    agg.p99_latency_cycles /= n;
    return agg;
}

}  // namespace floretsim::serve
