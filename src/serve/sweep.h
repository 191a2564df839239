#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/core/sweep.h"
#include "src/serve/simulator.h"

namespace floretsim::serve {

/// One serving scenario replicated across seeds: an architecture at a
/// grid size plus a ServeConfig, run `replications` times with seeds
/// base_seed, base_seed + 1, ... Replications fan out on the
/// core::SweepEngine; every replication builds its own mapper over the
/// engine's shared fabric cache, so results are bit-identical across
/// thread counts (enforced by tests/test_serve.cpp).
struct ServeSpec {
    core::experiment::Arch arch = core::experiment::Arch::kFloret;
    std::int32_t width = 10;
    std::int32_t height = 10;
    std::uint64_t swap_seed = 13;
    std::int32_t greedy_max_gap = -1;
    ServeConfig config;
    std::int32_t replications = 1;
    std::uint64_t base_seed = 1;  ///< Replication r runs with base_seed + r.

    /// Field-wise equality for the scenario layer's JSON round-trip contract.
    [[nodiscard]] bool operator==(const ServeSpec&) const = default;
};

/// Runs the spec's replications on the engine; results in replication
/// order (seed base_seed + index).
[[nodiscard]] std::vector<ServeStats> run_replications(core::SweepEngine& engine,
                                                       const ServeSpec& spec);

/// Cross-replication aggregate for reporting: request-weighted rates,
/// replication-averaged latency percentiles.
struct ServeAggregate {
    std::int64_t arrived = 0;
    std::int64_t completed = 0;
    std::int64_t rejected = 0;
    std::int64_t sla_violations = 0;
    double mean_throughput_per_mcycle = 0.0;
    double mean_utilization = 0.0;
    double mean_queue_depth = 0.0;
    double mean_latency_cycles = 0.0;
    double p50_latency_cycles = 0.0;  ///< Mean of per-replication p50s.
    double p95_latency_cycles = 0.0;
    double p99_latency_cycles = 0.0;
    /// Batching/preemption accounting, summed over replications.
    std::int64_t batched_requests = 0;
    std::int64_t preemptions = 0;
    std::int64_t evictions = 0;
    /// NoI / simulator-engine economy, summed over replications.
    std::int64_t noi_rounds = 0;
    std::int64_t noi_cache_hits = 0;
    std::int64_t sim_cycles_stepped = 0;
    std::int64_t sim_cycles_skipped = 0;
    std::int64_t sim_horizon_jumps = 0;

    [[nodiscard]] double sla_violation_rate() const noexcept {
        return arrived == 0 ? 0.0
                            : static_cast<double>(sla_violations) /
                                  static_cast<double>(arrived);
    }
};

[[nodiscard]] ServeAggregate aggregate(std::span<const ServeStats> runs);

}  // namespace floretsim::serve
