#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/evaluator.h"
#include "src/core/experiment.h"
#include "src/serve/arrivals.h"

namespace floretsim::serve {

/// Discrete-event, request-level serving simulator on top of the
/// experiment stack: requests arrive over continuous time, queue under an
/// admission policy, occupy a chiplet run via the architecture's mapper
/// (model residency, as in core::simulate_dynamic), execute their
/// inference rounds, and release. Round duration is the evaluate_noi
/// drain latency of the *current* resident set (frozen at round start)
/// plus the request's own PIM compute time. Successive rounds under
/// unchanged residency reuse the drain, and a changed resident set is
/// looked up in the fabric's NoiMemo, so no set is simulated twice.
/// Everything is deterministic in the config seed.

enum class AdmissionPolicy {
    kFifo,              ///< Strict arrival order; the head blocks the line.
    kEarliestDeadline,  ///< Queue ordered by SLA deadline (ties by id).
    kRejectOnFull,      ///< FIFO, but arrivals beyond max_queue bounce.
    /// EDF queue order, plus eviction: when the head cannot be placed, the
    /// resident whose earliest member deadline is *latest* is preempted
    /// (in-flight round discarded, members re-queued with their remaining
    /// rounds) — but only if its deadline is strictly later than the
    /// head's, so eviction chains strictly decrease deadline and cannot
    /// cycle.
    kEdfEvict,
};

[[nodiscard]] const char* admission_policy_name(AdmissionPolicy p);

struct ServeConfig {
    ArrivalConfig arrivals;
    /// Tenant classes; empty selects default_request_classes().
    std::vector<RequestClass> classes;
    AdmissionPolicy admission = AdmissionPolicy::kFifo;
    std::size_t max_queue = 64;  ///< Only enforced by kRejectOnFull.
    /// Batch coalescing cap: when the queue head is admitted, up to
    /// max_batch-1 further queued requests for the *same* workload join the
    /// residency and share its rounds (one fabric evaluation prices the
    /// whole batch). 1 disables batching and is bit-identical to the
    /// pre-batching scheduler.
    std::int32_t max_batch = 1;
    /// Batch traffic model: a round serving m live members costs
    /// epoch_drain + compute_ns * traffic_scale * (1 + alpha*(m-1)) —
    /// the NoI drain is shared, the PIM compute grows sub-linearly when
    /// alpha < 1. Exactly the legacy formula at m == 1.
    double batch_traffic_alpha = 0.25;
    core::EvalConfig eval;       ///< NoI evaluation settings.
    double params_per_chiplet_m = core::experiment::kParamsPerChipletM;
    std::uint64_t seed = 1;      ///< Drives arrivals and service demands.

    /// Field-wise equality for the scenario layer's JSON round-trip contract.
    [[nodiscard]] bool operator==(const ServeConfig&) const = default;
};

/// Serving defaults: the experiment eval config (1/64 traffic sampling),
/// so serving latencies live on the same scale as the Table II batch
/// numbers. Serve's own knob so the layers can diverge independently.
[[nodiscard]] ServeConfig default_serve_config();

struct ClassServeStats {
    std::string name;
    std::int64_t arrived = 0;
    std::int64_t completed = 0;
    std::int64_t violations = 0;  ///< Late completions + rejections.
};

/// Aggregate outcome of one serving run.
struct ServeStats {
    std::int64_t arrived = 0;
    std::int64_t admitted = 0;
    std::int64_t completed = 0;
    /// Bounced requests: queue overflow (kRejectOnFull) or a request no
    /// placement can satisfy even on an idle system.
    std::int64_t rejected = 0;
    std::int64_t sla_violations = 0;  ///< Late completions + rejections.
    double makespan_cycles = 0.0;     ///< Last event time.
    double throughput_per_mcycle = 0.0;  ///< Completions per 1e6 cycles.
    double mean_utilization = 0.0;    ///< Time-weighted busy-chiplet share.
    double mean_queue_depth = 0.0;    ///< Time-weighted.
    std::int64_t peak_queue_depth = 0;
    double mean_wait_cycles = 0.0;    ///< Arrival -> admission, admitted only.
    /// Sojourn (arrival -> completion) statistics over completed requests;
    /// percentiles from the streaming P2 sketch in util::stats.
    double mean_latency_cycles = 0.0;
    double p50_latency_cycles = 0.0;
    double p95_latency_cycles = 0.0;
    double p99_latency_cycles = 0.0;
    /// NoI evaluation economy: rounds scheduled vs. rounds that reused the
    /// previous round's drain because the fabric's resident set was
    /// unchanged. `noi_rounds - noi_cache_hits` is the number of NoiMemo
    /// lookups — an admission burst of k requests costs one (the round
    /// schedule is deferred until the burst drains, so every admit sees the
    /// final resident set). A lookup the memo serves runs no simulation,
    /// so the simulations actually run can be fewer.
    std::int64_t noi_rounds = 0;
    std::int64_t noi_cache_hits = 0;
    /// Batching/preemption accounting. batched_requests counts members that
    /// joined an existing admission (i.e. rode along beyond the batch
    /// leader); evictions counts residencies torn down by kEdfEvict;
    /// preemptions counts the members those evictions re-queued. Each
    /// admission increments `admitted`, so over a drained run
    /// admitted == completed + preemptions and arrived == completed +
    /// rejected.
    std::int64_t batched_requests = 0;
    std::int64_t preemptions = 0;
    std::int64_t evictions = 0;
    /// Simulator-engine work statistics summed over the NoiMemo lookups
    /// (see noc::SimResult): cycles executed vs. proven no-op and skipped.
    /// A memo hit contributes the stored result's counts.
    std::int64_t sim_cycles_stepped = 0;
    std::int64_t sim_cycles_skipped = 0;
    std::int64_t sim_horizon_jumps = 0;
    /// False only if the event-count safety guard tripped (a bug, not a
    /// workload property — every request normally completes or bounces).
    bool drained = true;
    std::vector<ClassServeStats> per_class;

    [[nodiscard]] double sla_violation_rate() const noexcept {
        return arrived == 0 ? 0.0
                            : static_cast<double>(sla_violations) /
                                  static_cast<double>(arrived);
    }
};

/// Runs the serving simulation to completion (every generated request is
/// either completed or rejected). Re-entrant in the run_mix_dynamic sense:
/// mutates only `arch.mapper` (resetting it first), so concurrent calls
/// are safe when each thread owns its BuiltArch.
[[nodiscard]] ServeStats serve_requests(core::experiment::BuiltArch& arch,
                                        const ServeConfig& cfg);

}  // namespace floretsim::serve
