#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/core/mapper.h"
#include "src/cost/models.h"
#include "src/dnn/traffic.h"
#include "src/noc/routing.h"
#include "src/noc/simulator.h"
#include "src/topo/topology.h"
#include "src/util/compute_once.h"

namespace floretsim::core {

/// End-to-end NoI evaluation settings for the 2.5D experiments.
struct EvalConfig {
    noc::SimConfig sim;
    cost::CostParams cost;
    std::int32_t bytes_per_elem = 1;  ///< int8 activations.
    /// Fraction of the activation traffic injected into the flit
    /// simulator. One full inference pass of a 100-chiplet mix is hundreds
    /// of MB; sampling keeps simulated makespans tractable while
    /// preserving the relative comparison (all architectures use the same
    /// scale). Scaled flows are clamped to a one-flit minimum so small
    /// layers never vanish from the demand list.
    double traffic_scale = 1.0 / 256.0;
    /// Also inject the SIAM-style weight-loading phase: every mapped
    /// chiplet receives its stored weights (1 B per 8-bit parameter) from
    /// the interposer I/O node before inference. Off by default — the
    /// paper's steady-state inference serves many passes per load, but the
    /// ablation bench quantifies its one-time cost.
    bool include_weight_load = false;
    topo::NodeId io_node = 0;  ///< Where weights enter the interposer.

    /// Field-wise equality for the scenario layer's JSON round-trip contract.
    [[nodiscard]] bool operator==(const EvalConfig&) const = default;
};

/// Aggregate NoI metrics for one workload mapping (one Fig. 3/5 bar).
struct EvalResult {
    double latency_cycles = 0.0;        ///< Makespan to drain the traffic.
    double mean_packet_latency = 0.0;   ///< Cycles, inject -> tail eject.
    double energy_pj = 0.0;             ///< Radix/length-weighted NoI energy.
    std::int64_t flit_hops = 0;
    std::int64_t packets = 0;
    bool completed = false;
    /// Simulator-engine work statistics (noc::SimResult passthrough):
    /// cycles the selected SimCore actually executed vs. proved no-op and
    /// jumped over. Engine-dependent — not part of the semantic result.
    std::int64_t sim_cycles_stepped = 0;
    std::int64_t sim_cycles_skipped = 0;
    std::int64_t sim_horizon_jumps = 0;

    /// Field-wise equality, sim_* included: a NoiMemo hit must equal a
    /// fresh evaluate_noi bit for bit.
    [[nodiscard]] bool operator==(const EvalResult&) const = default;
};

/// Dataflow (pipeline) traffic of one mapped task, the paper's model:
/// activations flow from layer i to layer i+1, i.e. from the *tail*
/// chiplet of the producing segment to the *head* chiplet of the consuming
/// segment (full edge volume), and stream through multi-chiplet segments
/// chiplet-to-chiplet (each internal boundary carries the layer's input
/// activations). Contiguous mappings therefore ride single-hop links,
/// which is precisely the property Floret optimizes.
[[nodiscard]] std::vector<dnn::Flow> pipeline_flows(const MappedTask& task,
                                                    std::int32_t bytes_per_elem);

/// The demand list evaluate_noi hands the simulator, in order: every
/// mapped task's pipeline flows (then, with include_weight_load, its
/// weight streams from cfg.io_node), scaled by cfg.traffic_scale and
/// clamped to one byte. Unmapped tasks contribute nothing.
[[nodiscard]] std::vector<noc::Demand> noi_demands(std::span<const MappedTask> tasks,
                                                   const EvalConfig& cfg);
/// The same list over tasks held elsewhere, read in place in the given
/// order.
[[nodiscard]] std::vector<noc::Demand> noi_demands(std::span<const MappedTask* const> tasks,
                                                   const EvalConfig& cfg);

/// Runs the wormhole simulator over noi_demands(tasks, cfg) and prices the
/// traffic with the cost model.
[[nodiscard]] EvalResult evaluate_noi(const topo::Topology& topo,
                                      const noc::RouteTable& routes,
                                      std::span<const MappedTask> tasks,
                                      const EvalConfig& cfg);

/// Thread-safe memo of evaluate_noi over one network, so each distinct
/// input is simulated once for as long as the memo lives (one per
/// experiment::ArchFabric). The key is everything the stored result
/// depends on besides the network, and is compared in full — its hash
/// only picks the bucket:
///   - the noi_demands list, in order;
///   - every SimConfig field, with the core resolved through
///     FLORETSIM_SIM_CORE;
///   - the energy prices noi_energy_pj reads.
/// The whole EvalResult is stored, sim_* engine-work fields included, so a
/// hit returns exactly what a fresh evaluate_noi would. A hit simulates
/// nothing and records no evaluate_noi span, noi.evals or sim.* counter.
/// Concurrent callers of one key wait for the first, an evaluation that
/// throws reaches every waiter and drops the entry, and at most
/// kMaxEntries results are stored (util::ComputeOnce); past that, a miss
/// evaluates without storing.
class NoiMemo {
public:
    static constexpr std::size_t kMaxEntries = 4096;

    /// Binds the memo to one network; both must outlive it.
    NoiMemo(const topo::Topology& topo, const noc::RouteTable& routes)
        : topo_(topo), routes_(routes) {}
    NoiMemo(const NoiMemo&) = delete;
    NoiMemo& operator=(const NoiMemo&) = delete;

    /// evaluate_noi(topo, routes, tasks, cfg), computed once per key. The
    /// demand list is built once per lookup: for the key and, on a miss,
    /// for the simulation.
    [[nodiscard]] EvalResult evaluate(std::span<const MappedTask> tasks,
                                      const EvalConfig& cfg);
    /// The same over tasks read in place, in the given order (the resident
    /// sets of the serving and dynamic-mix loops), so no task is copied.
    [[nodiscard]] EvalResult evaluate(std::span<const MappedTask* const> tasks,
                                      const EvalConfig& cfg);

    [[nodiscard]] std::int64_t hits() const { return results_.hits(); }
    [[nodiscard]] std::int64_t misses() const { return results_.misses(); }
    /// Stored or in-flight entries.
    [[nodiscard]] std::size_t entries() const { return results_.entries(); }
    /// Key plus value bytes of the stored results.
    [[nodiscard]] std::int64_t bytes() const { return bytes_.load(); }

private:
    struct KeyHash {
        [[nodiscard]] std::size_t operator()(const std::string& key) const noexcept;
    };

    [[nodiscard]] EvalResult evaluate_demands(const std::vector<noc::Demand>& demands,
                                              const EvalConfig& cfg);

    const topo::Topology& topo_;
    const noc::RouteTable& routes_;
    util::ComputeOnce<std::string, EvalResult, KeyHash> results_{kMaxEntries};
    std::atomic<std::int64_t> bytes_{0};
};

}  // namespace floretsim::core
