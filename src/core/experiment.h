#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/core/evaluator.h"
#include "src/core/floret.h"
#include "src/core/mapper.h"
#include "src/core/sfc.h"
#include "src/noc/routing.h"
#include "src/topo/topology.h"
#include "src/util/compute_once.h"
#include "src/util/rng.h"
#include "src/workload/tables.h"

namespace floretsim::core::experiment {

/// The experiment harness behind the paper's evaluation: builders for the
/// four compared NoI architectures (with their mapping policies) and the
/// dynamic multi-tenant workload runner used by the Fig. 3/4/5 studies.

enum class Arch { kKite, kSiamMesh, kSwap, kFloret };

[[nodiscard]] const char* arch_name(Arch a);

constexpr std::array<Arch, 4> kAllArchs{Arch::kKite, Arch::kSiamMesh, Arch::kSwap,
                                        Arch::kFloret};

/// Chiplet weight capacity used by the mix experiments, in millions of
/// 8-bit parameters. Matches pim::ReramConfig (128x128 crossbars, 2-bit
/// cells, 16 IMAs x 16 crossbars ≈ 1.05M weights per chiplet) — the
/// SIAM-class chiplet the paper assumes. Table II mixes therefore overload
/// the 100-chiplet system and queue, exactly the multi-tenant pressure the
/// paper's mapping study exercises.
constexpr double kParamsPerChipletM = 1.0;

/// The immutable, shareable part of a built architecture: topology, route
/// table, and (for Floret) the SFC set. Construction is deterministic in
/// (arch, w, h, swap_seed), so a fabric built once can back any number of
/// concurrent evaluations — mappers and simulators hold const references
/// into it and never mutate it.
struct ArchFabric {
    Arch arch = Arch::kFloret;
    std::int32_t width = 0;
    std::int32_t height = 0;
    std::uint64_t swap_seed = 13;
    topo::Topology topology{"unbuilt"};
    noc::RouteTable routes;
    SfcSet sfc;  ///< Only meaningful for Floret.
    /// evaluate_noi on this fabric, each distinct input simulated once for
    /// as long as the fabric lives (an ArchCache keeps it across sweeps).
    /// Bound to `topology` and `routes`, so a fabric never copies or moves.
    mutable NoiMemo noi_memo{topology, routes};
};

/// Builds the shared fabric for one of the compared architectures.
[[nodiscard]] std::shared_ptr<const ArchFabric> build_fabric(
    Arch a, std::int32_t w, std::int32_t h, std::uint64_t swap_seed = 13);

/// Thread-safe memo of ArchFabric construction keyed on
/// (arch, w, h, swap_seed) — topology synthesis and up*/down* route-table
/// construction dominate a sweep point's setup cost, and every point of a
/// sweep at the same grid shares them. Concurrent requests for the same
/// key build once; the losers block on the winner's result, and a build
/// that throws reaches them all and leaves the key retryable
/// (util::ComputeOnce).
class ArchCache {
public:
    [[nodiscard]] std::shared_ptr<const ArchFabric> get(Arch a, std::int32_t w,
                                                        std::int32_t h,
                                                        std::uint64_t swap_seed = 13);

    [[nodiscard]] std::int64_t hits() const { return fabrics_.hits(); }
    [[nodiscard]] std::int64_t misses() const { return fabrics_.misses(); }
    void clear() { fabrics_.clear(); }

private:
    using Key = std::tuple<std::int32_t, std::int32_t, std::int32_t, std::uint64_t>;
    struct KeyHash {
        [[nodiscard]] std::size_t operator()(const Key& key) const noexcept;
    };

    util::ComputeOnce<Key, std::shared_ptr<const ArchFabric>, KeyHash> fabrics_;
};

/// One fully built architecture: a (possibly shared) fabric plus a mapper
/// bound to its allocation policy (SFC-contiguous for Floret, nearest-hop
/// greedy for the baselines). The mapper is the only mutable state, so two
/// BuiltArchs over the same fabric can run on different threads. The
/// fabric lives on the heap because the mapper holds references into it —
/// the struct must stay move-safe.
struct BuiltArch {
    Arch arch = Arch::kFloret;
    std::shared_ptr<const ArchFabric> fabric;
    std::unique_ptr<Mapper> mapper;

    [[nodiscard]] const topo::Topology& topology() const { return fabric->topology; }
    [[nodiscard]] const noc::RouteTable& routes() const { return fabric->routes; }
    /// Only meaningful for Floret.
    [[nodiscard]] const SfcSet& sfc() const { return fabric->sfc; }
};

/// Petal count for a Floret grid: aim for petals of ~10 chiplets while
/// keeping a valid region tiling (mirrors Fig. 1's 6 petals for 36).
[[nodiscard]] std::int32_t default_lambda(std::int32_t w, std::int32_t h);

/// Builds one of the compared architectures at the given grid size.
/// `greedy_max_gap` is the baselines' contiguity budget in hops (-1 =
/// unbounded); `swap_seed` fixes the SWAP synthesis.
[[nodiscard]] BuiltArch build_arch(Arch a, std::int32_t w, std::int32_t h,
                                   std::uint64_t swap_seed = 13,
                                   std::int32_t greedy_max_gap = -1);

/// Cached variant: fabric from (or into) `cache`, fresh mapper per call.
[[nodiscard]] BuiltArch build_arch(ArchCache& cache, Arch a, std::int32_t w,
                                   std::int32_t h, std::uint64_t swap_seed = 13,
                                   std::int32_t greedy_max_gap = -1);

/// Wraps an already-built fabric with a fresh mapper.
[[nodiscard]] BuiltArch make_built_arch(std::shared_ptr<const ArchFabric> fabric,
                                        std::int32_t greedy_max_gap = -1);

/// Evaluation defaults for the mix experiments: 1/64 traffic sampling and
/// sources that offer traffic as fast as the NoI accepts it, so the drain
/// makespan measures the network rather than the injection pacing.
[[nodiscard]] EvalConfig default_eval_config();

/// Per-inference PIM compute latency of a mapped task (layers in dataflow
/// order on their allocated chiplet spans).
[[nodiscard]] double task_compute_ns(const MappedTask& t, const pim::ReramConfig& rc);

/// Outcome of the dynamic multi-tenant execution of one mix.
struct DynamicResult {
    /// Workload makespan: per round, the slowest resident task's PIM
    /// compute time plus the NoI drain time. Rounds spent at low occupancy
    /// (queue head blocked by fragmentation) inflate this — the paper's
    /// utilization-to-latency causal chain.
    double total_cycles = 0.0;
    double total_energy_pj = 0.0;  ///< NoI energy: dynamic + leakage (Fig. 5).
    std::int64_t flit_hops = 0;
    std::int64_t rounds = 0;
    std::int64_t task_rounds = 0;  ///< Sum of resident counts over rounds.
    bool all_completed = true;
    /// NoI-evaluation economy: rounds that looked their drain up in the
    /// fabric's NoiMemo vs. rounds that reused the previous round's result
    /// because the resident set was unchanged, plus the simulator-engine
    /// work statistics of each looked-up result. A memo hit runs no
    /// simulation, so `noi_evals` bounds the simulations from above.
    std::int64_t noi_evals = 0;
    std::int64_t round_epoch_hits = 0;
    std::int64_t sim_cycles_stepped = 0;
    std::int64_t sim_cycles_skipped = 0;
    std::int64_t sim_horizon_jumps = 0;

    /// Field-wise equality: results travel back from fleet workers as
    /// JSON (scenario::dynamic_result_from_json(to_json(r)) == r).
    [[nodiscard]] bool operator==(const DynamicResult&) const = default;
};

/// Executes a Table II mix the way the paper describes Section II's
/// multi-tenant scenario: tasks are admitted strictly from the queue head
/// while the mapper can place them, every resident task runs inference
/// rounds, and tasks retire after a deterministic per-instance number of
/// rounds, returning their chiplets. When the queue head cannot map the
/// system keeps running at reduced occupancy; if the system is idle and
/// the head still fails, placement constraints are relaxed so progress is
/// always possible. Durations depend only on `seed` and queue position,
/// so every architecture executes the identical work schedule.
///
/// Re-entrant: mutates only `arch.mapper` (resetting it first), so
/// concurrent calls are safe as long as each thread owns its BuiltArch —
/// sharing one fabric across threads is fine.
[[nodiscard]] DynamicResult run_mix_dynamic(BuiltArch& arch,
                                            const workload::ConcurrentMix& mix,
                                            const EvalConfig& cfg,
                                            std::uint64_t seed = 1);

}  // namespace floretsim::core::experiment
