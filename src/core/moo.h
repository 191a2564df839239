#pragma once

#include <cstdint>
#include <vector>

#include "src/dnn/network.h"
#include "src/noc/routing.h"
#include "src/pim/accuracy.h"
#include "src/pim/partitioner.h"
#include "src/thermal/grid_solver.h"
#include "src/thermal/power.h"
#include "src/topo/topology.h"
#include "src/util/rng.h"

namespace floretsim::core {

/// Section III: on a 3D-stacked PE array the neural-layer-to-PE placement
/// must trade performance (EDP) against peak temperature, because ReRAM
/// accuracy collapses above ~330 K. This module provides the
/// performance-only baseline (Floret-style 3D SFC order) and the joint
/// performance-thermal simulated-annealing optimizer the paper compares
/// against it in Figs. 6-7.

/// Analytical performance/energy model used inside the optimization loop
/// (the flit simulator would be too slow per SA step; shapes match it).
struct PerfParams {
    double cycle_ns = 1.0;
    std::int32_t flit_bytes = 8;
    std::int32_t bytes_per_elem = 1;
    double hop_energy_pj = 1.2;        ///< Router+link energy per flit-hop.
    double compute_energy_scale = 1.0; ///< Multiplier on PIM MVM energy.
};

struct PlacementEval {
    double comm_cycles = 0.0;
    double compute_ns = 0.0;
    double latency_ns = 0.0;
    double energy_pj = 0.0;
    double edp = 0.0;             ///< latency_ns * energy_pj (paper's metric).
    double peak_k = 0.0;
    double accuracy_drop = 0.0;   ///< Fraction of baseline accuracy lost.
};

/// The PE consumption order of a performance-only 3D Floret: a serpentine
/// SFC through each tier, tiers visited bottom-up (z=0 first), so
/// consecutive layers stay path-adjacent. Node ids follow
/// topo::make_mesh3d's (z*height + y)*width + x convention.
[[nodiscard]] std::vector<topo::NodeId> sfc3d_order(std::int32_t width,
                                                    std::int32_t height,
                                                    std::int32_t depth);

/// Evaluates a placement (PE order consumed by the partitioner) end to
/// end: analytical comm/compute latency and energy, steady-state thermal
/// solve on `model`, and ReRAM accuracy impact. Throws
/// std::invalid_argument when `routes` and the model's grid describe
/// stacks of different sizes.
[[nodiscard]] PlacementEval evaluate_placement(
    const dnn::Network& net, const pim::PartitionPlan& plan,
    std::span<const topo::NodeId> pe_order, const noc::RouteTable& routes,
    const thermal::ThermalModel& model, const thermal::PowerParams& pcfg,
    const pim::ReramConfig& rcfg, const pim::ThermalAccuracyModel& acc,
    const PerfParams& perf);

struct MooConfig {
    double w_perf = 1.0;
    /// Weight on the thermal penalty max(0, peak - t_target) in K.
    double w_thermal = 0.05;
    double t_target_k = 333.0;
    std::int32_t iterations = 3000;
    std::uint64_t seed = 7;
};

struct MooResult {
    std::vector<topo::NodeId> pe_order;
    PlacementEval eval;
    std::int32_t accepted_moves = 0;
};

/// Joint performance-thermal placement: simulated annealing over the PE
/// order (segment-swap moves), scalarizing normalized EDP and the peak
/// temperature excess. Starts from the performance-only SFC order of the
/// `tcfg` stack, whose conductance matrix is factored once for the whole
/// anneal; throws std::invalid_argument, before any annealing, when
/// `routes` was built over a stack of another size.
[[nodiscard]] MooResult optimize_joint(
    const dnn::Network& net, const pim::PartitionPlan& plan,
    const noc::RouteTable& routes, const thermal::ThermalConfig& tcfg,
    const thermal::PowerParams& pcfg, const pim::ReramConfig& rcfg,
    const pim::ThermalAccuracyModel& acc, const PerfParams& perf,
    const MooConfig& cfg);

/// The "Floret-enabled 3D NoC" of Fig. 6: the same annealer with the
/// thermal weight zeroed (performance is the only objective), starting
/// from the 3D SFC order. Guarantees EDP no worse than the joint optimum
/// run under the same move budget — the paper's ~9% EDP edge.
[[nodiscard]] MooResult optimize_perf_only(
    const dnn::Network& net, const pim::PartitionPlan& plan,
    const noc::RouteTable& routes, const thermal::ThermalConfig& tcfg,
    const thermal::PowerParams& pcfg, const pim::ReramConfig& rcfg,
    const pim::ThermalAccuracyModel& acc, const PerfParams& perf,
    const MooConfig& cfg);

}  // namespace floretsim::core
