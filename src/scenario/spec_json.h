#pragma once

#include <string>
#include <vector>

#include "src/core/evaluator.h"
#include "src/core/hetero.h"
#include "src/core/sweep.h"
#include "src/cost/models.h"
#include "src/noc/routing.h"
#include "src/noc/simulator.h"
#include "src/serve/cluster.h"
#include "src/serve/sweep.h"
#include "src/util/json.h"
#include "src/workload/tables.h"

namespace floretsim::scenario {

/// JSON (de)serialization for every spec type a scenario can carry. The
/// contract, pinned by tests/test_scenario_json.cpp:
///
///   * strict round-trip: from_json(to_json(x)) == x for every spec type
///     (to_json always emits every field; doubles at max_digits10);
///   * partial specs are welcome: a missing key keeps the default, so
///     user files only state what they change (serving configs default to
///     serve::default_serve_config(), keeping user specs on the same
///     measurement scale as the documented serving numbers);
///   * unknown keys are rejected with the offending context in the
///     message — a typoed knob must never silently run the default sweep;
///   * workload mixes serialize as Table II names ("WL1") whenever they
///     match the canonical entry, and custom mixes reference Table I
///     workloads by id — specs carry names, not inlined layer tables.
///
/// All from_json functions throw std::invalid_argument on malformed input.

/// ASCII lowercase — the normalization used for enum spellings and
/// metric-key fragments throughout the scenario layer.
[[nodiscard]] std::string ascii_lower(std::string s);

// ---- Enums ------------------------------------------------------------------

[[nodiscard]] util::Json to_json(core::experiment::Arch a);
[[nodiscard]] core::experiment::Arch arch_from_json(const util::Json& j);
/// Accepts the CLI/JSON spellings: "kite", "siam" / "siam-mesh", "swap",
/// "floret" (case-insensitive, arch_name() spellings included).
[[nodiscard]] core::experiment::Arch arch_from_string(const std::string& s);

[[nodiscard]] util::Json to_json(serve::AdmissionPolicy p);
[[nodiscard]] serve::AdmissionPolicy admission_policy_from_json(const util::Json& j);

[[nodiscard]] util::Json to_json(serve::BalancePolicy p);
[[nodiscard]] serve::BalancePolicy balance_policy_from_json(const util::Json& j);

[[nodiscard]] util::Json to_json(serve::ArrivalProcess p);
[[nodiscard]] serve::ArrivalProcess arrival_process_from_json(const util::Json& j);

// ---- Simulator / evaluation knobs ------------------------------------------

[[nodiscard]] util::Json to_json(const noc::SimConfig& c);
[[nodiscard]] noc::SimConfig sim_config_from_json(const util::Json& j);

[[nodiscard]] util::Json to_json(const cost::CostParams& c);
[[nodiscard]] cost::CostParams cost_params_from_json(const util::Json& j);

[[nodiscard]] util::Json to_json(const core::EvalConfig& c);
[[nodiscard]] core::EvalConfig eval_config_from_json(const util::Json& j);

// ---- Workload mixes ---------------------------------------------------------

/// A mix that matches its Table II namesake exactly serializes as the bare
/// name string; anything else as {"name", "entries": [["DNN1", 3], ...],
/// "paper_total_params_b"} with every id validated against Table I.
[[nodiscard]] util::Json to_json(const workload::ConcurrentMix& m);
[[nodiscard]] workload::ConcurrentMix mix_from_json(const util::Json& j);

// ---- Sweep specs ------------------------------------------------------------

/// Strict "WxH" parser shared by the JSON spec forms and the CLI
/// --set grid override, so both entry points validate identically.
/// Throws std::invalid_argument on malformed or out-of-int32-range input.
[[nodiscard]] std::pair<std::int32_t, std::int32_t> grid_from_string(
    const std::string& s);

/// Grids serialize as "WxH" strings; parsing also accepts [w, h] pairs.
[[nodiscard]] util::Json to_json(const core::SweepSpec& s);
[[nodiscard]] core::SweepSpec sweep_spec_from_json(const util::Json& j);

/// SweepPoint is the unit of cross-process distribution: a serialized
/// point list is a self-contained work order for a remote runner.
[[nodiscard]] util::Json to_json(const core::SweepPoint& p);
[[nodiscard]] core::SweepPoint sweep_point_from_json(const util::Json& j);
[[nodiscard]] util::Json to_json(const std::vector<core::SweepPoint>& pts);
[[nodiscard]] std::vector<core::SweepPoint> sweep_points_from_json(
    const util::Json& j);

// ---- Sweep rows (the return wire format) ------------------------------------

/// SweepRow is the unit of distributed *results*: a worker that consumed
/// a SweepPoint list streams SweepRows back, and the coordinator merges
/// them into expansion order — the mirror image of the point-list request
/// format above. Strict round-trip (sweep_rows_from_json(to_json(r)) ==
/// r) and unknown-key rejection, like every other spec type.
[[nodiscard]] util::Json to_json(const core::experiment::DynamicResult& r);
[[nodiscard]] core::experiment::DynamicResult dynamic_result_from_json(
    const util::Json& j);

[[nodiscard]] util::Json to_json(const core::SweepRow& r);
[[nodiscard]] core::SweepRow sweep_row_from_json(const util::Json& j);
[[nodiscard]] util::Json to_json(const std::vector<core::SweepRow>& rows);
[[nodiscard]] std::vector<core::SweepRow> sweep_rows_from_json(const util::Json& j);

// ---- Serving specs ----------------------------------------------------------

[[nodiscard]] util::Json to_json(const serve::RequestClass& c);
[[nodiscard]] serve::RequestClass request_class_from_json(const util::Json& j);

[[nodiscard]] util::Json to_json(const serve::ArrivalConfig& c);
[[nodiscard]] serve::ArrivalConfig arrival_config_from_json(const util::Json& j);

[[nodiscard]] util::Json to_json(const serve::ServeConfig& c);
[[nodiscard]] serve::ServeConfig serve_config_from_json(const util::Json& j);

[[nodiscard]] util::Json to_json(const serve::ServeSpec& s);
[[nodiscard]] serve::ServeSpec serve_spec_from_json(const util::Json& j);

/// The serving scenarios' grid: one base ServeSpec fanned out over a list
/// of architectures and offered loads (arch x load x replication), the
/// shape the `serving` scenario sweeps. The base spec's own `arch` field
/// is ignored when `archs` is non-empty.
struct ServeGridSpec {
    /// A base ServeSpec carrying the serving defaults
    /// (serve::default_serve_config()'s eval scale, not a bare
    /// EvalConfig{}), so grid specs measure on the documented scale.
    serve::ServeSpec base = default_base();
    std::vector<core::experiment::Arch> archs{
        core::experiment::kAllArchs.begin(), core::experiment::kAllArchs.end()};
    std::vector<double> loads_per_mcycle{100.0, 250.0, 500.0, 1000.0, 2000.0};

    [[nodiscard]] static serve::ServeSpec default_base();
    [[nodiscard]] bool operator==(const ServeGridSpec&) const = default;
};

[[nodiscard]] util::Json to_json(const ServeGridSpec& s);
[[nodiscard]] ServeGridSpec serve_grid_spec_from_json(const util::Json& j);

/// The capacity-planning grid the `cluster` scenario sweeps: one base
/// ServeSpec fanned out over cluster sizes (fabric count K behind the
/// load-balancing frontend), batch caps, and offered loads —
/// K x batch x load x replication cells, each a serve::serve_cluster run.
/// Every fabric in a cell is a replica of the base spec's arch/grid.
struct ClusterSpec {
    serve::ServeSpec base = ServeGridSpec::default_base();
    std::vector<std::int32_t> cluster_sizes{1, 2};
    std::vector<std::int32_t> batch_caps{1, 4};
    std::vector<double> loads_per_mcycle{500.0, 2000.0, 8000.0};
    serve::BalancePolicy balance = serve::BalancePolicy::kModelAffinity;

    [[nodiscard]] bool operator==(const ClusterSpec&) const = default;
};

[[nodiscard]] util::Json to_json(const ClusterSpec& s);
[[nodiscard]] ClusterSpec cluster_spec_from_json(const util::Json& j);

// ---- 3D MOO specs (Figs. 6-7, M3D-vs-TSV) -----------------------------------

/// Routing spellings: "shortest_path" / "updown" / "xy" (case-insensitive).
[[nodiscard]] util::Json to_json(noc::RoutingPolicy p);
[[nodiscard]] noc::RoutingPolicy routing_policy_from_json(const util::Json& j);

/// One 3D-integration variant of the PE stack: the M3D-vs-TSV study runs
/// the same joint optimization across variants that differ only in
/// vertical wire length and inter-tier thermal conductance. The defaults
/// are make_mesh3d's tier pitch and ThermalConfig's vertical conductance,
/// so a spec with no variants runs the paper's baseline stack.
struct Moo3dVariant {
    std::string name = "default";
    double tier_pitch_mm = 0.05;
    double g_vertical_w_per_k = 0.5;

    [[nodiscard]] bool operator==(const Moo3dVariant&) const = default;
};

/// The 3D placement-optimization scenarios (Figs. 6-7 and the M3D study):
/// for each Table I workload and each integration variant, anneal the
/// layer-to-PE placement on a width x height x depth stack and compare
/// the performance-only (Floret SFC) mapping against the joint
/// performance-thermal optimum. The MooConfig knobs are inlined; defaults
/// are the Fig. 6 settings (the joint design targets the ReRAM-safe
/// temperature, so w_thermal is strong and t_target_k is 331 K).
struct Moo3dSpec {
    std::vector<std::string> workloads;  ///< Table I ids ("DNN1"...).
    std::int32_t width = 5;
    std::int32_t height = 5;
    std::int32_t depth = 4;
    noc::RoutingPolicy routing = noc::RoutingPolicy::kShortestPath;
    std::int32_t iterations = 1500;
    double w_perf = 1.0;
    double w_thermal = 0.2;
    double t_target_k = 331.0;
    std::uint64_t seed = 7;  ///< The annealer's move seed (MooConfig::seed).
    /// Empty runs one default Moo3dVariant (the baseline stack).
    std::vector<Moo3dVariant> variants;

    [[nodiscard]] bool operator==(const Moo3dSpec&) const = default;
};

[[nodiscard]] util::Json to_json(const Moo3dSpec& s);
[[nodiscard]] Moo3dSpec moo3d_spec_from_json(const util::Json& j);

// ---- Transformer specs (Section IV) -----------------------------------------

/// Model spellings accepted in TransformerSpec::models.
[[nodiscard]] dnn::TransformerConfig transformer_model_from_name(
    const std::string& name);

[[nodiscard]] util::Json to_json(const core::HeteroConfig& c);
[[nodiscard]] core::HeteroConfig hetero_config_from_json(const util::Json& j);

/// The Section IV studies: encoder stacks ("bert_tiny" / "bert_base") at
/// the given batch sizes, on the heterogeneous ReRAM-macro + SRAM
/// attention-module system described by `hetero`. The storage analysis
/// uses models x batches only; the hetero-vs-all-PIM comparison maps each
/// model (at batches.front()) onto the system both ways.
struct TransformerSpec {
    std::vector<std::string> models{"bert_tiny", "bert_base"};
    std::vector<std::int32_t> batches{1};
    core::HeteroConfig hetero;

    [[nodiscard]] bool operator==(const TransformerSpec&) const = default;
};

[[nodiscard]] util::Json to_json(const TransformerSpec& s);
[[nodiscard]] TransformerSpec transformer_spec_from_json(const util::Json& j);

// ---- Scaling specs (the ablation study) -------------------------------------

/// The scaling ablation: Floret vs mesh across side x side systems each
/// running a random mix sized to the system (3 + side workloads, drawn
/// from Rng(mix_seed) — a fresh generator per side, so every side's mix
/// is independent of list order), plus the petal-count (lambda) sweep at
/// 100 chiplets and the weight-loading ablation. Unlike SweepSpec the
/// point list is derived, not enumerated: scaling_points() in the
/// registry layer expands it.
struct ScalingSpec {
    std::vector<std::int32_t> sides{6, 8, 10, 12};
    std::vector<core::experiment::Arch> archs{
        core::experiment::Arch::kSiamMesh, core::experiment::Arch::kFloret};
    std::vector<std::int32_t> lambdas{2, 4, 5, 10, 20};
    core::EvalConfig eval = core::experiment::default_eval_config();
    std::uint64_t mix_seed = 7;
    std::uint64_t swap_seed = 13;
    std::int32_t greedy_max_gap = 2;
    std::uint64_t run_seed = 1;

    [[nodiscard]] bool operator==(const ScalingSpec&) const = default;
};

[[nodiscard]] util::Json to_json(const ScalingSpec& s);
[[nodiscard]] ScalingSpec scaling_spec_from_json(const util::Json& j);

}  // namespace floretsim::scenario
