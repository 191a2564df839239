#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "src/core/sweep.h"
#include "src/scenario/report.h"
#include "src/scenario/spec_json.h"

namespace floretsim::scenario {

/// First-class scenario layer: every paper figure/table registers a named
/// Scenario — a serializable spec plus a report function — and the
/// floretsim_run driver executes scenarios by name (`--only <scenario>`).
/// The spec is data (JSON in, JSON out, CLI overrides patched into the JSON);
/// the report function is the only code, and it receives a shared
/// SweepEngine so consecutive scenarios reuse one fabric cache
/// (fig3+fig5 build their identical sweeps once).

/// What a scenario runs: a batch sweep grid, a serving grid, a serving
/// cluster capacity grid, a 3D placement-optimization study, a
/// Transformer study, or the scaling ablation. Every alternative is pure
/// serializable data.
using SpecVariant = std::variant<core::SweepSpec, ServeGridSpec, ClusterSpec,
                                 Moo3dSpec, TransformerSpec, ScalingSpec>;

/// "sweep" / "serve_grid" / "cluster" / "moo3d" / "transformer" /
/// "scaling" — the `kind` discriminator in scenario files.
[[nodiscard]] const char* spec_kind_name(const SpecVariant& spec);

[[nodiscard]] util::Json to_json(const SpecVariant& spec);
/// Parses a spec of the named kind (see spec_kind_name).
[[nodiscard]] SpecVariant spec_from_json(const util::Json& j,
                                         const std::string& kind);

/// The spec's content hash: FNV-1a over the kind name and the canonical
/// compact JSON serialization — the identity --list prints. Invariant
/// under JSON key order/whitespace of any user representation (hashing
/// happens after parse -> canonical re-serialization); changes whenever
/// any semantic field changes.
[[nodiscard]] std::uint64_t spec_hash(const SpecVariant& spec);

/// The deterministic point list of the scaling ablation: for each side, a
/// random mix of 3 + side workloads drawn from a fresh Rng(mix_seed),
/// fanned over the archs.
[[nodiscard]] std::vector<core::SweepPoint> scaling_points(const ScalingSpec& s);

/// Everything a report function gets to work with: the engine it must run
/// all parallel work on (shared across scenarios in a driver run — that
/// sharing is the fabric-cache win) and the stream for human-readable
/// output.
struct RunContext {
    core::SweepEngine& engine;
    std::ostream& out;
};

/// Runs the (possibly overridden) spec and produces the figure's report.
/// Throws std::invalid_argument when handed the wrong spec kind.
using ReportFn = std::function<JsonReport(const SpecVariant&, RunContext&)>;

struct Scenario {
    std::string name;     ///< Registry key ("fig3", "serving", ...).
    std::string summary;  ///< One-liner for --list.
    SpecVariant spec;     ///< The figure's canonical spec.
    ReportFn report;
    /// False for mapping-only scenarios (fig4) whose report never runs an
    /// NoI evaluation: the driver then refuses to count eval-affecting
    /// --set keys (see is_eval_override_key) as applied to them, keeping
    /// the "--set must land somewhere" typo guard honest.
    bool uses_eval = true;
};

class Registry {
public:
    /// Registers a scenario; throws std::invalid_argument on a duplicate
    /// name or a missing report function.
    void add(Scenario s);

    [[nodiscard]] const Scenario* find(const std::string& name) const;
    /// Lookup that throws std::invalid_argument listing the known names.
    [[nodiscard]] const Scenario& at(const std::string& name) const;
    /// Registration order (the driver's default run order).
    [[nodiscard]] const std::vector<Scenario>& scenarios() const { return scenarios_; }

    /// The built-in figure/table scenarios (constructed once, immutable).
    [[nodiscard]] static const Registry& builtin();

private:
    std::vector<Scenario> scenarios_;
};

// ---- Spec mutation (CLI) ----------------------------------------------------

/// Points the spec's seed at `seed` (sweep run_seed / serve
/// base_seed / moo3d annealer seed / scaling mix_seed) — the bench
/// `--seed` contract, applied as `--set seed=N`. A no-op on Transformer
/// specs, which are fully deterministic and carry no seed.
void set_seed(SpecVariant& spec, std::uint64_t seed);

/// The seed a run of `spec` will actually use (the mirror of set_seed).
/// Reports record it as run_info provenance; 0 for seedless kinds.
[[nodiscard]] std::uint64_t effective_seed(const SpecVariant& spec);

/// Applies one `--set key=value` override as a patch over the spec codec:
/// serializes the spec with to_json, writes the value at the key's path
/// for this spec kind, and re-parses with spec_from_json, so every check
/// on the value is the one a --spec file gets. Returns false when the key
/// is recognized but meaningless for this spec kind (e.g. max_requests on
/// a batch sweep, seed on a Transformer study) so the caller can insist
/// that every override lands somewhere; throws std::invalid_argument
/// ("--set key=value: why", spec unchanged) for unknown keys, malformed
/// values and values the codec rejects. Keys: see override_keys_help();
/// traffic_scale also accepts "1/128", and a single-valued field (a
/// serving grid, the cluster's arch) takes exactly one value.
bool apply_override(SpecVariant& spec, std::string_view key,
                    std::string_view value);

/// One-line list of the supported override keys, for error messages.
[[nodiscard]] std::string override_keys_help();

/// Splits "a,b,c" into non-empty items — the list syntax shared by the
/// override values and the driver's --only flag.
[[nodiscard]] std::vector<std::string> split_csv(std::string_view value);

/// True for --set keys that mutate the spec's EvalConfigs (traffic_scale,
/// max_cycles, injection_rate) — a no-op on scenarios whose
/// report never evaluates the NoI (Scenario::uses_eval == false).
[[nodiscard]] bool is_eval_override_key(std::string_view key);

// ---- Scenario files ---------------------------------------------------------

/// Loads a scenario from a JSON file. Two shapes:
///   {"scenario": "fig3", "name"?, "spec"?}   — a registered scenario,
///     optionally relabeled and/or with a replacement spec of its kind;
///   {"kind": "sweep"|"serve_grid"|"cluster", "spec": {...}, "name"?} — a
///     bare spec run through the generic report for its kind. The other
///     kinds (moo3d, transformer, scaling) have no generic report —
///     reference them through their registered scenario
///     ({"scenario": "fig6", ...}) instead; a bare-kind file is rejected
///     with that hint.
/// Unknown top-level keys are rejected. Throws std::invalid_argument
/// (parse/validation) or std::runtime_error (unreadable file).
[[nodiscard]] Scenario load_scenario_file(const std::string& path,
                                          const Registry& registry);

/// The generic report functions backing bare-spec scenario files.
[[nodiscard]] ReportFn generic_sweep_report();
[[nodiscard]] ReportFn serving_grid_report();
[[nodiscard]] ReportFn cluster_capacity_report();

}  // namespace floretsim::scenario
