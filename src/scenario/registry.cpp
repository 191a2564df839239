#include "src/scenario/registry.h"

#include <algorithm>
#include <charconv>
#include <stdexcept>

#include "src/util/hash.h"
#include "src/util/rng.h"

namespace floretsim::scenario {
namespace {

[[noreturn]] void bad_value(std::string_view key, std::string_view value,
                            const std::string& why) {
    throw std::invalid_argument("--set " + std::string(key) + "=" +
                                std::string(value) + ": " + why);
}

double parse_double(std::string_view key, std::string_view value) {
    double v = 0.0;
    const auto [p, ec] = std::from_chars(value.data(), value.data() + value.size(), v);
    if (ec != std::errc() || p != value.data() + value.size())
        bad_value(key, value, "expected a number");
    return v;
}

/// traffic_scale accepts the bench-doc notation "1/128" as well as plain
/// decimals.
double parse_ratio(std::string_view key, std::string_view value) {
    const std::size_t slash = value.find('/');
    if (slash == std::string_view::npos) return parse_double(key, value);
    const double num = parse_double(key, value.substr(0, slash));
    const double den = parse_double(key, value.substr(slash + 1));
    if (den == 0.0) bad_value(key, value, "division by zero");
    return num / den;
}

std::int64_t parse_int(std::string_view key, std::string_view value) {
    std::int64_t v = 0;
    const auto [p, ec] = std::from_chars(value.data(), value.data() + value.size(), v);
    if (ec != std::errc() || p != value.data() + value.size())
        bad_value(key, value, "expected an integer");
    return v;
}

std::uint64_t parse_uint(std::string_view key, std::string_view value) {
    std::uint64_t v = 0;
    const auto [p, ec] = std::from_chars(value.data(), value.data() + value.size(), v);
    if (ec != std::errc() || p != value.data() + value.size())
        bad_value(key, value, "expected a non-negative integer");
    return v;
}

std::pair<std::int32_t, std::int32_t> parse_grid(std::string_view key,
                                                 std::string_view value) {
    // Same strict parser as the JSON spec forms (grid_from_string), so a
    // grid that works in a spec file works on the CLI and vice versa.
    try {
        return grid_from_string(std::string(value));
    } catch (const std::invalid_argument&) {
        bad_value(key, value, "expected WxH, e.g. 12x12");
    }
}

std::vector<core::experiment::Arch> parse_archs(std::string_view key,
                                                std::string_view value) {
    std::vector<core::experiment::Arch> archs;
    for (const auto& name : split_csv(value)) {
        try {
            archs.push_back(arch_from_string(name));
        } catch (const std::invalid_argument& e) {
            bad_value(key, value, e.what());
        }
    }
    if (archs.empty()) bad_value(key, value, "empty architecture list");
    return archs;
}

std::vector<std::int32_t> parse_positive_int32_list(std::string_view key,
                                                    std::string_view value,
                                                    const char* what) {
    std::vector<std::int32_t> out;
    for (const auto& item : split_csv(value)) {
        const std::int64_t v = parse_int(key, item);
        if (v <= 0 || v > INT32_MAX)
            bad_value(key, value,
                      std::string(what) + " must be a positive int32");
        out.push_back(static_cast<std::int32_t>(v));
    }
    if (out.empty()) bad_value(key, value, std::string("empty ") + what + " list");
    return out;
}

/// Applies an EvalConfig mutation everywhere the spec carries one. A
/// sweep spec with an empty eval list means "the experiment default", so
/// the default is materialized first — otherwise the override would be
/// silently lost at expand() time. Returns false for kinds that carry no
/// EvalConfig at all (the annealing and Transformer studies never run the
/// flit simulator), so eval overrides don't pretend to land on them.
template <typename Fn>
bool mutate_evals(SpecVariant& spec, Fn&& fn) {
    if (auto* sweep = std::get_if<core::SweepSpec>(&spec)) {
        if (sweep->evals.empty())
            sweep->evals = {core::experiment::default_eval_config()};
        for (auto& eval : sweep->evals) fn(eval);
        return true;
    }
    if (auto* grid = std::get_if<ServeGridSpec>(&spec)) {
        fn(grid->base.config.eval);
        return true;
    }
    if (auto* cluster = std::get_if<ClusterSpec>(&spec)) {
        fn(cluster->base.config.eval);
        return true;
    }
    if (auto* scaling = std::get_if<ScalingSpec>(&spec)) {
        fn(scaling->eval);
        return true;
    }
    return false;
}

}  // namespace

std::vector<std::string> split_csv(std::string_view value) {
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= value.size()) {
        const std::size_t comma = value.find(',', start);
        const std::string_view item = value.substr(
            start, comma == std::string_view::npos ? std::string_view::npos
                                                   : comma - start);
        if (!item.empty()) out.emplace_back(item);
        if (comma == std::string_view::npos) break;
        start = comma + 1;
    }
    return out;
}

const char* spec_kind_name(const SpecVariant& spec) {
    struct Namer {
        const char* operator()(const core::SweepSpec&) const { return "sweep"; }
        const char* operator()(const ServeGridSpec&) const { return "serve_grid"; }
        const char* operator()(const ClusterSpec&) const { return "cluster"; }
        const char* operator()(const Moo3dSpec&) const { return "moo3d"; }
        const char* operator()(const TransformerSpec&) const { return "transformer"; }
        const char* operator()(const ScalingSpec&) const { return "scaling"; }
    };
    return std::visit(Namer{}, spec);
}

util::Json to_json(const SpecVariant& spec) {
    return std::visit([](const auto& s) { return to_json(s); }, spec);
}

SpecVariant spec_from_json(const util::Json& j, const std::string& kind) {
    if (kind == "sweep") return sweep_spec_from_json(j);
    if (kind == "serve_grid") return serve_grid_spec_from_json(j);
    if (kind == "cluster") return cluster_spec_from_json(j);
    if (kind == "moo3d") return moo3d_spec_from_json(j);
    if (kind == "transformer") return transformer_spec_from_json(j);
    if (kind == "scaling") return scaling_spec_from_json(j);
    throw std::invalid_argument(
        "unknown spec kind \"" + kind +
        "\" (expected sweep|serve_grid|cluster|moo3d|transformer|scaling)");
}

std::uint64_t spec_hash(const SpecVariant& spec) {
    std::uint64_t h = util::fnv1a(spec_kind_name(spec));
    h = util::fnv1a(":", h);
    return util::fnv1a(util::json_serialize_compact(to_json(spec)), h);
}

std::vector<core::SweepPoint> scaling_points(const ScalingSpec& s) {
    std::vector<core::SweepPoint> points;
    points.reserve(s.sides.size() * s.archs.size());
    for (const auto side : s.sides) {
        // A fresh generator per side: each side's mix depends only on
        // (mix_seed, side), never on the position in the sides list.
        util::Rng mix_rng(s.mix_seed);
        std::string label = "S";
        label += std::to_string(side);
        const auto mix = workload::random_mix(mix_rng, 3 + side, label);
        for (const auto arch : s.archs) {
            core::SweepPoint p;
            p.arch = arch;
            p.width = side;
            p.height = side;
            p.mix = mix;
            p.eval = s.eval;
            p.swap_seed = s.swap_seed;
            p.greedy_max_gap = s.greedy_max_gap;
            p.run_seed = s.run_seed;
            points.push_back(std::move(p));
        }
    }
    return points;
}

void Registry::add(Scenario s) {
    if (!s.report)
        throw std::invalid_argument("scenario \"" + s.name +
                                    "\" has no report function");
    if (find(s.name) != nullptr)
        throw std::invalid_argument("duplicate scenario \"" + s.name + "\"");
    scenarios_.push_back(std::move(s));
}

const Scenario* Registry::find(const std::string& name) const {
    const auto it = std::find_if(scenarios_.begin(), scenarios_.end(),
                                 [&](const Scenario& s) { return s.name == name; });
    return it == scenarios_.end() ? nullptr : &*it;
}

const Scenario& Registry::at(const std::string& name) const {
    if (const Scenario* s = find(name)) return *s;
    std::string known;
    for (const auto& s : scenarios_) {
        if (!known.empty()) known += ", ";
        known += s.name;
    }
    throw std::invalid_argument("unknown scenario \"" + name + "\" (registered: " +
                                known + ")");
}

void set_seed(SpecVariant& spec, std::uint64_t seed) {
    if (auto* sweep = std::get_if<core::SweepSpec>(&spec))
        sweep->run_seed = seed;
    else if (auto* grid = std::get_if<ServeGridSpec>(&spec))
        grid->base.base_seed = seed;
    else if (auto* cluster = std::get_if<ClusterSpec>(&spec))
        cluster->base.base_seed = seed;
    else if (auto* moo = std::get_if<Moo3dSpec>(&spec))
        moo->seed = seed;
    else if (auto* scaling = std::get_if<ScalingSpec>(&spec))
        scaling->mix_seed = seed;
    // TransformerSpec: fully deterministic, nothing to seed.
}

std::uint64_t effective_seed(const SpecVariant& spec) {
    if (const auto* sweep = std::get_if<core::SweepSpec>(&spec))
        return sweep->run_seed;
    if (const auto* grid = std::get_if<ServeGridSpec>(&spec))
        return grid->base.base_seed;
    if (const auto* cluster = std::get_if<ClusterSpec>(&spec))
        return cluster->base.base_seed;
    if (const auto* moo = std::get_if<Moo3dSpec>(&spec)) return moo->seed;
    if (const auto* scaling = std::get_if<ScalingSpec>(&spec))
        return scaling->mix_seed;
    return 0;
}

bool is_eval_override_key(std::string_view key) {
    return key == "traffic_scale" || key == "max_cycles" ||
           key == "injection_rate";
}

std::string override_keys_help() {
    return "grid, grids, archs, mixes, traffic_scale, max_cycles, "
           "injection_rate, swap_seed, greedy_max_gap, seed, "
           "max_requests, replications, loads, fabrics, max_batch, balance, "
           "iterations, workloads, models, batches, sides, lambdas";
}

bool apply_override(SpecVariant& spec, std::string_view key,
                    std::string_view value) {
    auto* sweep = std::get_if<core::SweepSpec>(&spec);
    auto* grid = std::get_if<ServeGridSpec>(&spec);
    auto* cluster = std::get_if<ClusterSpec>(&spec);
    auto* moo = std::get_if<Moo3dSpec>(&spec);
    auto* transformer = std::get_if<TransformerSpec>(&spec);
    auto* scaling = std::get_if<ScalingSpec>(&spec);
    // The serving kinds share a base ServeSpec; overrides that land on it
    // apply identically to both.
    serve::ServeSpec* serve_base =
        grid ? &grid->base : (cluster ? &cluster->base : nullptr);

    if (key == "grid" || key == "grids") {
        std::vector<std::pair<std::int32_t, std::int32_t>> grids;
        for (const auto& g : split_csv(value)) grids.push_back(parse_grid(key, g));
        if (grids.empty()) bad_value(key, value, "empty grid list");
        if (sweep) {
            sweep->grids = std::move(grids);
            return true;
        }
        if (grids.size() != 1)
            bad_value(key, value, "this scenario kind takes exactly one grid");
        if (serve_base) {
            serve_base->width = grids.front().first;
            serve_base->height = grids.front().second;
            return true;
        }
        if (moo) {
            moo->width = grids.front().first;
            moo->height = grids.front().second;
            return true;
        }
        if (transformer) {
            transformer->hetero.macro_width = grids.front().first;
            transformer->hetero.macro_height = grids.front().second;
            return true;
        }
        // Scaling systems are square by construction: sides defines them.
        return false;
    }
    if (key == "archs") {
        auto archs = parse_archs(key, value);
        if (sweep) {
            sweep->archs = std::move(archs);
            return true;
        }
        if (grid) {
            grid->archs = std::move(archs);
            return true;
        }
        if (cluster) {
            if (archs.size() != 1)
                bad_value(key, value,
                          "the cluster scenario replicates one architecture");
            cluster->base.arch = archs.front();
            return true;
        }
        if (scaling) {
            scaling->archs = std::move(archs);
            return true;
        }
        return false;
    }
    if (key == "mixes") {
        if (!sweep) return false;
        std::vector<workload::ConcurrentMix> mixes;
        for (const auto& name : split_csv(value)) {
            try {
                mixes.push_back(mix_from_json(util::Json(name)));
            } catch (const std::invalid_argument& e) {
                bad_value(key, value, e.what());
            }
        }
        if (mixes.empty()) bad_value(key, value, "empty mix list");
        sweep->mixes = std::move(mixes);
        return true;
    }
    if (key == "traffic_scale") {
        const double scale = parse_ratio(key, value);
        if (scale <= 0.0 || scale > 1.0)
            bad_value(key, value, "traffic scale must be in (0, 1]");
        return mutate_evals(spec,
                            [&](core::EvalConfig& e) { e.traffic_scale = scale; });
    }
    if (key == "max_cycles") {
        const std::int64_t cap = parse_int(key, value);
        if (cap <= 0) bad_value(key, value, "cycle cap must be positive");
        return mutate_evals(spec,
                            [&](core::EvalConfig& e) { e.sim.max_cycles = cap; });
    }
    if (key == "injection_rate") {
        const double rate = parse_double(key, value);
        if (rate <= 0.0) bad_value(key, value, "injection rate must be positive");
        return mutate_evals(
            spec, [&](core::EvalConfig& e) { e.sim.injection_rate = rate; });
    }
    if (key == "swap_seed") {
        const std::uint64_t seed = parse_uint(key, value);
        if (sweep) {
            sweep->swap_seed = seed;
            return true;
        }
        if (serve_base) {
            serve_base->swap_seed = seed;
            return true;
        }
        if (scaling) {
            scaling->swap_seed = seed;
            return true;
        }
        return false;
    }
    if (key == "greedy_max_gap") {
        const std::int64_t gap = parse_int(key, value);
        if (gap < INT32_MIN || gap > INT32_MAX)
            bad_value(key, value, "out of int32 range");
        if (sweep) {
            sweep->greedy_max_gap = static_cast<std::int32_t>(gap);
            return true;
        }
        if (serve_base) {
            serve_base->greedy_max_gap = static_cast<std::int32_t>(gap);
            return true;
        }
        if (scaling) {
            scaling->greedy_max_gap = static_cast<std::int32_t>(gap);
            return true;
        }
        return false;
    }
    if (key == "seed") {
        if (transformer) return false;  // deterministic: see set_seed
        set_seed(spec, parse_uint(key, value));
        return true;
    }
    if (key == "iterations") {
        if (!moo) return false;
        const std::int64_t n = parse_int(key, value);
        if (n < 0 || n > INT32_MAX)
            bad_value(key, value, "iteration count must be a non-negative int32");
        moo->iterations = static_cast<std::int32_t>(n);
        return true;
    }
    if (key == "workloads") {
        if (!moo) return false;
        std::vector<std::string> ids;
        for (const auto& id : split_csv(value)) {
            try {
                (void)workload::workload_by_id(id);
            } catch (const std::exception& e) {
                bad_value(key, value, e.what());
            }
            ids.push_back(id);
        }
        if (ids.empty()) bad_value(key, value, "empty workload list");
        moo->workloads = std::move(ids);
        return true;
    }
    if (key == "models") {
        if (!transformer) return false;
        std::vector<std::string> models;
        for (const auto& name : split_csv(value)) {
            try {
                (void)transformer_model_from_name(name);
            } catch (const std::invalid_argument& e) {
                bad_value(key, value, e.what());
            }
            models.push_back(ascii_lower(name));
        }
        if (models.empty()) bad_value(key, value, "empty model list");
        transformer->models = std::move(models);
        return true;
    }
    if (key == "batches") {
        if (!transformer) return false;
        transformer->batches = parse_positive_int32_list(key, value, "batch");
        return true;
    }
    if (key == "sides") {
        if (!scaling) return false;
        scaling->sides = parse_positive_int32_list(key, value, "side");
        return true;
    }
    if (key == "lambdas") {
        if (!scaling) return false;
        scaling->lambdas = parse_positive_int32_list(key, value, "lambda");
        return true;
    }
    if (key == "max_requests") {
        if (!serve_base) return false;
        const std::int64_t n = parse_int(key, value);
        if (n <= 0) bad_value(key, value, "request count must be positive");
        serve_base->config.arrivals.max_requests = n;
        return true;
    }
    if (key == "replications") {
        if (!serve_base) return false;
        const std::int64_t n = parse_int(key, value);
        if (n <= 0 || n > INT32_MAX)
            bad_value(key, value, "replication count must be a positive int32");
        serve_base->replications = static_cast<std::int32_t>(n);
        return true;
    }
    if (key == "loads") {
        if (!grid && !cluster) return false;
        std::vector<double> loads;
        for (const auto& l : split_csv(value)) loads.push_back(parse_double(key, l));
        if (loads.empty()) bad_value(key, value, "empty load list");
        for (const double l : loads)
            if (l <= 0.0) bad_value(key, value, "offered loads must be positive");
        if (grid)
            grid->loads_per_mcycle = std::move(loads);
        else
            cluster->loads_per_mcycle = std::move(loads);
        return true;
    }
    if (key == "fabrics") {
        if (!cluster) return false;
        cluster->cluster_sizes =
            parse_positive_int32_list(key, value, "cluster size");
        return true;
    }
    if (key == "max_batch") {
        if (!cluster) return false;
        cluster->batch_caps = parse_positive_int32_list(key, value, "batch cap");
        return true;
    }
    if (key == "balance") {
        if (!cluster) return false;
        try {
            cluster->balance =
                balance_policy_from_json(util::Json(std::string(value)));
        } catch (const std::invalid_argument& e) {
            bad_value(key, value, e.what());
        }
        return true;
    }
    throw std::invalid_argument("--set: unknown key \"" + std::string(key) +
                                "\" (supported: " + override_keys_help() + ")");
}

}  // namespace floretsim::scenario
