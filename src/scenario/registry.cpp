#include "src/scenario/registry.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <stdexcept>
#include <utility>

#include "src/util/hash.h"
#include "src/util/rng.h"

namespace floretsim::scenario {
namespace {

using util::Json;

[[noreturn]] void bad_value(std::string_view key, std::string_view value,
                            const std::string& why) {
    throw std::invalid_argument("--set " + std::string(key) + "=" +
                                std::string(value) + ": " + why);
}

/// How the comma-separated items of a --set value become JSON: names and
/// "WxH" grids stay strings, numbers keep their lexical class (so a 64-bit
/// seed stays exact), and a ratio also takes the bench-doc notation
/// "1/128".
enum class Syntax : std::uint8_t { kName, kNumber, kRatio };

/// One --set key and the spec field it means in each spec kind, as a path
/// into the kind's JSON (to_json), in SpecVariant order: sweep, serve_grid,
/// cluster, moo3d, transformer, scaling. A path is dot-separated, "*"
/// writes every element of an array, and an empty path means the key does
/// not apply to that kind. A grid written to "W|H" puts its width at path
/// W and its height at path H. The key checks nothing about the value:
/// the patched JSON is re-parsed by the strict codec, so --set and --spec
/// files accept exactly the same values.
struct OverrideKey {
    std::string_view key;
    Syntax syntax;
    std::array<std::string_view, std::variant_size_v<SpecVariant>> paths;
};

constexpr OverrideKey kOverrideKeys[] = {
    {"grid", Syntax::kName,
     {"grids", "base.grid", "base.grid", "grid",
      "hetero.macro_width|hetero.macro_height", ""}},
    {"grids", Syntax::kName,
     {"grids", "base.grid", "base.grid", "grid",
      "hetero.macro_width|hetero.macro_height", ""}},
    {"archs", Syntax::kName, {"archs", "archs", "base.arch", "", "", "archs"}},
    {"mixes", Syntax::kName, {"mixes", "", "", "", "", ""}},
    {"traffic_scale", Syntax::kRatio,
     {"evals.*.traffic_scale", "base.config.eval.traffic_scale",
      "base.config.eval.traffic_scale", "", "", "eval.traffic_scale"}},
    {"max_cycles", Syntax::kNumber,
     {"evals.*.sim.max_cycles", "base.config.eval.sim.max_cycles",
      "base.config.eval.sim.max_cycles", "", "", "eval.sim.max_cycles"}},
    {"injection_rate", Syntax::kNumber,
     {"evals.*.sim.injection_rate", "base.config.eval.sim.injection_rate",
      "base.config.eval.sim.injection_rate", "", "", "eval.sim.injection_rate"}},
    {"swap_seed", Syntax::kNumber,
     {"swap_seed", "base.swap_seed", "base.swap_seed", "", "", "swap_seed"}},
    {"greedy_max_gap", Syntax::kNumber,
     {"greedy_max_gap", "base.greedy_max_gap", "base.greedy_max_gap", "", "",
      "greedy_max_gap"}},
    // Transformer studies are fully deterministic: nothing to seed.
    {"seed", Syntax::kNumber,
     {"run_seed", "base.base_seed", "base.base_seed", "seed", "", "mix_seed"}},
    {"max_requests", Syntax::kNumber,
     {"", "base.config.arrivals.max_requests", "base.config.arrivals.max_requests",
      "", "", ""}},
    {"replications", Syntax::kNumber,
     {"", "base.replications", "base.replications", "", "", ""}},
    {"loads", Syntax::kNumber,
     {"", "loads_per_mcycle", "loads_per_mcycle", "", "", ""}},
    {"fabrics", Syntax::kNumber, {"", "", "cluster_sizes", "", "", ""}},
    {"max_batch", Syntax::kNumber, {"", "", "batch_caps", "", "", ""}},
    {"balance", Syntax::kName, {"", "", "balance", "", "", ""}},
    {"iterations", Syntax::kNumber, {"", "", "", "iterations", "", ""}},
    {"workloads", Syntax::kName, {"", "", "", "workloads", "", ""}},
    {"models", Syntax::kName, {"", "", "", "", "models", ""}},
    {"batches", Syntax::kNumber, {"", "", "", "", "batches", ""}},
    {"sides", Syntax::kNumber, {"", "", "", "", "", "sides"}},
    {"lambdas", Syntax::kNumber, {"", "", "", "", "", "lambdas"}},
};

const OverrideKey* find_key(std::string_view key) {
    for (const auto& row : kOverrideKeys)
        if (row.key == key) return &row;
    return nullptr;
}

Json number_json(std::string_view key, std::string_view value,
                 std::string_view item) {
    const char* first = item.data();
    const char* last = first + item.size();
    const auto parses = [&](auto& v) {
        const auto [p, ec] = std::from_chars(first, last, v);
        return ec == std::errc() && p == last;
    };
    if (std::int64_t i = 0; parses(i)) return Json(i);
    if (std::uint64_t u = 0; parses(u)) return Json(u);
    if (double d = 0.0; parses(d)) return Json(d);
    bad_value(key, value, "expected a number");
}

Json item_json(Syntax syntax, std::string_view key, std::string_view value,
               std::string_view item) {
    switch (syntax) {
        case Syntax::kNumber: return number_json(key, value, item);
        case Syntax::kRatio: {
            const std::size_t slash = item.find('/');
            if (slash == std::string_view::npos) return number_json(key, value, item);
            return Json(number_json(key, value, item.substr(0, slash)).as_double() /
                        number_json(key, value, item.substr(slash + 1)).as_double());
        }
        case Syntax::kName: break;
    }
    return Json(std::string(item));
}

/// Splits a path into its first segment and the rest.
std::pair<std::string_view, std::string_view> split_path(std::string_view path) {
    const std::size_t dot = path.find('.');
    if (dot == std::string_view::npos) return {path, {}};
    return {path.substr(0, dot), path.substr(dot + 1)};
}

/// The value at `path` ("*" reads an array's first element).
const Json& value_at(const Json& node, std::string_view path) {
    if (path.empty()) return node;
    const auto [head, rest] = split_path(path);
    return value_at(head == "*" ? node.as_array().at(0) : *node.find(head), rest);
}

/// `node` with `value` written at `path` ("*" writes every element).
Json replaced(const Json& node, std::string_view path, const Json& value) {
    if (path.empty()) return value;
    const auto [head, rest] = split_path(path);
    if (head == "*") {
        Json out = Json::array();
        for (const Json& item : node.as_array()) out.push_back(replaced(item, rest, value));
        return out;
    }
    Json out = Json::object();
    for (const auto& [name, child] : node.as_object())
        out.set(name, name == head ? replaced(child, rest, value) : child);
    return out;
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
    (void)apply_override(spec, "seed", std::to_string(seed));
}

std::uint64_t effective_seed(const SpecVariant& spec) {
    const std::string_view path = find_key("seed")->paths[spec.index()];
    return path.empty() ? 0 : value_at(to_json(spec), path).as_uint();
}

bool is_eval_override_key(std::string_view key) {
    // Every eval knob lands in a sweep's eval list.
    const OverrideKey* row = find_key(key);
    return row != nullptr && row->paths[0].starts_with("evals.");
}

std::string override_keys_help() {
    std::string help;
    for (const auto& row : kOverrideKeys) {
        if (!help.empty()) help += ", ";
        help += row.key;
    }
    return help;
}

bool apply_override(SpecVariant& spec, std::string_view key,
                    std::string_view value) {
    const OverrideKey* row = find_key(key);
    if (row == nullptr)
        throw std::invalid_argument("--set: unknown key \"" + std::string(key) +
                                    "\" (supported: " + override_keys_help() + ")");
    const std::string_view path = row->paths[spec.index()];
    if (path.empty()) return false;
    std::vector<Json> items;
    for (const auto& item : split_csv(value))
        items.push_back(item_json(row->syntax, key, value, item));
    if (items.empty()) bad_value(key, value, "expected a value");
    const auto one_item = [&]() -> const Json& {
        if (items.size() != 1)
            bad_value(key, value, "this scenario kind takes exactly one value");
        return items.front();
    };

    Json doc = to_json(spec);
    // An empty sweep eval list means "the experiment default": materialize
    // it, or an eval override would be silently lost at expand() time.
    if (path.starts_with("evals.") && value_at(doc, "evals").as_array().empty())
        doc = replaced(doc, "evals",
                       Json::array({to_json(core::experiment::default_eval_config())}));
    if (const std::size_t bar = path.find('|'); bar != std::string_view::npos) {
        // A grid split over two integer fields (width|height).
        const std::string_view grid = one_item().as_string();
        const std::size_t x = grid.find('x');
        if (x == std::string_view::npos) bad_value(key, value, "expected WxH, e.g. 12x12");
        doc = replaced(doc, path.substr(0, bar), number_json(key, value, grid.substr(0, x)));
        doc = replaced(doc, path.substr(bar + 1), number_json(key, value, grid.substr(x + 1)));
    } else {
        // The field's current shape says whether it holds a list.
        const bool list = value_at(doc, path).kind() == Json::Kind::kArray;
        doc = replaced(doc, path, list ? Json::array(items) : one_item());
    }
    try {
        spec = spec_from_json(doc, spec_kind_name(spec));
    } catch (const std::invalid_argument& e) {
        bad_value(key, value, e.what());
    }
    return true;
}

}  // namespace floretsim::scenario
