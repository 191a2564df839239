#include "src/scenario/spec_json.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <set>
#include <stdexcept>
#include <string_view>
#include <tuple>

namespace floretsim::scenario {
namespace {

using util::Json;

[[noreturn]] void bad(const std::string& context, const std::string& msg) {
    throw std::invalid_argument("spec " + context + ": " + msg);
}

/// Checked narrowing for spec fields: a 64-bit value that does not fit
/// int32 must fail loudly, never wrap into a silently-different sweep.
std::int32_t to_int32(std::int64_t v, const char* what) {
    if (v < INT32_MIN || v > INT32_MAX)
        throw std::invalid_argument(std::string(what) + " out of int32 range");
    return static_cast<std::int32_t>(v);
}

/// List items that must be positive: fabric counts, batch sizes, sides.
std::int32_t positive_int32(const Json& j) {
    const std::int32_t v = to_int32(j.as_int(), "value");
    if (v <= 0) throw std::invalid_argument("must be positive, got " + std::to_string(v));
    return v;
}

/// Offered loads and conductances: finite and positive.
double positive_double(const Json& j) {
    const double v = j.as_double();
    if (!(std::isfinite(v) && v > 0.0))
        throw std::invalid_argument("must be finite and > 0, got " + std::to_string(v));
    return v;
}

/// A Table I workload id, validated.
std::string workload_id_from_json(const Json& j) {
    (void)workload::workload_by_id(j.as_string());  // throws on an unknown id
    return j.as_string();
}

/// Strict object reader: typed field extraction with
/// keep-the-default-when-absent semantics, and unknown-key rejection via
/// finish() — every from_json function below must consume (or at least
/// probe) all keys it understands, then call finish().
class ObjectReader {
public:
    ObjectReader(const Json& j, std::string context) : context_(std::move(context)) {
        if (j.kind() != Json::Kind::kObject)
            bad(context_, std::string("expected an object, got ") + j.kind_name());
        json_ = &j;
    }

    /// Marks `key` consumed; nullptr when absent.
    const Json* find(const std::string& key) {
        consumed_.insert(key);
        return json_->find(key);
    }

    template <typename T, typename Fn>
    void read_with(const std::string& key, T& out, Fn&& convert) {
        if (const Json* v = find(key)) {
            try {
                out = convert(*v);
            } catch (const std::invalid_argument& e) {
                // A nested reader's message already says "spec ".
                std::string_view msg = e.what();
                if (msg.starts_with("spec ")) msg.remove_prefix(5);
                bad(context_ + "." + key, std::string(msg));
            }
        }
    }

    void read(const std::string& key, bool& out) {
        read_with(key, out, [](const Json& v) { return v.as_bool(); });
    }
    void read(const std::string& key, std::int32_t& out) {
        read_with(key, out, [](const Json& v) { return to_int32(v.as_int(), "value"); });
    }
    void read(const std::string& key, std::int64_t& out) {
        read_with(key, out, [](const Json& v) { return v.as_int(); });
    }
    void read(const std::string& key, std::uint64_t& out) {
        read_with(key, out, [](const Json& v) { return v.as_uint(); });
    }
    void read(const std::string& key, double& out) {
        read_with(key, out, [](const Json& v) { return v.as_double(); });
    }
    void read(const std::string& key, std::string& out) {
        read_with(key, out, [](const Json& v) { return v.as_string(); });
    }

    /// Replaces `out` with the array at `key`, converting item by item;
    /// as with read_with, an error names the field.
    template <typename T, typename Fn>
    void read_list(const std::string& key, std::vector<T>& out, Fn&& convert) {
        read_with(key, out, [&](const Json& v) {
            std::vector<T> items;
            for (const Json& item : v.as_array()) items.push_back(convert(item));
            return items;
        });
    }

    /// Rejects any key the caller never probed.
    void finish() {
        for (const auto& [key, value] : json_->as_object()) {
            (void)value;
            if (!consumed_.contains(key))
                bad(context_, "unknown key \"" + key + "\"");
        }
    }

private:
    const Json* json_ = nullptr;
    std::string context_;
    std::set<std::string, std::less<>> consumed_;
};

}  // namespace

std::string ascii_lower(std::string s) {
    std::transform(s.begin(), s.end(), s.begin(),
                   [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
    return s;
}

// ---- Enums ------------------------------------------------------------------

Json to_json(core::experiment::Arch a) {
    return Json(ascii_lower(core::experiment::arch_name(a)));
}

core::experiment::Arch arch_from_string(const std::string& s) {
    const std::string v = ascii_lower(s);
    using core::experiment::Arch;
    if (v == "kite") return Arch::kKite;
    if (v == "siam" || v == "siam-mesh" || v == "mesh") return Arch::kSiamMesh;
    if (v == "swap") return Arch::kSwap;
    if (v == "floret") return Arch::kFloret;
    throw std::invalid_argument("unknown architecture \"" + s +
                                "\" (expected kite|siam|swap|floret)");
}

core::experiment::Arch arch_from_json(const Json& j) {
    return arch_from_string(j.as_string());
}

Json to_json(serve::AdmissionPolicy p) {
    switch (p) {
        case serve::AdmissionPolicy::kFifo: return Json("fifo");
        case serve::AdmissionPolicy::kEarliestDeadline: return Json("edf");
        case serve::AdmissionPolicy::kRejectOnFull: return Json("reject-on-full");
        case serve::AdmissionPolicy::kEdfEvict: return Json("edf-evict");
    }
    return Json("fifo");
}

serve::AdmissionPolicy admission_policy_from_json(const Json& j) {
    const std::string v = ascii_lower(j.as_string());
    if (v == "fifo") return serve::AdmissionPolicy::kFifo;
    if (v == "edf" || v == "earliest-deadline")
        return serve::AdmissionPolicy::kEarliestDeadline;
    if (v == "reject-on-full") return serve::AdmissionPolicy::kRejectOnFull;
    if (v == "edf-evict") return serve::AdmissionPolicy::kEdfEvict;
    throw std::invalid_argument("unknown admission policy \"" + j.as_string() +
                                "\" (expected fifo|edf|reject-on-full|edf-evict)");
}

Json to_json(serve::BalancePolicy p) {
    return Json(serve::balance_policy_name(p));
}

serve::BalancePolicy balance_policy_from_json(const Json& j) {
    const std::string v = ascii_lower(j.as_string());
    if (v == "least-loaded") return serve::BalancePolicy::kLeastLoaded;
    if (v == "model-affinity" || v == "affinity")
        return serve::BalancePolicy::kModelAffinity;
    throw std::invalid_argument("unknown balance policy \"" + j.as_string() +
                                "\" (expected least-loaded|model-affinity)");
}

Json to_json(serve::ArrivalProcess p) {
    return Json(ascii_lower(serve::arrival_process_name(p)));
}

serve::ArrivalProcess arrival_process_from_json(const Json& j) {
    const std::string v = ascii_lower(j.as_string());
    if (v == "poisson") return serve::ArrivalProcess::kPoisson;
    if (v == "mmpp") return serve::ArrivalProcess::kMmpp;
    if (v == "trace") return serve::ArrivalProcess::kTrace;
    throw std::invalid_argument("unknown arrival process \"" + j.as_string() +
                                "\" (expected poisson|mmpp|trace)");
}

// ---- Simulator / evaluation knobs ------------------------------------------

Json to_json(const noc::SimConfig& c) {
    Json j = Json::object();
    j.set("flit_bytes", c.flit_bytes);
    j.set("max_packet_flits", c.max_packet_flits);
    j.set("input_buffer_flits", c.input_buffer_flits);
    j.set("router_delay_cycles", c.router_delay_cycles);
    j.set("mm_per_cycle", c.mm_per_cycle);
    j.set("max_cycles", c.max_cycles);
    j.set("injection_rate", c.injection_rate);
    return j;
}

noc::SimConfig sim_config_from_json(const Json& j) {
    noc::SimConfig c;
    ObjectReader r(j, "sim");
    r.read("flit_bytes", c.flit_bytes);
    r.read("max_packet_flits", c.max_packet_flits);
    r.read("input_buffer_flits", c.input_buffer_flits);
    r.read("router_delay_cycles", c.router_delay_cycles);
    r.read("mm_per_cycle", c.mm_per_cycle);
    r.read("max_cycles", c.max_cycles);
    r.read("injection_rate", c.injection_rate);
    r.finish();
    noc::validate_sim_config(c);
    return c;
}

Json to_json(const cost::CostParams& c) {
    Json j = Json::object();
    j.set("router_area_base_mm2", c.router_area_base_mm2);
    j.set("router_area_per_port_mm2", c.router_area_per_port_mm2);
    j.set("router_area_per_port2_mm2", c.router_area_per_port2_mm2);
    j.set("link_area_per_mm_mm2", c.link_area_per_mm_mm2);
    j.set("router_energy_base_pj", c.router_energy_base_pj);
    j.set("router_energy_per_port_pj", c.router_energy_per_port_pj);
    j.set("link_energy_per_mm_pj", c.link_energy_per_mm_pj);
    j.set("router_leakage_base_mw", c.router_leakage_base_mw);
    j.set("router_leakage_per_port2_mw", c.router_leakage_per_port2_mw);
    j.set("link_leakage_per_mm_mw", c.link_leakage_per_mm_mw);
    j.set("defect_density_per_mm2", c.defect_density_per_mm2);
    j.set("ref_noi_area_mm2", c.ref_noi_area_mm2);
    j.set("ref_chiplets", c.ref_chiplets);
    return j;
}

cost::CostParams cost_params_from_json(const Json& j) {
    cost::CostParams c;
    ObjectReader r(j, "cost");
    r.read("router_area_base_mm2", c.router_area_base_mm2);
    r.read("router_area_per_port_mm2", c.router_area_per_port_mm2);
    r.read("router_area_per_port2_mm2", c.router_area_per_port2_mm2);
    r.read("link_area_per_mm_mm2", c.link_area_per_mm_mm2);
    r.read("router_energy_base_pj", c.router_energy_base_pj);
    r.read("router_energy_per_port_pj", c.router_energy_per_port_pj);
    r.read("link_energy_per_mm_pj", c.link_energy_per_mm_pj);
    r.read("router_leakage_base_mw", c.router_leakage_base_mw);
    r.read("router_leakage_per_port2_mw", c.router_leakage_per_port2_mw);
    r.read("link_leakage_per_mm_mw", c.link_leakage_per_mm_mw);
    r.read("defect_density_per_mm2", c.defect_density_per_mm2);
    r.read("ref_noi_area_mm2", c.ref_noi_area_mm2);
    r.read("ref_chiplets", c.ref_chiplets);
    r.finish();
    return c;
}

Json to_json(const core::EvalConfig& c) {
    Json j = Json::object();
    j.set("sim", to_json(c.sim));
    j.set("cost", to_json(c.cost));
    j.set("bytes_per_elem", c.bytes_per_elem);
    j.set("traffic_scale", c.traffic_scale);
    j.set("include_weight_load", c.include_weight_load);
    j.set("io_node", c.io_node);
    return j;
}

core::EvalConfig eval_config_from_json(const Json& j) {
    core::EvalConfig c;
    ObjectReader r(j, "eval");
    r.read_with("sim", c.sim, sim_config_from_json);
    r.read_with("cost", c.cost, cost_params_from_json);
    r.read("bytes_per_elem", c.bytes_per_elem);
    r.read("traffic_scale", c.traffic_scale);
    r.read("include_weight_load", c.include_weight_load);
    r.read("io_node", c.io_node);
    r.finish();
    if (!(c.traffic_scale > 0.0 && c.traffic_scale <= 1.0))
        bad("eval.traffic_scale",
            "must be in (0, 1], got " + std::to_string(c.traffic_scale));
    return c;
}

// ---- Workload mixes ---------------------------------------------------------

Json to_json(const workload::ConcurrentMix& m) {
    for (const auto& canonical : workload::table2())
        if (canonical.name == m.name && canonical == m) return Json(m.name);
    Json j = Json::object();
    j.set("name", m.name);
    Json entries = Json::array();
    for (const auto& [id, count] : m.entries) {
        Json e = Json::array();
        e.push_back(id);
        e.push_back(count);
        entries.push_back(std::move(e));
    }
    j.set("entries", std::move(entries));
    j.set("paper_total_params_b", m.paper_total_params_b);
    return j;
}

workload::ConcurrentMix mix_from_json(const Json& j) {
    if (j.kind() == Json::Kind::kString) {
        const std::string& name = j.as_string();
        for (const auto& m : workload::table2())
            if (m.name == name) return m;
        throw std::invalid_argument("unknown Table II mix \"" + name + "\"");
    }
    workload::ConcurrentMix m;
    ObjectReader r(j, "mix");
    r.read("name", m.name);
    if (const Json* entries = r.find("entries")) {
        for (const Json& e : entries->as_array()) {
            const auto& pair = e.as_array();
            if (pair.size() != 2)
                bad("mix.entries", "each entry must be [workload_id, count]");
            const std::string& id = pair[0].as_string();
            (void)workload::workload_by_id(id);  // throws on an unknown id
            const std::int32_t count =
                to_int32(pair[1].as_int(), "mix instance count");
            if (count <= 0) bad("mix.entries", "instance count must be positive");
            m.entries.emplace_back(id, count);
        }
    }
    r.read("paper_total_params_b", m.paper_total_params_b);
    r.finish();
    if (m.name.empty()) bad("mix", "custom mixes need a \"name\"");
    if (m.entries.empty()) bad("mix", "custom mixes need \"entries\"");
    return m;
}

// ---- Sweep specs ------------------------------------------------------------

namespace {

std::pair<std::int32_t, std::int32_t> grid_from_json(const Json& j) {
    if (j.kind() == Json::Kind::kString) return grid_from_string(j.as_string());
    const auto& pair = j.as_array();
    if (pair.size() != 2)
        throw std::invalid_argument("grid array must be [width, height]");
    const std::int32_t w = to_int32(pair[0].as_int(), "grid width");
    const std::int32_t h = to_int32(pair[1].as_int(), "grid height");
    if (w <= 0 || h <= 0) throw std::invalid_argument("grid sides must be positive");
    return {w, h};
}

Json grid_to_json(std::pair<std::int32_t, std::int32_t> g) {
    return Json(std::to_string(g.first) + "x" + std::to_string(g.second));
}

}  // namespace

std::pair<std::int32_t, std::int32_t> grid_from_string(const std::string& s) {
    const std::size_t x = s.find('x');
    if (x != std::string::npos && x > 0 && x + 1 < s.size()) {
        const auto side = [&](std::size_t from, std::size_t to) {
            std::int32_t v = -1;
            const auto [p, ec] = std::from_chars(s.data() + from, s.data() + to, v);
            return (ec == std::errc() && p == s.data() + to) ? v : -1;
        };
        const std::int32_t w = side(0, x);
        const std::int32_t h = side(x + 1, s.size());
        if (w > 0 && h > 0) return {w, h};
    }
    throw std::invalid_argument("grid \"" + s + "\" is not \"WxH\"");
}

Json to_json(const core::SweepSpec& s) {
    Json j = Json::object();
    Json archs = Json::array();
    for (const auto a : s.archs) archs.push_back(to_json(a));
    j.set("archs", std::move(archs));
    Json grids = Json::array();
    for (const auto& g : s.grids) grids.push_back(grid_to_json(g));
    j.set("grids", std::move(grids));
    Json mixes = Json::array();
    for (const auto& m : s.mixes) mixes.push_back(to_json(m));
    j.set("mixes", std::move(mixes));
    Json evals = Json::array();
    for (const auto& e : s.evals) evals.push_back(to_json(e));
    j.set("evals", std::move(evals));
    j.set("swap_seed", s.swap_seed);
    j.set("greedy_max_gap", s.greedy_max_gap);
    j.set("run_seed", s.run_seed);
    return j;
}

core::SweepSpec sweep_spec_from_json(const Json& j) {
    core::SweepSpec s;
    ObjectReader r(j, "sweep");
    r.read_list("archs", s.archs, arch_from_json);
    r.read_list("grids", s.grids, grid_from_json);
    r.read_list("mixes", s.mixes, mix_from_json);
    r.read_list("evals", s.evals, eval_config_from_json);
    r.read("swap_seed", s.swap_seed);
    r.read("greedy_max_gap", s.greedy_max_gap);
    r.read("run_seed", s.run_seed);
    r.finish();
    return s;
}

Json to_json(const core::SweepPoint& p) {
    Json j = Json::object();
    j.set("arch", to_json(p.arch));
    j.set("grid", grid_to_json({p.width, p.height}));
    j.set("mix", to_json(p.mix));
    j.set("eval", to_json(p.eval));
    j.set("swap_seed", p.swap_seed);
    j.set("greedy_max_gap", p.greedy_max_gap);
    j.set("run_seed", p.run_seed);
    return j;
}

core::SweepPoint sweep_point_from_json(const Json& j) {
    core::SweepPoint p;
    ObjectReader r(j, "point");
    r.read_with("arch", p.arch, arch_from_json);
    std::pair grid{p.width, p.height};
    r.read_with("grid", grid, grid_from_json);
    std::tie(p.width, p.height) = grid;
    r.read_with("mix", p.mix, mix_from_json);
    r.read_with("eval", p.eval, eval_config_from_json);
    r.read("swap_seed", p.swap_seed);
    r.read("greedy_max_gap", p.greedy_max_gap);
    r.read("run_seed", p.run_seed);
    r.finish();
    return p;
}

Json to_json(const std::vector<core::SweepPoint>& pts) {
    Json j = Json::array();
    for (const auto& p : pts) j.push_back(to_json(p));
    return j;
}

std::vector<core::SweepPoint> sweep_points_from_json(const Json& j) {
    std::vector<core::SweepPoint> pts;
    for (const Json& p : j.as_array()) pts.push_back(sweep_point_from_json(p));
    return pts;
}

// ---- Sweep rows (the return wire format) ------------------------------------

Json to_json(const core::experiment::DynamicResult& r) {
    Json j = Json::object();
    j.set("total_cycles", r.total_cycles);
    j.set("total_energy_pj", r.total_energy_pj);
    j.set("flit_hops", r.flit_hops);
    j.set("rounds", r.rounds);
    j.set("task_rounds", r.task_rounds);
    j.set("all_completed", r.all_completed);
    j.set("noi_evals", r.noi_evals);
    j.set("round_epoch_hits", r.round_epoch_hits);
    j.set("sim_cycles_stepped", r.sim_cycles_stepped);
    j.set("sim_cycles_skipped", r.sim_cycles_skipped);
    j.set("sim_horizon_jumps", r.sim_horizon_jumps);
    return j;
}

core::experiment::DynamicResult dynamic_result_from_json(const Json& j) {
    core::experiment::DynamicResult r;
    ObjectReader rd(j, "result");
    rd.read("total_cycles", r.total_cycles);
    rd.read("total_energy_pj", r.total_energy_pj);
    rd.read("flit_hops", r.flit_hops);
    rd.read("rounds", r.rounds);
    rd.read("task_rounds", r.task_rounds);
    rd.read("all_completed", r.all_completed);
    rd.read("noi_evals", r.noi_evals);
    rd.read("round_epoch_hits", r.round_epoch_hits);
    rd.read("sim_cycles_stepped", r.sim_cycles_stepped);
    rd.read("sim_cycles_skipped", r.sim_cycles_skipped);
    rd.read("sim_horizon_jumps", r.sim_horizon_jumps);
    rd.finish();
    return r;
}

Json to_json(const core::SweepRow& r) {
    Json j = Json::object();
    j.set("point", to_json(r.point));
    j.set("result", to_json(r.result));
    j.set("seconds", r.seconds);
    return j;
}

core::SweepRow sweep_row_from_json(const Json& j) {
    core::SweepRow r;
    ObjectReader rd(j, "row");
    rd.read_with("point", r.point, sweep_point_from_json);
    rd.read_with("result", r.result, dynamic_result_from_json);
    rd.read("seconds", r.seconds);
    rd.finish();
    return r;
}

Json to_json(const std::vector<core::SweepRow>& rows) {
    Json j = Json::array();
    for (const auto& r : rows) j.push_back(to_json(r));
    return j;
}

std::vector<core::SweepRow> sweep_rows_from_json(const Json& j) {
    std::vector<core::SweepRow> rows;
    for (const Json& r : j.as_array()) rows.push_back(sweep_row_from_json(r));
    return rows;
}

// ---- Serving specs ----------------------------------------------------------

Json to_json(const serve::RequestClass& c) {
    Json j = Json::object();
    j.set("name", c.name);
    Json ids = Json::array();
    for (const auto& id : c.workload_ids) ids.push_back(id);
    j.set("workload_ids", std::move(ids));
    j.set("weight", c.weight);
    j.set("slo_cycles", c.slo_cycles);
    return j;
}

serve::RequestClass request_class_from_json(const Json& j) {
    serve::RequestClass c;
    ObjectReader r(j, "class");
    r.read("name", c.name);
    r.read_list("workload_ids", c.workload_ids, workload_id_from_json);
    r.read("weight", c.weight);
    r.read("slo_cycles", c.slo_cycles);
    r.finish();
    if (c.name.empty()) bad("class", "request classes need a \"name\"");
    if (c.workload_ids.empty()) bad("class", "request classes need \"workload_ids\"");
    return c;
}

Json to_json(const serve::ArrivalConfig& c) {
    Json j = Json::object();
    j.set("process", to_json(c.process));
    j.set("rate_per_mcycle", c.rate_per_mcycle);
    j.set("burst_rate_multiplier", c.burst_rate_multiplier);
    j.set("normal_dwell_cycles", c.normal_dwell_cycles);
    j.set("burst_dwell_cycles", c.burst_dwell_cycles);
    Json trace = Json::array();
    for (const double t : c.trace_cycles) trace.push_back(t);
    j.set("trace_cycles", std::move(trace));
    j.set("max_requests", c.max_requests);
    j.set("min_rounds", c.min_rounds);
    j.set("max_rounds", c.max_rounds);
    return j;
}

serve::ArrivalConfig arrival_config_from_json(const Json& j) {
    serve::ArrivalConfig c;
    ObjectReader r(j, "arrivals");
    r.read_with("process", c.process, arrival_process_from_json);
    r.read("rate_per_mcycle", c.rate_per_mcycle);
    r.read("burst_rate_multiplier", c.burst_rate_multiplier);
    r.read("normal_dwell_cycles", c.normal_dwell_cycles);
    r.read("burst_dwell_cycles", c.burst_dwell_cycles);
    r.read_list("trace_cycles", c.trace_cycles,
                [](const Json& t) { return t.as_double(); });
    r.read("max_requests", c.max_requests);
    r.read("min_rounds", c.min_rounds);
    r.read("max_rounds", c.max_rounds);
    r.finish();
    if (c.max_requests <= 0)
        bad("arrivals.max_requests",
            "must be positive, got " + std::to_string(c.max_requests));
    return c;
}

Json to_json(const serve::ServeConfig& c) {
    Json j = Json::object();
    j.set("arrivals", to_json(c.arrivals));
    Json classes = Json::array();
    for (const auto& cls : c.classes) classes.push_back(to_json(cls));
    j.set("classes", std::move(classes));
    j.set("admission", to_json(c.admission));
    j.set("max_queue", static_cast<std::uint64_t>(c.max_queue));
    j.set("max_batch", c.max_batch);
    j.set("batch_traffic_alpha", c.batch_traffic_alpha);
    j.set("eval", to_json(c.eval));
    j.set("params_per_chiplet_m", c.params_per_chiplet_m);
    j.set("seed", c.seed);
    return j;
}

serve::ServeConfig serve_config_from_json(const Json& j) {
    // Defaults start at default_serve_config(), not a bare ServeConfig{}:
    // a user spec that omits "eval" must measure on the same scale (1/64
    // traffic sampling etc.) as every documented serving number.
    serve::ServeConfig c = serve::default_serve_config();
    ObjectReader r(j, "serve");
    r.read_with("arrivals", c.arrivals, arrival_config_from_json);
    r.read_list("classes", c.classes, request_class_from_json);
    r.read_with("admission", c.admission, admission_policy_from_json);
    r.read("max_queue", c.max_queue);
    r.read("max_batch", c.max_batch);
    r.read("batch_traffic_alpha", c.batch_traffic_alpha);
    r.read_with("eval", c.eval, eval_config_from_json);
    r.read("params_per_chiplet_m", c.params_per_chiplet_m);
    r.read("seed", c.seed);
    r.finish();
    if (c.max_batch < 1)
        bad("serve", "\"max_batch\" must be >= 1");
    if (c.batch_traffic_alpha < 0.0)
        bad("serve", "\"batch_traffic_alpha\" must be >= 0");
    // Tenant class names key the per-class report rows; duplicates would
    // silently merge two tenants' SLO accounting.
    for (std::size_t a = 0; a < c.classes.size(); ++a)
        for (std::size_t b = a + 1; b < c.classes.size(); ++b)
            if (c.classes[a].name == c.classes[b].name)
                bad("serve", "duplicate class name \"" + c.classes[a].name +
                                 "\"");
    return c;
}

Json to_json(const serve::ServeSpec& s) {
    Json j = Json::object();
    j.set("arch", to_json(s.arch));
    j.set("grid", grid_to_json({s.width, s.height}));
    j.set("swap_seed", s.swap_seed);
    j.set("greedy_max_gap", s.greedy_max_gap);
    j.set("config", to_json(s.config));
    j.set("replications", s.replications);
    j.set("base_seed", s.base_seed);
    return j;
}

serve::ServeSpec serve_spec_from_json(const Json& j) {
    serve::ServeSpec s;
    s.config = serve::default_serve_config();  // see serve_config_from_json
    ObjectReader r(j, "serve_spec");
    r.read_with("arch", s.arch, arch_from_json);
    std::pair grid{s.width, s.height};
    r.read_with("grid", grid, grid_from_json);
    std::tie(s.width, s.height) = grid;
    r.read("swap_seed", s.swap_seed);
    r.read("greedy_max_gap", s.greedy_max_gap);
    r.read_with("config", s.config, serve_config_from_json);
    r.read("replications", s.replications);
    r.read("base_seed", s.base_seed);
    r.finish();
    if (s.replications <= 0)
        bad("serve_spec.replications",
            "must be positive, got " + std::to_string(s.replications));
    return s;
}

Json to_json(const ServeGridSpec& s) {
    Json j = Json::object();
    j.set("base", to_json(s.base));
    Json archs = Json::array();
    for (const auto a : s.archs) archs.push_back(to_json(a));
    j.set("archs", std::move(archs));
    Json loads = Json::array();
    for (const double l : s.loads_per_mcycle) loads.push_back(l);
    j.set("loads_per_mcycle", std::move(loads));
    return j;
}

serve::ServeSpec ServeGridSpec::default_base() {
    serve::ServeSpec base;
    base.config = serve::default_serve_config();
    return base;
}

ServeGridSpec serve_grid_spec_from_json(const Json& j) {
    ServeGridSpec s;
    ObjectReader r(j, "serve_grid");
    r.read_with("base", s.base, serve_spec_from_json);
    r.read_list("archs", s.archs, arch_from_json);
    r.read_list("loads_per_mcycle", s.loads_per_mcycle, positive_double);
    r.finish();
    if (s.loads_per_mcycle.empty())
        bad("serve_grid", "\"loads_per_mcycle\" must not be empty");
    return s;
}

Json to_json(const ClusterSpec& s) {
    Json j = Json::object();
    j.set("base", to_json(s.base));
    Json sizes = Json::array();
    for (const auto k : s.cluster_sizes) sizes.push_back(k);
    j.set("cluster_sizes", std::move(sizes));
    Json caps = Json::array();
    for (const auto b : s.batch_caps) caps.push_back(b);
    j.set("batch_caps", std::move(caps));
    Json loads = Json::array();
    for (const double l : s.loads_per_mcycle) loads.push_back(l);
    j.set("loads_per_mcycle", std::move(loads));
    j.set("balance", to_json(s.balance));
    return j;
}

ClusterSpec cluster_spec_from_json(const Json& j) {
    ClusterSpec s;
    ObjectReader r(j, "cluster");
    r.read_with("base", s.base, serve_spec_from_json);
    r.read_list("cluster_sizes", s.cluster_sizes, positive_int32);
    r.read_list("batch_caps", s.batch_caps, positive_int32);
    r.read_list("loads_per_mcycle", s.loads_per_mcycle, positive_double);
    r.read_with("balance", s.balance, balance_policy_from_json);
    r.finish();
    if (s.cluster_sizes.empty())
        bad("cluster", "\"cluster_sizes\" must not be empty");
    if (s.batch_caps.empty())
        bad("cluster", "\"batch_caps\" must not be empty");
    if (s.loads_per_mcycle.empty())
        bad("cluster", "\"loads_per_mcycle\" must not be empty");
    return s;
}

// ---- 3D MOO specs (Figs. 6-7, M3D-vs-TSV) -----------------------------------

Json to_json(noc::RoutingPolicy p) {
    switch (p) {
        case noc::RoutingPolicy::kShortestPath: return Json("shortest_path");
        case noc::RoutingPolicy::kUpDown: return Json("updown");
        case noc::RoutingPolicy::kXY: return Json("xy");
    }
    return Json("shortest_path");
}

noc::RoutingPolicy routing_policy_from_json(const Json& j) {
    const std::string v = ascii_lower(j.as_string());
    if (v == "shortest_path" || v == "shortest-path")
        return noc::RoutingPolicy::kShortestPath;
    if (v == "updown" || v == "up-down") return noc::RoutingPolicy::kUpDown;
    if (v == "xy") return noc::RoutingPolicy::kXY;
    throw std::invalid_argument("unknown routing policy \"" + j.as_string() +
                                "\" (expected shortest_path|updown|xy)");
}

namespace {

Json to_json(const Moo3dVariant& v) {
    Json j = Json::object();
    j.set("name", v.name);
    j.set("g_vertical_w_per_k", v.g_vertical_w_per_k);
    return j;
}

Moo3dVariant moo3d_variant_from_json(const Json& j) {
    Moo3dVariant v;
    ObjectReader r(j, "variant");
    r.read("name", v.name);
    r.read_with("g_vertical_w_per_k", v.g_vertical_w_per_k, positive_double);
    r.finish();
    if (v.name.empty()) bad("variant", "variants need a \"name\"");
    return v;
}

}  // namespace

Json to_json(const Moo3dSpec& s) {
    Json j = Json::object();
    Json workloads = Json::array();
    for (const auto& w : s.workloads) workloads.push_back(w);
    j.set("workloads", std::move(workloads));
    j.set("grid", grid_to_json({s.width, s.height}));
    j.set("depth", s.depth);
    j.set("routing", to_json(s.routing));
    j.set("iterations", s.iterations);
    j.set("w_perf", s.w_perf);
    j.set("w_thermal", s.w_thermal);
    j.set("t_target_k", s.t_target_k);
    j.set("seed", s.seed);
    Json variants = Json::array();
    for (const auto& v : s.variants) variants.push_back(to_json(v));
    j.set("variants", std::move(variants));
    return j;
}

Moo3dSpec moo3d_spec_from_json(const Json& j) {
    Moo3dSpec s;
    ObjectReader r(j, "moo3d");
    r.read_list("workloads", s.workloads, workload_id_from_json);
    std::pair grid{s.width, s.height};
    r.read_with("grid", grid, grid_from_json);
    std::tie(s.width, s.height) = grid;
    r.read("depth", s.depth);
    r.read_with("routing", s.routing, routing_policy_from_json);
    r.read("iterations", s.iterations);
    r.read("w_perf", s.w_perf);
    r.read("w_thermal", s.w_thermal);
    r.read("t_target_k", s.t_target_k);
    r.read("seed", s.seed);
    r.read_list("variants", s.variants, moo3d_variant_from_json);
    r.finish();
    if (s.workloads.empty()) bad("moo3d", "specs need \"workloads\"");
    if (s.depth <= 0) bad("moo3d", "depth must be positive");
    if (s.iterations < 0) bad("moo3d", "iterations must be non-negative");
    return s;
}

// ---- Transformer specs (Section IV) -----------------------------------------

dnn::TransformerConfig transformer_model_from_name(const std::string& name) {
    const std::string v = ascii_lower(name);
    if (v == "bert_tiny" || v == "bert-tiny") return dnn::bert_tiny();
    if (v == "bert_base" || v == "bert-base") return dnn::bert_base();
    throw std::invalid_argument("unknown transformer model \"" + name +
                                "\" (expected bert_tiny|bert_base)");
}

Json to_json(const core::HeteroConfig& c) {
    Json j = Json::object();
    j.set("macro_width", c.macro_width);
    j.set("macro_height", c.macro_height);
    j.set("lambda", c.lambda);
    j.set("attention_modules", c.attention_modules);
    j.set("params_per_chiplet_m", c.params_per_chiplet_m);
    j.set("pitch_mm", c.pitch_mm);
    j.set("sram_speedup", c.sram_speedup);
    j.set("reram_write_ns_per_elem", c.reram_write_ns_per_elem);
    return j;
}

core::HeteroConfig hetero_config_from_json(const Json& j) {
    core::HeteroConfig c;
    ObjectReader r(j, "hetero");
    r.read("macro_width", c.macro_width);
    r.read("macro_height", c.macro_height);
    r.read("lambda", c.lambda);
    r.read("attention_modules", c.attention_modules);
    r.read("params_per_chiplet_m", c.params_per_chiplet_m);
    r.read("pitch_mm", c.pitch_mm);
    r.read("sram_speedup", c.sram_speedup);
    r.read("reram_write_ns_per_elem", c.reram_write_ns_per_elem);
    r.finish();
    if (c.macro_width <= 0) bad("hetero.macro_width", "must be positive");
    if (c.macro_height <= 0) bad("hetero.macro_height", "must be positive");
    return c;
}

Json to_json(const TransformerSpec& s) {
    Json j = Json::object();
    Json models = Json::array();
    for (const auto& m : s.models) models.push_back(m);
    j.set("models", std::move(models));
    Json batches = Json::array();
    for (const auto b : s.batches) batches.push_back(b);
    j.set("batches", std::move(batches));
    j.set("hetero", to_json(s.hetero));
    return j;
}

TransformerSpec transformer_spec_from_json(const Json& j) {
    TransformerSpec s;
    ObjectReader r(j, "transformer");
    r.read_list("models", s.models, [](const Json& m) {
        (void)transformer_model_from_name(m.as_string());  // validate
        return ascii_lower(m.as_string());
    });
    r.read_list("batches", s.batches, positive_int32);
    r.read_with("hetero", s.hetero, hetero_config_from_json);
    r.finish();
    if (s.models.empty()) bad("transformer", "specs need \"models\"");
    if (s.batches.empty()) bad("transformer", "specs need \"batches\"");
    return s;
}

// ---- Scaling specs (the ablation study) -------------------------------------

Json to_json(const ScalingSpec& s) {
    Json j = Json::object();
    Json sides = Json::array();
    for (const auto side : s.sides) sides.push_back(side);
    j.set("sides", std::move(sides));
    Json archs = Json::array();
    for (const auto a : s.archs) archs.push_back(to_json(a));
    j.set("archs", std::move(archs));
    Json lambdas = Json::array();
    for (const auto l : s.lambdas) lambdas.push_back(l);
    j.set("lambdas", std::move(lambdas));
    j.set("eval", to_json(s.eval));
    j.set("mix_seed", s.mix_seed);
    j.set("swap_seed", s.swap_seed);
    j.set("greedy_max_gap", s.greedy_max_gap);
    j.set("run_seed", s.run_seed);
    return j;
}

ScalingSpec scaling_spec_from_json(const Json& j) {
    ScalingSpec s;
    ObjectReader r(j, "scaling");
    r.read_list("sides", s.sides, positive_int32);
    r.read_list("archs", s.archs, arch_from_json);
    r.read_list("lambdas", s.lambdas, positive_int32);
    r.read_with("eval", s.eval, eval_config_from_json);
    r.read("mix_seed", s.mix_seed);
    r.read("swap_seed", s.swap_seed);
    r.read("greedy_max_gap", s.greedy_max_gap);
    r.read("run_seed", s.run_seed);
    r.finish();
    if (s.sides.empty()) bad("scaling", "specs need \"sides\"");
    if (s.archs.empty()) bad("scaling", "specs need \"archs\"");
    return s;
}

}  // namespace floretsim::scenario
