/// Scenario-layer serialization contract: strict round-trip
/// (from_json(to_json(x)) == x) for every spec type, partial specs keep
/// defaults, unknown keys are rejected, workload mixes serialize by
/// Table II / Table I name rather than inlined, and the spec hash is
/// invariant under user-side JSON layout but sensitive to every field.

#include "src/scenario/spec_json.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/experiment.h"
#include "src/scenario/registry.h"
#include "src/scenario/report.h"
#include "src/util/json.h"
#include "src/workload/tables.h"

namespace floretsim::scenario {
namespace {

namespace experiment = core::experiment;
using util::Json;
using util::json_parse;
using util::json_serialize;

/// Round-trips x through text, not just through the Json tree, so the
/// serializer's number formatting is part of the contract.
template <typename T, typename FromJson>
T round_trip(const T& x, FromJson&& from_json) {
    return from_json(json_parse(json_serialize(to_json(x))));
}

TEST(ScenarioJson, SimConfigRoundTrip) {
    noc::SimConfig c;
    c.flit_bytes = 16;
    c.max_packet_flits = 4;
    c.input_buffer_flits = 2;
    c.router_delay_cycles = 3;
    c.mm_per_cycle = 2.5;
    c.max_cycles = 123456789012345;  // needs 64-bit round-trip
    c.injection_rate = 0.125;
    EXPECT_EQ(round_trip(c, sim_config_from_json), c);
    EXPECT_EQ(round_trip(noc::SimConfig{}, sim_config_from_json),
              noc::SimConfig{});
    // Specs do not carry the simulator core: it is a per-process choice
    // (FLORETSIM_SIM_CORE / --core), so the JSON omits it and a parsed
    // config always holds the default.
    c.core = noc::SimCore::kReference;
    EXPECT_EQ(to_json(c).find("core"), nullptr);
    EXPECT_EQ(round_trip(c, sim_config_from_json).core, noc::SimConfig{}.core);
}

TEST(ScenarioJson, CostParamsRoundTrip) {
    cost::CostParams c;
    c.router_energy_base_pj = 0.375;
    c.defect_density_per_mm2 = 0.002;
    c.ref_chiplets = 128;
    EXPECT_EQ(round_trip(c, cost_params_from_json), c);
}

TEST(ScenarioJson, EvalConfigRoundTrip) {
    core::EvalConfig c = experiment::default_eval_config();
    c.traffic_scale = 1.0 / 128.0;
    c.include_weight_load = true;
    c.io_node = 7;
    EXPECT_EQ(round_trip(c, eval_config_from_json), c);
    EXPECT_EQ(round_trip(core::EvalConfig{}, eval_config_from_json),
              core::EvalConfig{});
}

TEST(ScenarioJson, EnumsRejectUnknownNames) {
    EXPECT_THROW((void)arch_from_string("torus"), std::invalid_argument);
    EXPECT_THROW((void)admission_policy_from_json(Json("lifo")),
                 std::invalid_argument);
    EXPECT_THROW((void)arrival_process_from_json(Json("pareto")),
                 std::invalid_argument);
    // Case-insensitive + historical spellings are accepted.
    EXPECT_EQ(arch_from_string("FLORET"), experiment::Arch::kFloret);
    EXPECT_EQ(arch_from_string("siam-mesh"), experiment::Arch::kSiamMesh);
}

TEST(ScenarioJson, MixesSerializeByTableName) {
    // A canonical Table II mix serializes as its bare name...
    const auto& wl2 = workload::table2()[1];
    const Json j = to_json(wl2);
    ASSERT_EQ(j.kind(), Json::Kind::kString);
    EXPECT_EQ(j.as_string(), wl2.name);
    EXPECT_EQ(mix_from_json(j), wl2);
    // ...an unknown name is rejected...
    EXPECT_THROW((void)mix_from_json(Json("WL9")), std::invalid_argument);
    // ...and a custom mix references Table I ids, which are validated.
    workload::ConcurrentMix custom;
    custom.name = "CUSTOM";
    custom.entries = {{"DNN1", 2}, {"DNN13", 1}};
    const workload::ConcurrentMix back = round_trip(custom, mix_from_json);
    EXPECT_EQ(back, custom);
    EXPECT_THROW(
        (void)mix_from_json(json_parse(
            R"({"name": "X", "entries": [["DNN99", 1]]})")),
        std::invalid_argument);
}

TEST(ScenarioJson, SweepSpecRoundTrip) {
    core::SweepSpec s;
    s.archs = {experiment::Arch::kFloret, experiment::Arch::kKite};
    s.grids = {{10, 10}, {12, 12}};
    s.mixes = {workload::table2().front(), workload::table2().back()};
    s.evals = {experiment::default_eval_config()};
    s.swap_seed = 99;
    s.greedy_max_gap = 2;
    s.run_seed = 1234567890123456789ull;
    EXPECT_EQ(round_trip(s, sweep_spec_from_json), s);
    EXPECT_EQ(round_trip(core::SweepSpec{}, sweep_spec_from_json),
              core::SweepSpec{});
}

TEST(ScenarioJson, SweepSpecPartialKeepsDefaults) {
    const auto s = sweep_spec_from_json(
        json_parse(R"({"archs": ["floret"], "mixes": ["WL1"]})"));
    EXPECT_EQ(s.archs, std::vector<experiment::Arch>{experiment::Arch::kFloret});
    ASSERT_EQ(s.mixes.size(), 1u);
    EXPECT_EQ(s.mixes.front(), workload::table2().front());
    EXPECT_EQ(s.grids, (core::SweepSpec{}.grids));  // untouched default
    EXPECT_EQ(s.swap_seed, core::SweepSpec{}.swap_seed);
}

TEST(ScenarioJson, GridsAcceptBothSpellings) {
    const auto s = sweep_spec_from_json(
        json_parse(R"({"grids": ["8x6", [4, 4]]})"));
    ASSERT_EQ(s.grids.size(), 2u);
    EXPECT_EQ(s.grids[0], (std::pair<std::int32_t, std::int32_t>{8, 6}));
    EXPECT_EQ(s.grids[1], (std::pair<std::int32_t, std::int32_t>{4, 4}));
    EXPECT_THROW((void)sweep_spec_from_json(json_parse(R"({"grids": ["8by6"]})")),
                 std::invalid_argument);
    EXPECT_THROW((void)sweep_spec_from_json(json_parse(R"({"grids": ["0x6"]})")),
                 std::invalid_argument);
    // Out-of-int32-range sides must fail loudly, never wrap into a
    // silently-different grid ([4294967297, 10] is NOT 1x10).
    EXPECT_THROW((void)sweep_spec_from_json(
                     json_parse(R"({"grids": [[4294967297, 10]]})")),
                 std::invalid_argument);
    EXPECT_THROW(
        (void)sweep_spec_from_json(json_parse(R"({"grids": ["4294967297x10"]})")),
        std::invalid_argument);
}

TEST(ScenarioJson, SweepPointListIsAWireFormat) {
    core::SweepSpec s;
    s.archs = {experiment::Arch::kSwap, experiment::Arch::kFloret};
    s.mixes = {workload::table2()[2]};
    s.evals = {experiment::default_eval_config()};
    s.greedy_max_gap = 2;
    const auto points = s.expand();
    const auto back = sweep_points_from_json(
        json_parse(json_serialize(to_json(points))));
    EXPECT_EQ(back, points);  // a remote runner gets the identical work
}

TEST(ScenarioJson, DynamicResultRoundTrip) {
    experiment::DynamicResult r;
    r.total_cycles = 123456.75;
    r.total_energy_pj = 9.5e8;
    r.flit_hops = 1234567890123;  // needs 64-bit round-trip
    r.rounds = 44;
    r.task_rounds = 131;
    r.all_completed = false;
    r.noi_evals = 31;
    r.round_epoch_hits = 13;
    r.sim_cycles_stepped = 9876;
    r.sim_cycles_skipped = 54321;
    r.sim_horizon_jumps = 17;
    EXPECT_EQ(round_trip(r, dynamic_result_from_json), r);
    EXPECT_EQ(round_trip(experiment::DynamicResult{}, dynamic_result_from_json),
              experiment::DynamicResult{});
}

TEST(ScenarioJson, SweepRowListIsTheReturnWireFormat) {
    // The mirror of SweepPointListIsAWireFormat: a worker's finished rows
    // serialize, cross a process boundary, and come back equal — seconds
    // included, because doubles round-trip bit-exactly.
    core::SweepSpec s;
    s.archs = {experiment::Arch::kKite, experiment::Arch::kFloret};
    s.mixes = {workload::table2()[1]};
    s.evals = {experiment::default_eval_config()};
    std::vector<core::SweepRow> rows;
    for (const auto& p : s.expand()) {
        core::SweepRow r;
        r.point = p;
        r.result.total_cycles = 1000.5 + static_cast<double>(rows.size());
        r.result.flit_hops = 7 + static_cast<std::int64_t>(rows.size());
        r.result.all_completed = rows.empty();
        r.seconds = 0.25 / (1.0 + static_cast<double>(rows.size()));
        rows.push_back(std::move(r));
    }
    const auto back =
        sweep_rows_from_json(json_parse(json_serialize(to_json(rows))));
    EXPECT_EQ(back, rows);
}

TEST(ScenarioJson, SweepRowRejectsUnknownKeys) {
    EXPECT_THROW((void)sweep_row_from_json(json_parse(R"({"sekonds": 1.0})")),
                 std::invalid_argument);
    EXPECT_THROW((void)dynamic_result_from_json(
                     json_parse(R"({"total_cycle": 1.0})")),
                 std::invalid_argument);
    // Partial rows keep defaults, like every other spec type.
    const core::SweepRow r =
        sweep_row_from_json(json_parse(R"({"seconds": 2.5})"));
    EXPECT_EQ(r.point, core::SweepPoint{});
    EXPECT_EQ(r.result, experiment::DynamicResult{});
    EXPECT_DOUBLE_EQ(r.seconds, 2.5);
}

TEST(ScenarioJson, RequestClassAndArrivalsRoundTrip) {
    serve::RequestClass c{"interactive", {"DNN9", "DNN11"}, 0.75, 50'000.0};
    EXPECT_EQ(round_trip(c, request_class_from_json), c);
    EXPECT_THROW((void)request_class_from_json(
                     json_parse(R"({"name": "x", "workload_ids": ["DNN99"]})")),
                 std::invalid_argument);

    serve::ArrivalConfig a;
    a.process = serve::ArrivalProcess::kTrace;
    a.trace_cycles = {0.0, 100.5, 3000.25};
    a.max_requests = 17;
    a.min_rounds = 2;
    a.max_rounds = 5;
    EXPECT_EQ(round_trip(a, arrival_config_from_json), a);
    EXPECT_EQ(round_trip(serve::ArrivalConfig{}, arrival_config_from_json),
              serve::ArrivalConfig{});
}

TEST(ScenarioJson, ServeSpecRoundTrip) {
    serve::ServeSpec s;
    s.arch = experiment::Arch::kKite;
    s.width = 8;
    s.height = 12;
    s.greedy_max_gap = 3;
    s.config = serve::default_serve_config();
    s.config.admission = serve::AdmissionPolicy::kRejectOnFull;
    s.config.max_queue = 16;
    s.config.classes = serve::default_request_classes();
    s.config.arrivals.process = serve::ArrivalProcess::kMmpp;
    s.replications = 4;
    s.base_seed = 21;
    EXPECT_EQ(round_trip(s, serve_spec_from_json), s);
    EXPECT_EQ(round_trip(serve::ServeSpec{}, serve_spec_from_json),
              serve::ServeSpec{});
}

TEST(ScenarioJson, ServeGridSpecRoundTrip) {
    ServeGridSpec s;
    s.base.config.arrivals.max_requests = 80;
    s.archs = {experiment::Arch::kFloret, experiment::Arch::kSwap};
    s.loads_per_mcycle = {50.0, 500.0};
    EXPECT_EQ(round_trip(s, serve_grid_spec_from_json), s);
    EXPECT_EQ(round_trip(ServeGridSpec{}, serve_grid_spec_from_json),
              ServeGridSpec{});
}

TEST(ScenarioJson, ClusterSpecRoundTrip) {
    ClusterSpec s;
    s.base.arch = experiment::Arch::kKite;
    s.base.config.admission = serve::AdmissionPolicy::kEdfEvict;
    s.base.config.max_batch = 8;
    s.base.config.batch_traffic_alpha = 0.5;
    s.base.replications = 3;
    s.base.base_seed = 77;
    s.cluster_sizes = {1, 2, 4};
    s.batch_caps = {1, 8};
    s.loads_per_mcycle = {100.0, 1000.0};
    s.balance = serve::BalancePolicy::kLeastLoaded;
    EXPECT_EQ(round_trip(s, cluster_spec_from_json), s);
    EXPECT_EQ(round_trip(ClusterSpec{}, cluster_spec_from_json),
              ClusterSpec{});
}

TEST(ScenarioJson, BalanceAndAdmissionSpellings) {
    EXPECT_EQ(balance_policy_from_json(Json("least-loaded")),
              serve::BalancePolicy::kLeastLoaded);
    EXPECT_EQ(balance_policy_from_json(Json("model-affinity")),
              serve::BalancePolicy::kModelAffinity);
    // Shorthand accepted on input; output always uses the full name.
    EXPECT_EQ(balance_policy_from_json(Json("affinity")),
              serve::BalancePolicy::kModelAffinity);
    EXPECT_THROW((void)balance_policy_from_json(Json("round-robin")),
                 std::invalid_argument);
    EXPECT_EQ(admission_policy_from_json(Json("edf-evict")),
              serve::AdmissionPolicy::kEdfEvict);
    EXPECT_EQ(round_trip(serve::BalancePolicy::kModelAffinity,
                         balance_policy_from_json),
              serve::BalancePolicy::kModelAffinity);
    EXPECT_EQ(round_trip(serve::AdmissionPolicy::kEdfEvict,
                         admission_policy_from_json),
              serve::AdmissionPolicy::kEdfEvict);
}

TEST(ScenarioJson, ClusterSpecAdversarialCorpus) {
    // Unknown keys at both levels.
    EXPECT_THROW((void)cluster_spec_from_json(
                     json_parse(R"({"fabric_count": 2})")),
                 std::invalid_argument);
    EXPECT_THROW((void)cluster_spec_from_json(
                     json_parse(R"({"base": {"widht": 6}})")),
                 std::invalid_argument);
    // Zero fabrics: the empty list and the K=0 entry are both rejected.
    EXPECT_THROW((void)cluster_spec_from_json(
                     json_parse(R"({"cluster_sizes": []})")),
                 std::invalid_argument);
    EXPECT_THROW((void)cluster_spec_from_json(
                     json_parse(R"({"cluster_sizes": [1, 0]})")),
                 std::invalid_argument);
    // Negative / zero batch caps.
    EXPECT_THROW((void)cluster_spec_from_json(
                     json_parse(R"({"batch_caps": [-4]})")),
                 std::invalid_argument);
    EXPECT_THROW((void)cluster_spec_from_json(
                     json_parse(R"({"batch_caps": []})")),
                 std::invalid_argument);
    // Loads must be positive.
    EXPECT_THROW((void)cluster_spec_from_json(
                     json_parse(R"({"loads_per_mcycle": [500, 0]})")),
                 std::invalid_argument);
    EXPECT_THROW((void)cluster_spec_from_json(
                     json_parse(R"({"loads_per_mcycle": []})")),
                 std::invalid_argument);
    // Bad balance spelling and type mismatch.
    EXPECT_THROW((void)cluster_spec_from_json(
                     json_parse(R"({"balance": "roundrobin"})")),
                 std::invalid_argument);
    EXPECT_THROW((void)cluster_spec_from_json(json_parse(R"(["k1"])")),
                 std::invalid_argument);
}

TEST(ScenarioJson, ServeConfigAdversarialCorpus) {
    // A serving batch cap below 1 can never admit anything.
    EXPECT_THROW((void)serve_config_from_json(
                     json_parse(R"({"max_batch": 0})")),
                 std::invalid_argument);
    EXPECT_THROW((void)serve_config_from_json(
                     json_parse(R"({"max_batch": -3})")),
                 std::invalid_argument);
    // Negative batching cost would make bigger batches finish sooner.
    EXPECT_THROW((void)serve_config_from_json(
                     json_parse(R"({"batch_traffic_alpha": -0.25})")),
                 std::invalid_argument);
    // Duplicate tenant class names would make per-class accounting
    // ambiguous; the message names the offender.
    try {
        (void)serve_config_from_json(json_parse(R"({"classes": [
            {"name": "interactive", "workload_ids": ["DNN11"]},
            {"name": "interactive", "workload_ids": ["DNN1"]}
        ]})"));
        FAIL() << "expected duplicate class-name rejection";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("interactive"),
                  std::string::npos)
            << e.what();
    }
    // The new fields still reject unknown-key typos.
    EXPECT_THROW((void)serve_config_from_json(
                     json_parse(R"({"max_bach": 4})")),
                 std::invalid_argument);
}

TEST(ScenarioJson, SimConfigAdversarialCorpus) {
    // The simulator core and the region count are not spec fields: a spec
    // that names either fails the strict unknown-key check, at the sim
    // level and nested in an eval config, and the message names the key.
    for (const char* sim : {R"({"core": "reference"})", R"({"core": "activity"})",
                            R"({"core": "regional"})", R"({"core": "event-horizon"})",
                            R"({"regions": 4})", R"({"regions": 0})"}) {
        EXPECT_THROW((void)sim_config_from_json(json_parse(sim)),
                     std::invalid_argument)
            << sim;
        EXPECT_THROW((void)eval_config_from_json(
                         json_parse(std::string(R"({"sim": )") + sim + "}")),
                     std::invalid_argument)
            << sim;
    }
    for (const char* key : {"core", "regions"}) {
        try {
            (void)sim_config_from_json(
                json_parse(std::string(R"({")") + key + R"(": 1})"));
            FAIL() << "expected unknown-key rejection of " << key;
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
                << e.what();
        }
    }
    // Out-of-range values are rejected at parse time, naming the field, at
    // the sim level and nested in an eval config, so a bad spec never
    // reaches the simulator.
    const auto expect_rejected = [](const auto& parse, const std::string& doc,
                                    const char* field) {
        try {
            (void)parse(json_parse(doc));
            ADD_FAILURE() << "expected rejection of " << doc;
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
        }
    };
    for (const auto& [sim, field] : std::vector<std::pair<const char*, const char*>>{
             {R"({"flit_bytes": 0})", "flit_bytes"},
             {R"({"flit_bytes": -8})", "flit_bytes"},
             {R"({"max_packet_flits": 0})", "max_packet_flits"},
             {R"({"input_buffer_flits": 0})", "input_buffer_flits"},
             {R"({"router_delay_cycles": -1})", "router_delay_cycles"},
             {R"({"mm_per_cycle": 0})", "mm_per_cycle"},
             {R"({"mm_per_cycle": -2.5})", "mm_per_cycle"}}) {
        expect_rejected([](const Json& j) { return sim_config_from_json(j); }, sim, field);
        expect_rejected([](const Json& j) { return eval_config_from_json(j); },
                        std::string(R"({"sim": )") + sim + "}", field);
    }
    // The smallest valid values parse.
    EXPECT_NO_THROW((void)sim_config_from_json(json_parse(
        R"({"flit_bytes": 1, "max_packet_flits": 1, "input_buffer_flits": 1,)"
        R"( "router_delay_cycles": 0, "mm_per_cycle": 0.001})")));
    // The epoch reuse is unconditional: its old switch is an unknown key.
    try {
        (void)eval_config_from_json(json_parse(R"({"round_epoch_cache": false})"));
        FAIL() << "expected unknown-key rejection of round_epoch_cache";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("round_epoch_cache"), std::string::npos)
            << e.what();
    }
}

TEST(ScenarioJson, Moo3dVariantAdversarialCorpus) {
    // The inter-tier conductance is the only thermal input a spec sets: a
    // zero or negative one has no steady state, so the codec rejects it at
    // load time, naming the field (JSON cannot spell a non-finite number).
    const auto variant_doc = [](const std::string& variant) {
        return std::string(R"({"workloads": ["DNN2"], "variants": [)") + variant + "]}";
    };
    for (const char* g : {"0", "-0.5"}) {
        const std::string doc =
            variant_doc(std::string(R"({"name": "M3D", "g_vertical_w_per_k": )") + g + "}");
        try {
            (void)moo3d_spec_from_json(json_parse(doc));
            ADD_FAILURE() << "expected rejection of " << doc;
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find("g_vertical_w_per_k"), std::string::npos)
                << e.what();
        }
    }
    // The vertical pitch is gone: the model never priced wire length.
    try {
        (void)moo3d_spec_from_json(
            json_parse(variant_doc(R"({"name": "TSV", "tier_pitch_mm": 0.3})")));
        FAIL() << "expected unknown-key rejection of tier_pitch_mm";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("tier_pitch_mm"), std::string::npos)
            << e.what();
    }
    const Moo3dSpec ok = moo3d_spec_from_json(
        json_parse(variant_doc(R"({"name": "M3D", "g_vertical_w_per_k": 0.8})")));
    ASSERT_EQ(ok.variants.size(), 1u);
    EXPECT_EQ(ok.variants[0].g_vertical_w_per_k, 0.8);
    EXPECT_EQ(moo3d_spec_from_json(to_json(ok)), ok);
}

TEST(ScenarioJson, UnknownKeysAreRejectedAtEveryLevel) {
    EXPECT_THROW((void)sim_config_from_json(json_parse(R"({"flitbytes": 8})")),
                 std::invalid_argument);
    EXPECT_THROW((void)eval_config_from_json(
                     json_parse(R"({"sim": {"warp_speed": 9}})")),
                 std::invalid_argument);
    EXPECT_THROW((void)sweep_spec_from_json(json_parse(R"({"seeds": [1]})")),
                 std::invalid_argument);
    EXPECT_THROW((void)serve_spec_from_json(
                     json_parse(R"({"config": {"arrivals": {"rate": 5}}})")),
                 std::invalid_argument);
    EXPECT_THROW((void)serve_grid_spec_from_json(json_parse(R"({"loads": [1]})")),
                 std::invalid_argument);
    // The offending context is named in the message.
    try {
        (void)eval_config_from_json(json_parse(R"({"sim": {"warp_speed": 9}})"));
        FAIL() << "expected unknown-key rejection";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("warp_speed"), std::string::npos)
            << e.what();
    }
}

TEST(ScenarioJson, TypeMismatchesAreRejected) {
    EXPECT_THROW((void)sim_config_from_json(json_parse(R"({"flit_bytes": "8"})")),
                 std::invalid_argument);
    EXPECT_THROW(
        (void)sim_config_from_json(json_parse(R"({"injection_rate": []})")),
        std::invalid_argument);
    EXPECT_THROW((void)sweep_spec_from_json(json_parse(R"([1, 2, 3])")),
                 std::invalid_argument);
}

/// `doc` with `value` written at the dot-separated `path` ("*" writes
/// every element of an array): how a --spec file states a value.
Json with_value(const Json& doc, std::string_view path, const Json& value) {
    if (path.empty()) return value;
    const std::size_t dot = path.find('.');
    const std::string_view head = path.substr(0, dot);
    const std::string_view rest =
        dot == std::string_view::npos ? std::string_view{} : path.substr(dot + 1);
    if (head == "*") {
        Json out = Json::array();
        for (const Json& item : doc.as_array()) out.push_back(with_value(item, rest, value));
        return out;
    }
    Json out = Json::object();
    for (const auto& [key, child] : doc.as_object())
        out.set(key, key == head ? with_value(child, rest, value) : child);
    return out;
}

TEST(ScenarioJson, OverrideTwinCorpus) {
    // Every --set key, on every spec kind it applies to: a bad value fails
    // at parse time through apply_override on a registered spec AND
    // through spec_from_json on that spec's JSON with the same value at
    // the key's path, and both messages name the field. One validation
    // path: no value one input path rejects is accepted by the other.
    struct Twin {
        const char* scenario;  ///< A registered scenario of the kind.
        const char* key;
        const char* value;     ///< As --set spells it.
        const char* path;      ///< Where a spec file holds it.
        const char* json;      ///< As a spec file spells it.
        const char* field;     ///< Named by both messages.
    };
    const std::vector<Twin> corpus = {
        // Grids: every kind with one; the transformer's is its macro.
        {"fig3", "grid", "0x6", "grids", R"(["0x6"])", "grid"},
        {"fig3", "grids", "0x6", "grids", R"(["0x6"])", "grid"},
        {"serving", "grid", "0x6", "base.grid", R"("0x6")", "grid"},
        {"serving", "grids", "0x6", "base.grid", R"("0x6")", "grid"},
        {"cluster", "grid", "0x6", "base.grid", R"("0x6")", "grid"},
        {"cluster", "grids", "0x6", "base.grid", R"("0x6")", "grid"},
        {"fig6", "grid", "0x6", "grid", R"("0x6")", "grid"},
        {"fig6", "grids", "0x6", "grid", R"("0x6")", "grid"},
        {"hetero_transformer", "grid", "0x6", "hetero.macro_width", "0", "macro_width"},
        {"hetero_transformer", "grids", "6x0", "hetero.macro_height", "0",
         "macro_height"},
        // Names.
        {"fig3", "archs", "torus", "archs", R"(["torus"])", "archs"},
        {"serving", "archs", "torus", "archs", R"(["torus"])", "archs"},
        {"cluster", "archs", "torus", "base.arch", R"("torus")", "arch"},
        {"ablation_scaling", "archs", "torus", "archs", R"(["torus"])", "archs"},
        {"fig3", "mixes", "WL9", "mixes", R"(["WL9"])", "mixes"},
        {"cluster", "balance", "roundrobin", "balance", R"("roundrobin")", "balance"},
        {"fig6", "workloads", "DNN99", "workloads", R"(["DNN99"])", "workloads"},
        {"hetero_transformer", "models", "gpt2", "models", R"(["gpt2"])", "models"},
        // Eval knobs, on every kind that runs the NoC simulator.
        {"fig3", "traffic_scale", "0", "evals.*.traffic_scale", "0", "traffic_scale"},
        {"fig3", "traffic_scale", "-1", "evals.*.traffic_scale", "-1", "traffic_scale"},
        {"fig3", "traffic_scale", "1.5", "evals.*.traffic_scale", "1.5", "traffic_scale"},
        {"serving", "traffic_scale", "0", "base.config.eval.traffic_scale", "0",
         "traffic_scale"},
        {"serving", "traffic_scale", "-1", "base.config.eval.traffic_scale", "-1",
         "traffic_scale"},
        {"serving", "traffic_scale", "1.5", "base.config.eval.traffic_scale", "1.5",
         "traffic_scale"},
        {"cluster", "traffic_scale", "0", "base.config.eval.traffic_scale", "0",
         "traffic_scale"},
        {"cluster", "traffic_scale", "-1", "base.config.eval.traffic_scale", "-1",
         "traffic_scale"},
        {"cluster", "traffic_scale", "1.5", "base.config.eval.traffic_scale", "1.5",
         "traffic_scale"},
        {"ablation_scaling", "traffic_scale", "0", "eval.traffic_scale", "0",
         "traffic_scale"},
        {"ablation_scaling", "traffic_scale", "-1", "eval.traffic_scale", "-1",
         "traffic_scale"},
        {"ablation_scaling", "traffic_scale", "1.5", "eval.traffic_scale", "1.5",
         "traffic_scale"},
        {"fig3", "max_cycles", "0", "evals.*.sim.max_cycles", "0", "max_cycles"},
        {"serving", "max_cycles", "0", "base.config.eval.sim.max_cycles", "0",
         "max_cycles"},
        {"cluster", "max_cycles", "0", "base.config.eval.sim.max_cycles", "0",
         "max_cycles"},
        {"ablation_scaling", "max_cycles", "0", "eval.sim.max_cycles", "0", "max_cycles"},
        {"fig3", "injection_rate", "0", "evals.*.sim.injection_rate", "0",
         "injection_rate"},
        {"serving", "injection_rate", "0", "base.config.eval.sim.injection_rate", "0",
         "injection_rate"},
        {"cluster", "injection_rate", "0", "base.config.eval.sim.injection_rate", "0",
         "injection_rate"},
        {"ablation_scaling", "injection_rate", "0", "eval.sim.injection_rate", "0",
         "injection_rate"},
        // Seeds and fabric-synthesis knobs.
        {"fig3", "swap_seed", "-1", "swap_seed", "-1", "swap_seed"},
        {"serving", "swap_seed", "-1", "base.swap_seed", "-1", "swap_seed"},
        {"cluster", "swap_seed", "-1", "base.swap_seed", "-1", "swap_seed"},
        {"ablation_scaling", "swap_seed", "-1", "swap_seed", "-1", "swap_seed"},
        {"fig3", "greedy_max_gap", "4294967297", "greedy_max_gap", "4294967297",
         "greedy_max_gap"},
        {"serving", "greedy_max_gap", "4294967297", "base.greedy_max_gap", "4294967297",
         "greedy_max_gap"},
        {"cluster", "greedy_max_gap", "4294967297", "base.greedy_max_gap", "4294967297",
         "greedy_max_gap"},
        {"ablation_scaling", "greedy_max_gap", "4294967297", "greedy_max_gap",
         "4294967297", "greedy_max_gap"},
        {"fig3", "seed", "-1", "run_seed", "-1", "run_seed"},
        {"serving", "seed", "-1", "base.base_seed", "-1", "base_seed"},
        {"cluster", "seed", "-1", "base.base_seed", "-1", "base_seed"},
        {"fig6", "seed", "-1", "seed", "-1", "seed"},
        {"ablation_scaling", "seed", "-1", "mix_seed", "-1", "mix_seed"},
        // Serving and cluster sizing.
        {"serving", "max_requests", "-5", "base.config.arrivals.max_requests", "-5",
         "max_requests"},
        {"cluster", "max_requests", "-5", "base.config.arrivals.max_requests", "-5",
         "max_requests"},
        {"serving", "replications", "0", "base.replications", "0", "replications"},
        {"cluster", "replications", "0", "base.replications", "0", "replications"},
        {"serving", "loads", "0", "loads_per_mcycle", "[0]", "loads_per_mcycle"},
        {"serving", "loads", "-5", "loads_per_mcycle", "[-5]", "loads_per_mcycle"},
        {"cluster", "loads", "0", "loads_per_mcycle", "[0]", "loads_per_mcycle"},
        {"cluster", "loads", "-5", "loads_per_mcycle", "[-5]", "loads_per_mcycle"},
        {"cluster", "fabrics", "0", "cluster_sizes", "[0]", "cluster_sizes"},
        {"cluster", "fabrics", "4294967297", "cluster_sizes", "[4294967297]",
         "cluster_sizes"},
        {"cluster", "max_batch", "0", "batch_caps", "[0]", "batch_caps"},
        {"cluster", "max_batch", "4294967297", "batch_caps", "[4294967297]",
         "batch_caps"},
        // Study sizes.
        {"fig6", "iterations", "-1", "iterations", "-1", "iterations"},
        {"hetero_transformer", "batches", "0", "batches", "[0]", "batches"},
        {"ablation_scaling", "sides", "0", "sides", "[0]", "sides"},
        {"ablation_scaling", "lambdas", "0", "lambdas", "[0]", "lambdas"},
    };
    const Registry& reg = Registry::builtin();
    std::set<std::string> keys_covered;
    for (const auto& t : corpus) {
        const std::string twin = std::string(t.scenario) + " " + t.key + "=" + t.value;
        keys_covered.insert(t.key);
        const SpecVariant original = reg.at(t.scenario).spec;
        SpecVariant spec = original;
        try {
            (void)apply_override(spec, t.key, t.value);
            ADD_FAILURE() << twin << ": --set accepted it";
        } catch (const std::invalid_argument& e) {
            const std::string msg = e.what();
            EXPECT_EQ(msg.rfind(std::string("--set ") + t.key + "=" + t.value + ": ", 0),
                      0u)
                << msg;
            EXPECT_NE(msg.find(t.field), std::string::npos) << twin << ": " << msg;
        }
        EXPECT_EQ(spec == original, true) << twin << ": a failed --set changed the spec";
        const Json doc = with_value(to_json(original), t.path, json_parse(t.json));
        try {
            (void)spec_from_json(doc, spec_kind_name(original));
            ADD_FAILURE() << twin << ": the spec file accepted it";
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find(t.field), std::string::npos)
                << twin << ": " << e.what();
        }
    }
    // Every key the driver documents has a twin.
    const std::string help = override_keys_help();
    EXPECT_EQ(std::count(help.begin(), help.end(), ',') + 1, 22) << help;
    EXPECT_EQ(keys_covered.size(), 22u);
}

// ---- Spec hash identity -----------------------------------------------------

/// Recursively reverses every object's member order — a different but
/// semantically identical user-side representation of the same document.
util::Json reorder_keys(const util::Json& j) {
    if (j.kind() == util::Json::Kind::kObject) {
        auto members = j.as_object();
        std::reverse(members.begin(), members.end());
        auto out = util::Json::object();
        for (auto& [k, v] : members) out.set(k, reorder_keys(v));
        return out;
    }
    if (j.kind() == util::Json::Kind::kArray) {
        auto out = util::Json::array();
        for (const auto& v : j.as_array()) out.push_back(reorder_keys(v));
        return out;
    }
    return j;
}

TEST(SpecHash, InvariantUnderJsonKeyOrderAndWhitespace) {
    for (const auto& scenario : Registry::builtin().scenarios()) {
        const std::string kind = spec_kind_name(scenario.spec);
        const auto canonical = to_json(scenario.spec);

        // Key order: reverse every object, round-trip through text.
        const auto reordered = util::json_parse(
            util::json_serialize_compact(reorder_keys(canonical)));
        const auto from_reordered = spec_from_json(reordered, kind);
        EXPECT_EQ(spec_hash(from_reordered), spec_hash(scenario.spec))
            << scenario.name << ": hash depends on user-side key order";

        // Whitespace: the pretty and compact serializations parse equal.
        const auto pretty = spec_from_json(
            util::json_parse(util::json_serialize(canonical)), kind);
        EXPECT_EQ(spec_hash(pretty), spec_hash(scenario.spec))
            << scenario.name << ": hash depends on whitespace";
    }
}

TEST(SpecHash, RoundTripsThroughJson) {
    for (const auto& scenario : Registry::builtin().scenarios()) {
        const auto back = spec_from_json(to_json(scenario.spec),
                                         spec_kind_name(scenario.spec));
        EXPECT_EQ(spec_hash(back), spec_hash(scenario.spec)) << scenario.name;
    }
}

core::SweepSpec tiny_spec() {
    core::SweepSpec spec;
    spec.archs = {experiment::Arch::kSiamMesh, experiment::Arch::kFloret};
    spec.grids = {{6, 6}};
    spec.mixes = {workload::table2().front()};
    auto cfg = experiment::default_eval_config();
    cfg.traffic_scale = 1.0 / 512.0;
    spec.evals = {cfg};
    spec.greedy_max_gap = 2;
    return spec;
}

TEST(SpecHash, ChangesOnEverySemanticField) {
    const auto base = SpecVariant{tiny_spec()};
    const auto h0 = spec_hash(base);

    auto archs = tiny_spec();
    archs.archs = {experiment::Arch::kFloret};
    auto grids = tiny_spec();
    grids.grids = {{8, 8}};
    auto traffic = tiny_spec();
    traffic.evals.front().traffic_scale *= 2.0;
    auto swap = tiny_spec();
    swap.swap_seed += 1;
    auto gap = tiny_spec();
    gap.greedy_max_gap += 1;
    for (const auto& changed :
         {SpecVariant{archs}, SpecVariant{grids}, SpecVariant{traffic},
          SpecVariant{swap}, SpecVariant{gap}})
        EXPECT_NE(spec_hash(changed), h0);
}

TEST(SpecHash, DistinguishesRegisteredScenarios) {
    // fig3/fig5/table2 deliberately share one sweep spec (and so one
    // hash); every other registered spec must hash distinctly.
    const auto& reg = Registry::builtin();
    const auto shared = spec_hash(reg.at("fig3").spec);
    EXPECT_EQ(spec_hash(reg.at("fig5").spec), shared);
    EXPECT_EQ(spec_hash(reg.at("table2").spec), shared);

    std::vector<std::uint64_t> rest;
    for (const auto& s : reg.scenarios())
        if (s.name != "fig5" && s.name != "table2")
            rest.push_back(spec_hash(s.spec));
    std::sort(rest.begin(), rest.end());
    EXPECT_EQ(std::adjacent_find(rest.begin(), rest.end()), rest.end())
        << "two registered scenarios with different specs hash equal";
}

// ---- JsonReport (satellite bugfix pins) -------------------------------------

TEST(JsonReportContract, NonFiniteMetricsEmitNull) {
    JsonReport report("nan_test");
    report.add_metric("fine", 1.5);
    report.add_metric("broken", std::nan(""));
    report.add_metric("hot", std::numeric_limits<double>::infinity());
    // The document must stay parseable JSON (raw nan/inf literals are not).
    const Json doc = json_parse(report.to_json());
    EXPECT_DOUBLE_EQ(doc.find("metrics")->find("fine")->as_double(), 1.5);
    EXPECT_TRUE(doc.find("metrics")->find("broken")->is_null());
    EXPECT_TRUE(doc.find("metrics")->find("hot")->is_null());
}

TEST(JsonReportContract, PointTimingGuardsDegenerateSweeps) {
    // Empty sweep: no timing metrics at all (not NaN ones).
    JsonReport empty("empty");
    add_point_timing(empty, std::span<const double>{});
    EXPECT_EQ(json_parse(empty.to_json()).find("metrics")->find("point_imbalance"),
              nullptr);

    // All-zero timings (degenerate but non-empty): imbalance pins to 1.0
    // instead of dividing by the zero mean.
    JsonReport zeros("zeros");
    const std::vector<double> z{0.0, 0.0, 0.0};
    add_point_timing(zeros, z);
    const Json doc = json_parse(zeros.to_json());
    EXPECT_DOUBLE_EQ(doc.find("metrics")->find("point_imbalance")->as_double(),
                     1.0);
    EXPECT_DOUBLE_EQ(doc.find("metrics")->find("point_seconds_max")->as_double(),
                     0.0);
}

}  // namespace
}  // namespace floretsim::scenario
