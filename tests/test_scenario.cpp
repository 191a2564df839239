/// Scenario registry, CLI overrides, and scenario-file loading.

#include "src/scenario/registry.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "src/core/experiment.h"
#include "src/obs/metrics.h"
#include "src/util/json.h"

namespace floretsim::scenario {
namespace {

namespace experiment = core::experiment;
using experiment::Arch;

TEST(Registry, BuiltinScenariosAreRegistered) {
    const Registry& reg = Registry::builtin();
    // Every paper figure/table runs through the registry — no bespoke
    // bench mains remain outside it.
    for (const char* name :
         {"fig2", "fig3", "fig4", "fig5", "table2", "serving", "fig6", "fig7",
          "m3d_vs_tsv", "hetero_transformer", "transformer_storage",
          "ablation_scaling", "cluster"}) {
        const Scenario* s = reg.find(name);
        ASSERT_NE(s, nullptr) << name;
        EXPECT_TRUE(s->report) << name;
        EXPECT_FALSE(s->summary.empty()) << name;
    }
    EXPECT_EQ(reg.scenarios().size(), 13u);
    EXPECT_EQ(reg.find("fig99"), nullptr);
    EXPECT_THROW((void)reg.at("fig99"), std::invalid_argument);
    // fig4 is mapping-only: eval-affecting --set keys must not count as
    // applied to it (the driver consults uses_eval for its typo guard).
    EXPECT_FALSE(reg.at("fig4").uses_eval);
    EXPECT_TRUE(reg.at("fig3").uses_eval);
    EXPECT_TRUE(is_eval_override_key("traffic_scale"));
    EXPECT_FALSE(is_eval_override_key("archs"));
}

TEST(Registry, Fig3AndFig5ShareTheirSweepSpec) {
    // The duplicate-sweep pair the shared fabric cache deduplicates: both
    // figures must keep sweeping the identical grid or the cache win (and
    // Fig5AfterFig3BuildsNoFabrics's 0 fig5 misses) silently evaporates.
    const Registry& reg = Registry::builtin();
    EXPECT_EQ(std::get<core::SweepSpec>(reg.at("fig3").spec),
              std::get<core::SweepSpec>(reg.at("fig5").spec));
}

TEST(Registry, SpecsSerializeAndRoundTrip) {
    for (const auto& s : Registry::builtin().scenarios()) {
        const util::Json j = to_json(s.spec);
        const SpecVariant back =
            spec_from_json(util::json_parse(util::json_serialize(j)),
                           spec_kind_name(s.spec));
        EXPECT_EQ(back == s.spec, true) << s.name;
    }
}

TEST(Registry, RejectsDuplicatesAndMissingReport) {
    Registry reg;
    reg.add({"a", "first", core::SweepSpec{},
             [](const SpecVariant&, RunContext&) { return JsonReport("a"); }});
    EXPECT_THROW(reg.add({"a", "again", core::SweepSpec{},
                          [](const SpecVariant&, RunContext&) {
                              return JsonReport("a");
                          }}),
                 std::invalid_argument);
    EXPECT_THROW(reg.add({"b", "no report", core::SweepSpec{}, nullptr}),
                 std::invalid_argument);
}

TEST(Overrides, ApplyToSweepSpecs) {
    SpecVariant spec = std::get<core::SweepSpec>(
        Registry::builtin().at("fig3").spec);
    EXPECT_TRUE(apply_override(spec, "grid", "12x12"));
    EXPECT_TRUE(apply_override(spec, "archs", "floret,kite"));
    EXPECT_TRUE(apply_override(spec, "mixes", "WL1,WL3"));
    EXPECT_TRUE(apply_override(spec, "traffic_scale", "1/128"));
    EXPECT_TRUE(apply_override(spec, "seed", "77"));
    const auto& s = std::get<core::SweepSpec>(spec);
    EXPECT_EQ(s.grids,
              (std::vector<std::pair<std::int32_t, std::int32_t>>{{12, 12}}));
    EXPECT_EQ(s.archs, (std::vector<Arch>{Arch::kFloret, Arch::kKite}));
    ASSERT_EQ(s.mixes.size(), 2u);
    EXPECT_EQ(s.mixes[1].name, "WL3");
    ASSERT_FALSE(s.evals.empty());
    EXPECT_DOUBLE_EQ(s.evals.front().traffic_scale, 1.0 / 128.0);
    EXPECT_EQ(s.run_seed, 77u);
    // Serve-only keys are recognized but inapplicable: false, not a throw.
    EXPECT_FALSE(apply_override(spec, "max_requests", "10"));
    EXPECT_FALSE(apply_override(spec, "loads", "100"));
    // Unknown keys and malformed values always throw.
    EXPECT_THROW((void)apply_override(spec, "gird", "12x12"),
                 std::invalid_argument);
    EXPECT_THROW((void)apply_override(spec, "grid", "12by12"),
                 std::invalid_argument);
    EXPECT_THROW((void)apply_override(spec, "traffic_scale", "1/0"),
                 std::invalid_argument);
    EXPECT_THROW((void)apply_override(spec, "archs", "torus"),
                 std::invalid_argument);
    // The simulator core is a per-process choice (--core /
    // FLORETSIM_SIM_CORE), not a spec field.
    EXPECT_FALSE(is_eval_override_key("sim_core"));
    EXPECT_THROW((void)apply_override(spec, "sim_core", "reference"),
                 std::invalid_argument);
}

TEST(Overrides, TrafficScaleMaterializesDefaultEvals) {
    // An empty eval list means "default at expand()" — the override has to
    // materialize it or the setting would be silently dropped.
    SpecVariant spec = core::SweepSpec{};
    ASSERT_TRUE(std::get<core::SweepSpec>(spec).evals.empty());
    EXPECT_TRUE(apply_override(spec, "traffic_scale", "0.25"));
    const auto& s = std::get<core::SweepSpec>(spec);
    ASSERT_EQ(s.evals.size(), 1u);
    EXPECT_DOUBLE_EQ(s.evals.front().traffic_scale, 0.25);
    // Everything else matches the experiment default the empty list meant.
    auto expected = experiment::default_eval_config();
    expected.traffic_scale = 0.25;
    EXPECT_EQ(s.evals.front(), expected);
}

TEST(Overrides, ApplyToServeGridSpecs) {
    SpecVariant spec = std::get<ServeGridSpec>(
        Registry::builtin().at("serving").spec);
    EXPECT_TRUE(apply_override(spec, "grid", "8x8"));
    EXPECT_TRUE(apply_override(spec, "archs", "swap,floret"));
    EXPECT_TRUE(apply_override(spec, "max_requests", "24"));
    EXPECT_TRUE(apply_override(spec, "replications", "3"));
    EXPECT_TRUE(apply_override(spec, "loads", "100,900"));
    EXPECT_TRUE(apply_override(spec, "seed", "5"));
    const auto& g = std::get<ServeGridSpec>(spec);
    EXPECT_EQ(g.base.width, 8);
    EXPECT_EQ(g.base.height, 8);
    EXPECT_EQ(g.archs, (std::vector<Arch>{Arch::kSwap, Arch::kFloret}));
    EXPECT_EQ(g.base.config.arrivals.max_requests, 24);
    EXPECT_EQ(g.base.replications, 3);
    EXPECT_EQ(g.loads_per_mcycle, (std::vector<double>{100.0, 900.0}));
    EXPECT_EQ(g.base.base_seed, 5u);
    // Sweep-only key on a serving spec: recognized but inapplicable.
    EXPECT_FALSE(apply_override(spec, "mixes", "WL1"));
}

TEST(Overrides, ApplyToClusterSpecs) {
    SpecVariant spec = std::get<ClusterSpec>(
        Registry::builtin().at("cluster").spec);
    EXPECT_TRUE(apply_override(spec, "grid", "8x8"));
    EXPECT_TRUE(apply_override(spec, "archs", "kite"));
    EXPECT_TRUE(apply_override(spec, "fabrics", "1,3"));
    EXPECT_TRUE(apply_override(spec, "max_batch", "2,8"));
    EXPECT_TRUE(apply_override(spec, "balance", "least-loaded"));
    EXPECT_TRUE(apply_override(spec, "loads", "250,2500"));
    EXPECT_TRUE(apply_override(spec, "max_requests", "40"));
    EXPECT_TRUE(apply_override(spec, "replications", "1"));
    EXPECT_TRUE(apply_override(spec, "seed", "9"));
    const auto& c = std::get<ClusterSpec>(spec);
    EXPECT_EQ(c.base.width, 8);
    EXPECT_EQ(c.base.height, 8);
    EXPECT_EQ(c.base.arch, Arch::kKite);
    EXPECT_EQ(c.cluster_sizes, (std::vector<std::int32_t>{1, 3}));
    EXPECT_EQ(c.batch_caps, (std::vector<std::int32_t>{2, 8}));
    EXPECT_EQ(c.balance, serve::BalancePolicy::kLeastLoaded);
    EXPECT_EQ(c.loads_per_mcycle, (std::vector<double>{250.0, 2500.0}));
    EXPECT_EQ(c.base.config.arrivals.max_requests, 40);
    EXPECT_EQ(c.base.replications, 1);
    EXPECT_EQ(c.base.base_seed, 9u);
    // Sweep-only keys stay inapplicable; malformed values still throw.
    EXPECT_FALSE(apply_override(spec, "mixes", "WL1"));
    EXPECT_FALSE(apply_override(spec, "iterations", "5"));
    EXPECT_THROW((void)apply_override(spec, "fabrics", "0"),
                 std::invalid_argument);
    EXPECT_THROW((void)apply_override(spec, "max_batch", "-1"),
                 std::invalid_argument);
    EXPECT_THROW((void)apply_override(spec, "balance", "roundrobin"),
                 std::invalid_argument);
    EXPECT_THROW((void)apply_override(spec, "loads", "0"),
                 std::invalid_argument);
    // The cluster replicates one architecture across its fabrics.
    EXPECT_THROW((void)apply_override(spec, "archs", "kite,floret"),
                 std::invalid_argument);
}

TEST(Overrides, ApplyToMooTransformerAndScalingSpecs) {
    const Registry& reg = Registry::builtin();
    SpecVariant moo = reg.at("fig6").spec;
    EXPECT_TRUE(apply_override(moo, "grid", "6x7"));
    EXPECT_TRUE(apply_override(moo, "iterations", "40"));
    EXPECT_TRUE(apply_override(moo, "workloads", "DNN2,DNN3"));
    EXPECT_TRUE(apply_override(moo, "seed", "18446744073709551615"));
    const auto& m = std::get<Moo3dSpec>(moo);
    EXPECT_EQ(m.width, 6);
    EXPECT_EQ(m.height, 7);
    EXPECT_EQ(m.iterations, 40);
    EXPECT_EQ(m.workloads, (std::vector<std::string>{"DNN2", "DNN3"}));
    EXPECT_EQ(m.seed, UINT64_MAX);  // seeds take the full uint64 range
    EXPECT_EQ(effective_seed(moo), UINT64_MAX);
    EXPECT_FALSE(apply_override(moo, "traffic_scale", "1/128"));

    // The transformer's grid is its ReRAM macro, and it has no seed.
    SpecVariant tf = reg.at("hetero_transformer").spec;
    EXPECT_TRUE(apply_override(tf, "grid", "6x7"));
    EXPECT_TRUE(apply_override(tf, "models", "BERT-Tiny"));
    EXPECT_TRUE(apply_override(tf, "batches", "2,4"));
    EXPECT_FALSE(apply_override(tf, "seed", "3"));
    const auto& t = std::get<TransformerSpec>(tf);
    EXPECT_EQ(t.hetero.macro_width, 6);
    EXPECT_EQ(t.hetero.macro_height, 7);
    EXPECT_EQ(t.models, (std::vector<std::string>{"bert-tiny"}));
    EXPECT_EQ(t.batches, (std::vector<std::int32_t>{2, 4}));
    EXPECT_EQ(effective_seed(tf), 0u);
    EXPECT_THROW((void)apply_override(tf, "grid", "6x7,8x8"), std::invalid_argument);

    SpecVariant scaling = reg.at("ablation_scaling").spec;
    EXPECT_TRUE(apply_override(scaling, "sides", "4,6"));
    EXPECT_TRUE(apply_override(scaling, "lambdas", "2"));
    EXPECT_TRUE(apply_override(scaling, "seed", "11"));
    EXPECT_TRUE(apply_override(scaling, "injection_rate", "0.5"));
    EXPECT_FALSE(apply_override(scaling, "grid", "8x8"));  // sides define it
    const auto& sc = std::get<ScalingSpec>(scaling);
    EXPECT_EQ(sc.sides, (std::vector<std::int32_t>{4, 6}));
    EXPECT_EQ(sc.lambdas, (std::vector<std::int32_t>{2}));
    EXPECT_EQ(sc.mix_seed, 11u);
    EXPECT_DOUBLE_EQ(sc.eval.sim.injection_rate, 0.5);
}

TEST(Scenario, Fig4RunsThroughTheRegistry) {
    // fig4 is mapping-only (no NoC simulation), so it is cheap enough to
    // execute end to end in a unit test: report function + engine + JSON.
    const Scenario& sc = Registry::builtin().at("fig4");
    core::SweepEngine engine(1);
    std::ostringstream out;
    RunContext ctx{engine, out};
    const JsonReport report = sc.report(sc.spec, ctx);
    const util::Json doc = util::json_parse(report.to_json());
    ASSERT_NE(doc.find("tables")->find("utilization"), nullptr);
    const auto& spec = std::get<core::SweepSpec>(sc.spec);
    EXPECT_EQ(doc.find("tables")->find("utilization")->find("rows")
                  ->as_array().size(),
              spec.archs.size() * spec.mixes.size());
    EXPECT_NE(out.str().find("Fig. 4"), std::string::npos);
}

TEST(Scenario, Fig5AfterFig3BuildsNoFabrics) {
    // fig3 and fig5 sweep one spec: on one shared engine, fig5 is answered
    // by the sweep memo, so it builds no fabric, simulates nothing and does
    // not touch the fabric cache at all. A third sweep of fig3 with another
    // run_seed misses the memo but runs entirely on the fabrics fig3
    // built — the cross-scenario cache reuse the floretsim_run driver
    // exists for.
    const Registry& reg = Registry::builtin();
    core::SweepEngine engine(2);
    std::ostringstream out;
    RunContext ctx{engine, out};
    obs::MetricsRegistry& metrics = obs::MetricsRegistry::global();
    const auto sim_runs = [&] {
        const util::Json snap = metrics.snapshot();
        const util::Json* v = snap.find("counters")->find("sim.runs");
        return v == nullptr ? std::int64_t{0} : v->as_int();
    };
    metrics.reset();
    metrics.enable();
    std::int64_t misses[3] = {0, 0, 0}, hits[3] = {0, 0, 0}, sims[3] = {0, 0, 0};
    const char* names[3] = {"fig3", "fig5", "fig3"};
    for (int k = 0; k < 3; ++k) {
        Scenario sc = reg.at(names[k]);
        ASSERT_TRUE(apply_override(sc.spec, "traffic_scale", "1/512"));
        if (k == 2) set_seed(sc.spec, effective_seed(sc.spec) + 1);
        const auto misses0 = engine.cache().misses();
        const auto hits0 = engine.cache().hits();
        const auto sims0 = sim_runs();
        (void)sc.report(sc.spec, ctx);
        misses[k] = engine.cache().misses() - misses0;
        hits[k] = engine.cache().hits() - hits0;
        sims[k] = sim_runs() - sims0;
    }
    // run(points) is not memoized, so sweeping fig3's own points again
    // reaches run_mix_dynamic on fig3's fabrics: their NoI memos, kept
    // across sweeps, must answer every input fig3 simulated.
    Scenario fig3 = reg.at("fig3");
    ASSERT_TRUE(apply_override(fig3.spec, "traffic_scale", "1/512"));
    const auto misses0 = engine.cache().misses();
    const auto hits0 = engine.cache().hits();
    const auto sims0 = sim_runs();
    const auto resweep = engine.run(std::get<core::SweepSpec>(fig3.spec).expand());
    const std::int64_t resweep_misses = engine.cache().misses() - misses0;
    const std::int64_t resweep_hits = engine.cache().hits() - hits0;
    const std::int64_t resweep_sims = sim_runs() - sims0;
    metrics.disable();
    metrics.reset();
    EXPECT_GT(misses[0], 0) << "fig3 built no fabrics";
    EXPECT_GT(sims[0], 0) << "fig3 simulated nothing";
    EXPECT_EQ(misses[1], 0) << "fig5 rebuilt fabrics fig3 had already built";
    EXPECT_EQ(hits[1], 0) << "fig5 swept again instead of reusing fig3's rows";
    EXPECT_EQ(sims[1], 0) << "fig5 re-simulated NoI inputs fig3 already ran";
    EXPECT_EQ(engine.sweep_memo_hits(), 1);
    EXPECT_EQ(engine.sweep_memo_misses(), 2);
    EXPECT_EQ(misses[2], 0) << "the reseeded sweep rebuilt fig3's fabrics";
    EXPECT_GT(hits[2], 0) << "the reseeded sweep never touched the fabric cache";
    EXPECT_FALSE(resweep.rows.empty());
    EXPECT_EQ(resweep_misses, 0) << "fig3's points rebuilt fig3's fabrics";
    EXPECT_GT(resweep_hits, 0) << "fig3's points never touched the fabric cache";
    EXPECT_EQ(resweep_sims, 0) << "fig3's points re-simulated NoI inputs fig3 already ran";
}

TEST(Scenario, PlacementStudiesRunOnTheSpecsStack) {
    // fig7 anneals and renders the spec's width x height x depth stack:
    // at 6x6 each tier map has six rows of six cells.
    core::SweepEngine engine(2);
    std::ostringstream out;
    RunContext ctx{engine, out};
    Scenario fig7 = Registry::builtin().at("fig7");
    ASSERT_TRUE(apply_override(fig7.spec, "grid", "6x6"));
    ASSERT_TRUE(apply_override(fig7.spec, "iterations", "0"));
    (void)fig7.report(fig7.spec, ctx);
    std::istringstream lines(out.str());
    std::int32_t maps = 0;
    for (std::string line; std::getline(lines, line);) {
        if (line.rfind("tier z=", 0) != 0) continue;
        ++maps;
        for (int row = 0; row < 6; ++row) {
            ASSERT_TRUE(std::getline(lines, line));
            EXPECT_EQ(line.size(), 12u) << "row " << row << ": \"" << line << "\"";
        }
        ASSERT_TRUE(std::getline(lines, line));
        EXPECT_EQ(line.rfind("peak ", 0), 0u) << "a seventh row: " << line;
    }
    EXPECT_EQ(maps, 2);

    // A stack too small for the partition fails loudly instead of
    // indexing past the route table.
    ASSERT_TRUE(apply_override(fig7.spec, "grid", "3x3"));
    try {
        (void)fig7.report(fig7.spec, ctx);
        FAIL() << "fig7 ran on a 3x3x4 stack";
    } catch (const std::length_error& e) {
        EXPECT_NE(std::string(e.what()).find("shorter than partition demand"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Scenario, ReportFunctionsRejectTheWrongSpecKind) {
    const Registry& reg = Registry::builtin();
    core::SweepEngine engine(1);
    std::ostringstream out;
    RunContext ctx{engine, out};
    EXPECT_THROW((void)reg.at("fig3").report(SpecVariant{ServeGridSpec{}}, ctx),
                 std::invalid_argument);
    EXPECT_THROW(
        (void)reg.at("serving").report(SpecVariant{core::SweepSpec{}}, ctx),
        std::invalid_argument);
}

// ---- Scenario files ---------------------------------------------------------

class ScenarioFile : public ::testing::Test {
protected:
    std::string write_file(const std::string& content) {
        path_ = ::testing::TempDir() + "scenario_file_test.json";
        std::ofstream f(path_);
        f << content;
        return path_;
    }
    void TearDown() override {
        if (!path_.empty()) std::remove(path_.c_str());
    }
    std::string path_;
};

TEST_F(ScenarioFile, LoadsARegisteredScenarioWithReplacementSpec) {
    const auto path = write_file(
        R"({"scenario": "fig3", "name": "fig3-small",
            "spec": {"archs": ["floret", "kite"], "mixes": ["WL1"]}})");
    const Scenario s = load_scenario_file(path, Registry::builtin());
    EXPECT_EQ(s.name, "fig3-small");
    const auto& spec = std::get<core::SweepSpec>(s.spec);
    EXPECT_EQ(spec.archs, (std::vector<Arch>{Arch::kFloret, Arch::kKite}));
    ASSERT_TRUE(s.report);
}

TEST_F(ScenarioFile, LoadsABareSpecWithTheGenericReport) {
    const auto path = write_file(
        R"({"kind": "sweep",
            "spec": {"archs": ["floret"], "mixes": ["WL1"], "grids": ["6x6"]}})");
    const Scenario s = load_scenario_file(path, Registry::builtin());
    EXPECT_EQ(s.name, "custom");
    EXPECT_EQ(std::get<core::SweepSpec>(s.spec).grids.front(),
              (std::pair<std::int32_t, std::int32_t>{6, 6}));
    ASSERT_TRUE(s.report);
}

TEST_F(ScenarioFile, RejectsBadFiles) {
    EXPECT_THROW((void)load_scenario_file(
                     write_file(R"({"scenario": "fig99"})"), Registry::builtin()),
                 std::invalid_argument);
    EXPECT_THROW(
        (void)load_scenario_file(write_file(R"({"spec": {}})"),
                                 Registry::builtin()),
        std::invalid_argument);
    EXPECT_THROW((void)load_scenario_file(
                     write_file(R"({"kind": "sweep", "spec": {}, "x": 1})"),
                     Registry::builtin()),
                 std::invalid_argument);
    EXPECT_THROW((void)load_scenario_file(
                     write_file(R"({"scenario": "fig3", "kind": "serve_grid"})"),
                     Registry::builtin()),
                 std::invalid_argument);
    EXPECT_THROW((void)load_scenario_file(write_file("{"), Registry::builtin()),
                 std::invalid_argument);
    EXPECT_THROW((void)load_scenario_file("/nonexistent/path.json",
                                          Registry::builtin()),
                 std::runtime_error);
}

TEST(SeedHelper, PointsEverySpecKindAtTheSeed) {
    SpecVariant sweep = core::SweepSpec{};
    set_seed(sweep, 42);
    EXPECT_EQ(std::get<core::SweepSpec>(sweep).run_seed, 42u);
    SpecVariant grid = ServeGridSpec{};
    set_seed(grid, 42);
    EXPECT_EQ(std::get<ServeGridSpec>(grid).base.base_seed, 42u);
}

}  // namespace
}  // namespace floretsim::scenario
