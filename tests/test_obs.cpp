/// Unit pins for the observability layer (src/obs/): the metrics
/// registry's zero-cost-when-off contract, snapshot determinism across
/// thread splits, the cross-process absorb merge, the tracer's ring
/// buffers and Chrome trace-event export, build provenance, and — the
/// satellite that motivated finish()/write-checking everywhere — that
/// unwritable output paths surface as failures instead of silent
/// success. The end-to-end obs-on/obs-off report parity differential is
/// scripted in bench_smoke.sh.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/core/sweep.h"
#include "src/core/experiment.h"
#include "src/obs/build_info.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/scenario/report.h"
#include "src/util/json.h"
#include "src/workload/tables.h"

namespace floretsim::obs {
namespace {

// ------------------------------------------------------------ metrics

TEST(Metrics, DisabledRecordingIsANoOp) {
    MetricsRegistry r;
    ASSERT_FALSE(r.enabled());
    r.add("c");
    r.set_gauge("g", 1.0);
    r.observe("h", 2.0);
    const util::Json snap = r.snapshot();
    EXPECT_TRUE(snap.find("counters")->as_object().empty());
    EXPECT_TRUE(snap.find("gauges")->as_object().empty());
    EXPECT_TRUE(snap.find("histograms")->as_object().empty());
}

TEST(Metrics, CountersSumAcrossThreads) {
    MetricsRegistry r;
    r.enable();
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t)
        threads.emplace_back([&r] {
            for (int i = 0; i < 1000; ++i) r.add("work.items");
            r.add("work.batches", 2);
        });
    for (auto& t : threads) t.join();
    const util::Json snap = r.snapshot();
    EXPECT_EQ(snap.find("counters")->find("work.items")->as_int(), 4000);
    EXPECT_EQ(snap.find("counters")->find("work.batches")->as_int(), 8);
}

TEST(Metrics, SnapshotIdenticalAcrossThreadSplits) {
    // The same samples split 1-way vs 4-way must serialize to the same
    // bytes: counters and log2 buckets merge by order-independent sums,
    // and the quantile estimates are replayed from the merged buckets at
    // snapshot time (never from the insertion order).
    const auto record = [](MetricsRegistry& r, int n_threads) {
        r.enable();
        std::vector<std::thread> threads;
        for (int t = 0; t < n_threads; ++t)
            threads.emplace_back([&r, t, n_threads] {
                for (int i = t; i < 256; i += n_threads) {
                    r.add("items");
                    r.observe("latency", static_cast<double>(1 + i % 97));
                }
            });
        for (auto& t : threads) t.join();
    };
    MetricsRegistry serial, parallel;
    record(serial, 1);
    record(parallel, 4);
    EXPECT_EQ(util::json_serialize(serial.snapshot()),
              util::json_serialize(parallel.snapshot()));
}

TEST(Metrics, SnapshotIdenticalAcrossEngineThreadCounts) {
    // The real wiring: the same 2-point sweep through evaluate_point on a
    // 1-thread engine and a 4-thread engine records identical metrics —
    // the per-process half of the fleet-parity guarantee.
    core::SweepSpec spec;
    spec.archs = {core::experiment::Arch::kSiamMesh,
                  core::experiment::Arch::kFloret};
    spec.grids = {{6, 6}};
    spec.mixes = {workload::table2().front()};
    auto cfg = core::experiment::default_eval_config();
    cfg.traffic_scale = 1.0 / 512.0;
    spec.evals = {cfg};
    spec.greedy_max_gap = 2;

    MetricsRegistry& g = MetricsRegistry::global();
    g.reset();
    g.enable();
    std::string serialized[2];
    int i = 0;
    for (const std::int32_t threads : {1, 4}) {
        core::SweepEngine engine(threads);
        (void)engine.run(spec);
        serialized[i++] = util::json_serialize(g.snapshot());
        g.reset();
    }
    g.disable();
    EXPECT_EQ(serialized[0], serialized[1]);
    // And the instrumentation actually fired.
    EXPECT_NE(serialized[0].find("sweep.points"), std::string::npos);
    EXPECT_NE(serialized[0].find("noi.evals"), std::string::npos);
    EXPECT_NE(serialized[0].find("sim.runs"), std::string::npos);
}

TEST(Metrics, HistogramCountMinMaxAreExact) {
    MetricsRegistry r;
    r.enable();
    for (const double v : {3.0, 100.0, 0.25, 7.0}) r.observe("h", v);
    const util::Json snap = r.snapshot();
    const util::Json* h = snap.find("histograms")->find("h");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->find("count")->as_int(), 4);
    EXPECT_EQ(h->find("min")->as_double(), 0.25);
    EXPECT_EQ(h->find("max")->as_double(), 100.0);
    EXPECT_GT(h->find("p50")->as_double(), 0.0);
    // frexp exponents: 0.25 -> -1, 3.0 -> 2, 7.0 -> 3, 100.0 -> 7.
    EXPECT_EQ(h->find("buckets")->as_object().size(), 4u);
}

TEST(Metrics, AbsorbMergesCountersGaugesAndBuckets) {
    MetricsRegistry a, b;
    a.enable();
    b.enable();
    a.add("shared", 3);
    a.add("only_a", 1);
    a.set_gauge("g", 1.0);
    a.observe("h", 8.0);
    b.add("shared", 4);
    b.set_gauge("g", 2.0);
    b.observe("h", 8.0);
    b.observe("h", 0.5);
    a.absorb(b.snapshot());
    const util::Json snap = a.snapshot();
    EXPECT_EQ(snap.find("counters")->find("shared")->as_int(), 7);
    EXPECT_EQ(snap.find("counters")->find("only_a")->as_int(), 1);
    EXPECT_EQ(snap.find("gauges")->find("g")->as_double(), 2.0);
    const util::Json* h = snap.find("histograms")->find("h");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->find("count")->as_int(), 3);
    EXPECT_EQ(h->find("min")->as_double(), 0.5);
    EXPECT_EQ(h->find("max")->as_double(), 8.0);
}

TEST(Metrics, AbsorbRejectsMalformedDocuments) {
    MetricsRegistry r;
    r.enable();
    EXPECT_THROW(r.absorb(util::json_parse("[]")), std::invalid_argument);
    EXPECT_THROW(r.absorb(util::json_parse("{\"counters\": {}}")),
                 std::invalid_argument);
    EXPECT_THROW(
        r.absorb(util::json_parse(
            R"({"counters":{},"gauges":{},"histograms":{"h":{"count":1}}})")),
        std::invalid_argument);
    EXPECT_THROW(r.absorb(util::json_parse(
                     R"({"counters":{},"gauges":{},"histograms":
                        {"h":{"count":1,"min":1,"max":1,"buckets":{"x":1}}}})")),
                 std::invalid_argument);
    // Nothing half-merged.
    EXPECT_TRUE(r.snapshot().find("counters")->as_object().empty());
}

TEST(Metrics, ResetClearsButKeepsRecordingValid) {
    MetricsRegistry r;
    r.enable();
    r.add("c", 5);
    r.reset();
    EXPECT_TRUE(r.snapshot().find("counters")->as_object().empty());
    r.add("c", 2);
    EXPECT_EQ(r.snapshot().find("counters")->find("c")->as_int(), 2);
}

// ------------------------------------------------------------- tracer

TEST(Tracer, RingOverflowKeepsMostRecentAndCountsDropped) {
    Tracer t;
    t.enable(/*capacity_per_thread=*/4);
    for (int i = 0; i < 7; ++i) t.record("e", "cat", 100 + i, 1);
    EXPECT_EQ(t.event_count(), 4u);
    EXPECT_EQ(t.dropped(), 3u);
    const util::Json doc = t.chrome_trace();
    const auto& events = doc.find("traceEvents")->as_array();
    ASSERT_EQ(events.size(), 4u);
    // The survivors are the most recent 4 (ts 103..106), sorted by ts.
    EXPECT_EQ(events.front().find("ts")->as_int(), 103);
    EXPECT_EQ(events.back().find("ts")->as_int(), 106);
}

TEST(Tracer, SpanRecordsCompleteChromeEvent) {
    Tracer& g = Tracer::global();
    g.reset();
    g.enable();
    { const Span span("unit_test_span", "test"); }
    g.disable();
    const util::Json doc = g.chrome_trace();
    const util::Json* found = nullptr;
    for (const auto& e : doc.find("traceEvents")->as_array())
        if (e.find("name") && e.find("name")->as_string() == "unit_test_span")
            found = &e;
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->find("cat")->as_string(), "test");
    EXPECT_EQ(found->find("ph")->as_string(), "X");
    EXPECT_GE(found->find("dur")->as_int(), 0);
    EXPECT_NE(found->find("ts"), nullptr);
    EXPECT_NE(found->find("pid"), nullptr);
    EXPECT_NE(found->find("tid"), nullptr);
    g.reset();
}

TEST(Tracer, DisabledSpanRecordsNothing) {
    Tracer& g = Tracer::global();
    g.reset();
    ASSERT_FALSE(g.enabled());
    { const Span span("invisible"); }
    EXPECT_EQ(g.event_count(), 0u);
}

TEST(Tracer, AbsorbAppendsForeignEventsAndRejectsJunk) {
    Tracer t;
    t.enable();
    t.record("own", "cat", 50, 5);
    t.absorb(util::json_parse(
        R"({"traceEvents":[{"name":"foreign","ph":"X","ts":1,"dur":2,)"
        R"("pid":99,"tid":1,"cat":"w"}]})"));
    const util::Json doc = t.chrome_trace();
    const auto& events = doc.find("traceEvents")->as_array();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events.back().find("name")->as_string(), "foreign");
    EXPECT_THROW(t.absorb(util::json_parse("{}")), std::invalid_argument);
    EXPECT_THROW(t.absorb(util::json_parse(R"({"traceEvents": 3})")),
                 std::invalid_argument);
}

TEST(Tracer, ProcessLabelBecomesMetadataEvent) {
    Tracer t;
    t.enable();
    t.set_process_label("worker shard 1/2");
    t.record("e", "c", 1, 1);
    const util::Json doc = t.chrome_trace();
    bool saw_meta = false;
    for (const auto& e : doc.find("traceEvents")->as_array())
        if (e.find("ph") && e.find("ph")->as_string() == "M")
            saw_meta = true;
    EXPECT_TRUE(saw_meta);
}

TEST(Tracer, InternReturnsStableDeduplicatedPointers) {
    Tracer t;
    const char* a = t.intern(std::string("dynamic_name"));
    const char* b = t.intern(std::string("dynamic_name"));
    EXPECT_EQ(a, b);
    EXPECT_STREQ(a, "dynamic_name");
}

// ------------------------------------------- write-failure propagation

TEST(WriteFailures, UnwritablePathsReturnFalse) {
    // The satellite pin: a full disk or a typo'd directory must turn into
    // a nonzero exit, not a silently missing file. Empty paths stay
    // successful no-ops.
    const std::string bad = "/nonexistent-floretsim-dir/out.json";
    MetricsRegistry r;
    EXPECT_TRUE(r.write(""));
    EXPECT_FALSE(r.write(bad));
    Tracer t;
    EXPECT_TRUE(t.write(""));
    EXPECT_FALSE(t.write(bad));
    scenario::JsonReport report("probe");
    EXPECT_TRUE(report.write(""));
    EXPECT_FALSE(report.write(bad));
}

// ----------------------------------------------------------- build info

TEST(BuildInfo, FieldsArePresentAndNonEmpty) {
    EXPECT_FALSE(std::string(build_type()).empty());
    EXPECT_FALSE(compiler_id().empty());
    EXPECT_FALSE(std::string(git_sha()).empty());
    const util::Json j = build_info_json();
    ASSERT_NE(j.find("build_type"), nullptr);
    ASSERT_NE(j.find("compiler"), nullptr);
    ASSERT_NE(j.find("git_sha"), nullptr);
}

TEST(RunInfo, ReportCarriesProvenanceAndOverwritesOnRekey) {
    scenario::JsonReport report("probe");
    report.set_run_info("seed", std::int64_t{7});
    report.set_run_info("seed", std::int64_t{9});  // re-finished report
    const util::Json doc = report.to_value();
    const util::Json* info = doc.find("run_info");
    ASSERT_NE(info, nullptr);
    EXPECT_NE(info->find("build_type"), nullptr);
    EXPECT_NE(info->find("compiler"), nullptr);
    EXPECT_NE(info->find("git_sha"), nullptr);
    EXPECT_NE(info->find("sim_core"), nullptr);
    EXPECT_EQ(info->find("seed")->as_int(), 9);
    std::size_t seed_keys = 0;
    for (const auto& [k, v] : info->as_object()) {
        (void)v;
        if (k == "seed") ++seed_keys;
    }
    EXPECT_EQ(seed_keys, 1u);
}

}  // namespace
}  // namespace floretsim::obs
