/// Unit pins for the result-cache layer: the spec/point hash identity
/// (stable canonical serialization, invariant under user-side JSON key
/// order and whitespace, sensitive to every semantic field) and the
/// on-disk ResultCache (store/lookup round trips, atomic counters, and
/// the adversarial corrupt-entry corpus — a damaged cache must fall back
/// to recompute, never crash or serve bad rows). The end-to-end
/// cold/warm/fleet-warm differential is the cache_parity ctest
/// (scripts/cache_parity.sh).

#include "src/scenario/cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/sweep.h"
#include "src/scenario/registry.h"
#include "src/util/json.h"
#include "src/workload/tables.h"

namespace floretsim::scenario {
namespace {

namespace experiment = core::experiment;
using experiment::Arch;

core::SweepSpec tiny_spec() {
    core::SweepSpec spec;
    spec.archs = {Arch::kSiamMesh, Arch::kFloret};
    spec.grids = {{6, 6}};
    spec.mixes = {workload::table2().front()};
    auto cfg = experiment::default_eval_config();
    cfg.traffic_scale = 1.0 / 512.0;  // keep tests quick
    spec.evals = {cfg};
    spec.greedy_max_gap = 2;
    return spec;
}

/// Self-deleting scratch directory for cache tests.
struct TempDir {
    std::string path;
    TempDir() {
        std::string templ =
            (std::filesystem::temp_directory_path() / "floretsim-cachetest-XXXXXX")
                .string();
        if (!mkdtemp(templ.data())) throw std::runtime_error("mkdtemp failed");
        path = templ;
    }
    ~TempDir() {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }
    TempDir(const TempDir&) = delete;
    TempDir& operator=(const TempDir&) = delete;
};

void write_file(const std::string& path, const std::string& text) {
    std::ofstream f(path, std::ios::binary);
    f << text;
    ASSERT_TRUE(f.good()) << path;
}

// ----------------------------------------------------------- hash identity

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

TEST(SpecHash, ChangesOnEverySemanticField) {
    const auto base = SpecVariant{tiny_spec()};
    const auto h0 = spec_hash(base);

    auto archs = tiny_spec();
    archs.archs = {Arch::kFloret};
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

TEST(PointHash, StableForEqualPointsSensitiveToEveryField) {
    const auto points = tiny_spec().expand();
    ASSERT_GE(points.size(), 2u);
    EXPECT_EQ(point_hash(points[0]), point_hash(points[0]));
    EXPECT_NE(point_hash(points[0]), point_hash(points[1]));

    auto p = points[0];
    p.swap_seed += 1;
    EXPECT_NE(point_hash(p), point_hash(points[0]));
    p = points[0];
    p.width += 1;
    EXPECT_NE(point_hash(p), point_hash(points[0]));
    p = points[0];
    p.eval.traffic_scale *= 2.0;
    EXPECT_NE(point_hash(p), point_hash(points[0]));
}

// --------------------------------------------------------- on-disk cache

TEST(ResultCache, StoreLookupRoundTripsWithCounters) {
    TempDir tmp;
    ResultCache cache(tmp.path + "/cache");
    const auto points = tiny_spec().expand();

    EXPECT_FALSE(cache.probe(points[0]));
    EXPECT_EQ(cache.misses(), 1);

    core::SweepEngine engine(1);
    const auto rows = engine.run(points);
    cache.store(points[0], rows.rows[0]);
    EXPECT_EQ(cache.stores(), 1);
    EXPECT_TRUE(cache.probe(points[0]));
    EXPECT_TRUE(cache.contains_hash(point_hash(points[0])));
    EXPECT_FALSE(cache.contains_hash(point_hash(points[1])));

    const auto back = cache.lookup(points[0]);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->point, rows.rows[0].point);
    EXPECT_EQ(back->result, rows.rows[0].result);
    EXPECT_GE(cache.hits(), 1);
    EXPECT_EQ(cache.evictions(), 0);

    // A second cache on the same directory sees the entry (persistence).
    ResultCache reopened(cache.dir());
    EXPECT_TRUE(reopened.lookup(points[0]).has_value());
}

TEST(ResultCache, ThrowsOnUnwritableDirectory) {
    EXPECT_THROW(ResultCache("/dev/null/cannot-be-a-directory"),
                 std::runtime_error);
}

TEST(ResultCache, CorruptEntriesEvictToRecomputeNeverServe) {
    TempDir tmp;
    ResultCache cache(tmp.path + "/cache");
    const auto points = tiny_spec().expand();
    core::SweepEngine engine(1);
    const auto rows = engine.run(points);

    const std::string valid =
        util::json_serialize(to_json(rows.rows[0]));  // a well-formed entry
    const std::vector<std::string> corpus = {
        "",                                  // empty file
        "{",                                 // truncated JSON
        "[1, 2, 3]",                         // wrong shape: array
        "{}",                                // wrong shape: empty object
        "{\"point\": {}}",                   // missing row fields
        "not json at all \x01\x02\xff",      // binary garbage
        valid.substr(0, valid.size() / 2),   // truncated mid-document
        std::string(4096, '\0'),             // NUL padding (torn write)
    };

    const auto path = cache.entry_path(point_hash(points[0]));
    std::int64_t evictions = 0;
    for (const auto& text : corpus) {
        write_file(path, text);
        const auto got = cache.lookup(points[0]);
        EXPECT_FALSE(got.has_value()) << "served a corrupt entry: " << text;
        EXPECT_FALSE(std::filesystem::exists(path))
            << "corrupt entry not evicted: " << text;
        EXPECT_EQ(cache.evictions(), ++evictions);
        // The cache stays usable: recompute-and-store round-trips.
        cache.store(points[0], rows.rows[0]);
        EXPECT_TRUE(cache.lookup(points[0]).has_value());
        std::filesystem::remove(path);
    }
}

TEST(ResultCache, MismatchedPointEntryEvictsAsCollisionGuard) {
    TempDir tmp;
    ResultCache cache(tmp.path + "/cache");
    const auto points = tiny_spec().expand();
    core::SweepEngine engine(1);
    const auto rows = engine.run(points);

    // A well-formed entry for point 1 planted under point 0's hash: the
    // stored-point validation must reject it rather than return a row
    // computed for a different point.
    write_file(cache.entry_path(point_hash(points[0])),
               util::json_serialize(to_json(rows.rows[1])));
    EXPECT_FALSE(cache.lookup(points[0]).has_value());
    EXPECT_EQ(cache.evictions(), 1);
}

// ------------------------------------------------------- the engine seam

TEST(ResultCache, WarmEngineRunDispatchesNothing) {
    TempDir tmp;
    ResultCache cache(tmp.path + "/cache");
    const auto spec = tiny_spec();

    core::SweepEngine cold(1);
    cold.set_result_cache(&cache);
    const auto expect = cold.run(spec);
    EXPECT_EQ(cache.stores(),
              static_cast<std::int64_t>(expect.rows.size()));

    // A fully warm cache must satisfy the run before dispatch: the stream
    // executor (the seam the worker fleet sits behind) never fires.
    core::SweepEngine warm(1);
    warm.set_result_cache(&cache);
    warm.set_stream_executor(
        [](const std::vector<core::SweepPoint>&)
            -> std::unique_ptr<core::RowStream> {
            throw std::logic_error("executor invoked on a fully warm cache");
        });
    const auto got = warm.run(spec);
    ASSERT_EQ(got.rows.size(), expect.rows.size());
    for (std::size_t i = 0; i < got.rows.size(); ++i) {
        EXPECT_EQ(got.rows[i].point, expect.rows[i].point);
        EXPECT_EQ(got.rows[i].result, expect.rows[i].result);
    }
    EXPECT_EQ(warm.cache().misses(), 0) << "warm run built fabrics";
}

TEST(ResultCache, PartialWarmDispatchesOnlyTheMisses) {
    TempDir tmp;
    ResultCache cache(tmp.path + "/cache");
    const auto points = tiny_spec().expand();
    ASSERT_EQ(points.size(), 2u);

    core::SweepEngine ref(1);
    const auto expect = ref.run(points);
    cache.store(points[0], expect.rows[0]);

    core::SweepEngine engine(1);
    engine.set_result_cache(&cache);
    std::vector<core::SweepPoint> dispatched;
    engine.set_stream_executor(
        [&](const std::vector<core::SweepPoint>& missed) {
            dispatched = missed;
            core::SweepEngine inner(1);
            return std::make_unique<core::VectorRowStream>(inner.run(missed).rows);
        });
    const auto got = engine.run(points);
    ASSERT_EQ(dispatched.size(), 1u) << "cached point was dispatched";
    EXPECT_EQ(dispatched[0], points[1]);
    ASSERT_EQ(got.rows.size(), 2u);
    for (std::size_t i = 0; i < got.rows.size(); ++i) {
        EXPECT_EQ(got.rows[i].point, expect.rows[i].point);
        EXPECT_EQ(got.rows[i].result, expect.rows[i].result);
    }
    // The computed miss was stored back: a rerun is now fully warm.
    EXPECT_TRUE(cache.probe(points[1]));
}

}  // namespace
}  // namespace floretsim::scenario
