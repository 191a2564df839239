#include "src/util/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "src/fleet/protocol.h"
#include "src/scenario/spec_json.h"

namespace floretsim::util {
namespace {

TEST(Json, ScalarRoundTrip) {
    EXPECT_EQ(json_parse("null"), Json());
    EXPECT_EQ(json_parse("true"), Json(true));
    EXPECT_EQ(json_parse("false"), Json(false));
    EXPECT_EQ(json_parse("42").as_int(), 42);
    EXPECT_EQ(json_parse("-7").as_int(), -7);
    EXPECT_DOUBLE_EQ(json_parse("0.5").as_double(), 0.5);
    EXPECT_DOUBLE_EQ(json_parse("1e3").as_double(), 1000.0);
    EXPECT_EQ(json_parse("\"hi\\nthere\"").as_string(), "hi\nthere");
}

TEST(Json, SixtyFourBitIntegersSurviveExactly) {
    // Seeds and cycle caps are 64-bit; doubles would corrupt them.
    const std::uint64_t big = 18446744073709551615ull;  // 2^64 - 1
    const Json j(big);
    EXPECT_EQ(json_parse(json_serialize(j)).as_uint(), big);
    const std::int64_t negative = std::numeric_limits<std::int64_t>::min();
    EXPECT_EQ(json_parse(json_serialize(Json(negative))).as_int(), negative);
}

TEST(Json, DoublesRoundTripBitExactly) {
    for (const double v : {1.0 / 3.0, 0.1, 6.02214076e23, 5e-324,
                           1.0 / 256.0}) {
        const Json parsed = json_parse(json_serialize(Json(v)));
        EXPECT_DOUBLE_EQ(parsed.as_double(), v);
    }
}

TEST(Json, NonFiniteSerializesAsNull) {
    EXPECT_EQ(json_serialize(Json(std::nan(""))), "null\n");
    EXPECT_EQ(json_serialize(Json(std::numeric_limits<double>::infinity())),
              "null\n");
}

TEST(Json, NestedStructuresRoundTrip) {
    Json obj = Json::object();
    obj.set("name", "fig3");
    Json arr = Json::array();
    arr.push_back(1);
    arr.push_back("two");
    arr.push_back(Json());
    obj.set("items", std::move(arr));
    Json inner = Json::object();
    inner.set("deep", true);
    obj.set("nested", std::move(inner));
    EXPECT_EQ(json_parse(json_serialize(obj)), obj);
}

TEST(Json, NumericEqualityIsCrossKind) {
    EXPECT_EQ(json_parse("1"), Json(1.0));  // int vs double, same value
    EXPECT_NE(json_parse("1"), json_parse("2"));
    EXPECT_NE(json_parse("1"), Json("1"));  // number vs string
}

TEST(Json, RejectsMalformedDocuments) {
    EXPECT_THROW((void)json_parse(""), std::invalid_argument);
    EXPECT_THROW((void)json_parse("{"), std::invalid_argument);
    EXPECT_THROW((void)json_parse("[1,]"), std::invalid_argument);
    EXPECT_THROW((void)json_parse("{\"a\": 1,}"), std::invalid_argument);
    EXPECT_THROW((void)json_parse("nul"), std::invalid_argument);
    EXPECT_THROW((void)json_parse("01x"), std::invalid_argument);
    EXPECT_THROW((void)json_parse("\"unterminated"), std::invalid_argument);
    EXPECT_THROW((void)json_parse("{} trailing"), std::invalid_argument);
    EXPECT_THROW((void)json_parse("{\"a\":1 \"b\":2}"), std::invalid_argument);
}

TEST(Json, RejectsLeadingZeros) {
    // RFC 8259 strictness: python3 -m json.tool (the smoke validator)
    // rejects these, so the parser must too.
    EXPECT_THROW((void)json_parse("0123"), std::invalid_argument);
    EXPECT_THROW((void)json_parse("-0123"), std::invalid_argument);
    EXPECT_NO_THROW((void)json_parse("0"));
    EXPECT_NO_THROW((void)json_parse("-0"));
    EXPECT_NO_THROW((void)json_parse("0.5"));
}

TEST(Json, RejectsDuplicateKeys) {
    EXPECT_THROW((void)json_parse("{\"a\": 1, \"a\": 2}"), std::invalid_argument);
}

TEST(Json, ErrorsCarryLineAndColumn) {
    try {
        (void)json_parse("{\n  \"a\": nope\n}");
        FAIL() << "expected a parse error";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("2:"), std::string::npos) << e.what();
    }
}

TEST(Json, UnicodeEscapes) {
    EXPECT_EQ(json_parse("\"\\u0041\"").as_string(), "A");
    EXPECT_EQ(json_parse("\"\\u00e9\"").as_string(), "\xc3\xa9");  // é
    // Surrogate pair: U+1F600.
    EXPECT_EQ(json_parse("\"\\ud83d\\ude00\"").as_string(), "\xf0\x9f\x98\x80");
    EXPECT_THROW((void)json_parse("\"\\ud83d\""), std::invalid_argument);
}

TEST(Json, CheckedAccessorsRejectWrongKinds) {
    EXPECT_THROW((void)json_parse("\"s\"").as_int(), std::invalid_argument);
    EXPECT_THROW((void)json_parse("1.5").as_int(), std::invalid_argument);
    EXPECT_THROW((void)json_parse("-1").as_uint(), std::invalid_argument);
    EXPECT_THROW((void)json_parse("[]").as_object(), std::invalid_argument);
    EXPECT_NO_THROW((void)json_parse("8.0").as_int());  // integral double: ok
}

TEST(Json, ObjectFindAndOrder) {
    const Json obj = json_parse("{\"b\": 1, \"a\": 2}");
    ASSERT_NE(obj.find("a"), nullptr);
    EXPECT_EQ(obj.find("a")->as_int(), 2);
    EXPECT_EQ(obj.find("missing"), nullptr);
    // Insertion order is preserved (reports rely on it for readability).
    EXPECT_EQ(obj.as_object().front().first, "b");
}

TEST(Json, CompactSerializationParsesBackEqual) {
    const Json doc = json_parse(
        R"({"a": [1, 2.5, "x\n", null, true], "b": {"c": -7}, "d": []})");
    const std::string compact = json_serialize_compact(doc);
    EXPECT_EQ(compact.find('\n'), std::string::npos);
    EXPECT_EQ(compact.find(' '), std::string::npos);
    EXPECT_EQ(json_parse(compact), doc);
    // Numbers format identically in both forms.
    EXPECT_EQ(json_serialize_compact(Json(1.0 / 3.0)) + "\n",
              json_serialize(Json(1.0 / 3.0)));
}

// ---- Adversarial corpus -----------------------------------------------------
//
// The fleet wire formats (SweepPoint request lists, SweepRow return
// streams, worker frames) consume bytes from other processes; every malformed
// shape must surface as a clean std::invalid_argument — no crash, no
// partially-populated value (the from_json functions return by value and
// throw before anything escapes). Table-driven so new attack shapes are
// one line each.

enum class Target { kParse, kPoint, kPointList, kRow, kRowList };

struct AdversarialCase {
    const char* label;
    Target target;
    const char* text;
};

void feed(Target target, const std::string& text) {
    switch (target) {
        case Target::kParse: (void)json_parse(text); break;
        case Target::kPoint:
            (void)scenario::sweep_point_from_json(json_parse(text));
            break;
        case Target::kPointList:
            (void)scenario::sweep_points_from_json(json_parse(text));
            break;
        case Target::kRow:
            (void)scenario::sweep_row_from_json(json_parse(text));
            break;
        case Target::kRowList:
            (void)scenario::sweep_rows_from_json(json_parse(text));
            break;
    }
}

TEST(JsonAdversarial, MalformedWireInputsAllThrowCleanly) {
    const AdversarialCase corpus[] = {
        // Truncated input (every prefix should die in the parser).
        {"truncated object", Target::kParse, "{\"arch\": \"flo"},
        {"truncated array", Target::kParse, "[{\"grid\": \"6x6\"},"},
        {"truncated escape", Target::kParse, "\"\\u00"},
        {"truncated point", Target::kPoint, "{\"arch\""},
        // Duplicate keys (strict parser rejects before from_json runs).
        {"duplicate key", Target::kParse, "{\"a\": 1, \"a\": 2}"},
        {"duplicate point key", Target::kPoint,
         "{\"run_seed\": 1, \"run_seed\": 2}"},
        // Overflow / out-of-range integers.
        {"int32 overflow", Target::kPoint, "{\"greedy_max_gap\": 99999999999}"},
        {"negative uint", Target::kPoint, "{\"swap_seed\": -1}"},
        {"uint64 overflow", Target::kPoint,
         "{\"swap_seed\": 99999999999999999999999999}"},
        {"grid side overflow", Target::kPoint, "{\"grid\": [99999999999, 4]}"},
        // Wrong-typed fields.
        {"bool grid", Target::kPoint, "{\"grid\": true}"},
        {"string seed", Target::kPoint, "{\"run_seed\": \"one\"}"},
        {"fractional seed", Target::kPoint, "{\"run_seed\": 1.5}"},
        {"object where list", Target::kPointList, "{\"points\": []}"},
        {"number where point", Target::kPointList, "[42]"},
        {"string hops", Target::kRow, "{\"result\": {\"flit_hops\": \"many\"}}"},
        {"int completed", Target::kRow, "{\"result\": {\"all_completed\": 3}}"},
        {"array where row", Target::kRowList, "[[]]"},
        // Unknown keys (a typoed knob must never silently run defaults).
        {"unknown point key", Target::kPoint, "{\"run_sed\": 1}"},
        {"unknown result key", Target::kRow, "{\"result\": {\"cycles\": 1}}"},
        {"unknown row key", Target::kRow, "{\"second\": 0.5}"},
        // Domain validation.
        {"unknown arch", Target::kPoint, "{\"arch\": \"torus\"}"},
        {"unknown mix", Target::kPoint, "{\"mix\": \"WL99\"}"},
        {"zero grid", Target::kPoint, "{\"grid\": \"0x4\"}"},
    };
    for (const auto& c : corpus) {
        EXPECT_THROW(feed(c.target, c.text), std::invalid_argument) << c.label;
    }
    // No partial state: after the whole corpus, a good document still
    // parses to exactly the expected value.
    EXPECT_EQ(scenario::sweep_point_from_json(json_parse("{}")),
              floretsim::core::SweepPoint{});
}

TEST(JsonAdversarial, EmptyPointListIsRejectedAtTheWorkerBoundary) {
    // "[]" is valid JSON and a valid (empty) list for the pure API...
    EXPECT_TRUE(scenario::sweep_points_from_json(json_parse("[]")).empty());
    EXPECT_TRUE(scenario::sweep_rows_from_json(json_parse("[]")).empty());
    // ...but a worker handed an empty work order must fail loudly:
    // fleet::points_from_text is the boundary every worker goes through.
    EXPECT_THROW((void)fleet::points_from_text("[]", "pts.json"),
                 std::invalid_argument);
}

}  // namespace
}  // namespace floretsim::util
