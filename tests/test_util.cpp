#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/util/compute_once.h"
#include "src/util/geometry.h"
#include "src/util/rng.h"
#include "src/util/stats.h"

namespace floretsim::util {
namespace {

TEST(Rng, DeterministicForSeed) {
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) same += (a.next() == b.next());
    EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval) {
    Rng r(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformRangeRespectsBounds) {
    Rng r(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = r.uniform(-3.0, 5.0);
        EXPECT_GE(u, -3.0);
        EXPECT_LT(u, 5.0);
    }
}

TEST(Rng, BelowNeverReachesBound) {
    Rng r(99);
    for (int i = 0; i < 10000; ++i) EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, BelowCoversAllResidues) {
    Rng r(5);
    std::vector<int> seen(7, 0);
    for (int i = 0; i < 7000; ++i) ++seen[r.below(7)];
    for (const int c : seen) EXPECT_GT(c, 700);
}

TEST(Rng, RangeInclusive) {
    Rng r(11);
    bool hit_lo = false;
    bool hit_hi = false;
    for (int i = 0; i < 5000; ++i) {
        const auto v = r.range(-2, 2);
        EXPECT_GE(v, -2);
        EXPECT_LE(v, 2);
        hit_lo |= (v == -2);
        hit_hi |= (v == 2);
    }
    EXPECT_TRUE(hit_lo);
    EXPECT_TRUE(hit_hi);
}

TEST(Rng, NormalMomentsApproximatelyStandard) {
    Rng r(3);
    RunningStats s;
    for (int i = 0; i < 50000; ++i) s.add(r.normal());
    EXPECT_NEAR(s.mean(), 0.0, 0.03);
    EXPECT_NEAR(s.stddev(), 1.0, 0.03);
}

TEST(Rng, NormalScaled) {
    Rng r(4);
    RunningStats s;
    for (int i = 0; i < 50000; ++i) s.add(r.normal(10.0, 2.0));
    EXPECT_NEAR(s.mean(), 10.0, 0.1);
    EXPECT_NEAR(s.stddev(), 2.0, 0.1);
}

TEST(Rng, ChanceExtremes) {
    Rng r(8);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(Rng, SatisfiesUniformRandomBitGenerator) {
    Rng r(1);
    std::uniform_int_distribution<int> dist(0, 9);
    for (int i = 0; i < 100; ++i) {
        const int v = dist(r);
        EXPECT_GE(v, 0);
        EXPECT_LE(v, 9);
    }
}

TEST(RunningStats, EmptyIsZero) {
    RunningStats s;
    EXPECT_TRUE(s.empty());
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, KnownValues) {
    RunningStats s;
    for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.variance(), 4.571428571, 1e-9);  // unbiased
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
    EXPECT_EQ(s.count(), 8u);
}

TEST(RunningStats, MergeMatchesSequential) {
    RunningStats a;
    RunningStats b;
    RunningStats all;
    Rng r(21);
    for (int i = 0; i < 1000; ++i) {
        const double x = r.uniform(-5, 5);
        all.add(x);
        (i % 2 == 0 ? a : b).add(x);
    }
    a.merge(b);
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
    RunningStats a;
    a.add(1.0);
    a.add(3.0);
    RunningStats empty;
    a.merge(empty);
    EXPECT_DOUBLE_EQ(a.mean(), 2.0);
    empty.merge(a);
    EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
}

TEST(Percentile, EdgesAndMedian) {
    std::vector<double> v{1, 2, 3, 4, 5};
    EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(v, 1.0), 5.0);
    EXPECT_DOUBLE_EQ(percentile(v, 0.5), 3.0);
    EXPECT_DOUBLE_EQ(percentile(v, 0.25), 2.0);
}

TEST(Percentile, EmptyReturnsZero) { EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0.0); }

TEST(Percentile, UnsortedInput) {
    EXPECT_DOUBLE_EQ(percentile({5, 1, 3, 2, 4}, 0.5), 3.0);
}

TEST(Histogram, AddAndQuery) {
    Histogram h;
    h.add(2);
    h.add(2);
    h.add(4, 3);
    EXPECT_EQ(h.at(2), 2u);
    EXPECT_EQ(h.at(4), 3u);
    EXPECT_EQ(h.at(0), 0u);
    EXPECT_EQ(h.at(99), 0u);
    EXPECT_EQ(h.total(), 5u);
    EXPECT_EQ(h.size(), 5u);
}

TEST(Geometry, Manhattan2d) {
    EXPECT_EQ(manhattan(Point2{0, 0}, Point2{3, 4}), 7);
    EXPECT_EQ(manhattan(Point2{-1, -1}, Point2{1, 1}), 4);
    EXPECT_EQ(manhattan(Point2{2, 2}, Point2{2, 2}), 0);
}

TEST(Geometry, Manhattan3d) {
    EXPECT_EQ(manhattan(Point3{0, 0, 0}, Point3{1, 2, 3}), 6);
}

TEST(Geometry, Euclidean) {
    EXPECT_DOUBLE_EQ(euclidean(Point2{0, 0}, Point2{3, 4}), 5.0);
}

class IndexRoundTrip : public ::testing::TestWithParam<std::int32_t> {};

TEST_P(IndexRoundTrip, ToFromIndexInverse) {
    const std::int32_t width = GetParam();
    for (std::int32_t y = 0; y < 7; ++y) {
        for (std::int32_t x = 0; x < width; ++x) {
            const Point2 p{x, y};
            EXPECT_EQ(from_index(to_index(p, width), width), p);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, IndexRoundTrip, ::testing::Values(1, 2, 5, 10, 13));

// -------------------------------------------------------------- ComputeOnce

TEST(ComputeOnce, ComputesEachKeyOnceAndCountsEveryLookup) {
    ComputeOnce<int, std::string> map;
    std::vector<Lookup> seen;
    int computed = 0;
    const auto get = [&](int key) {
        return map.get(
            key, [&] { ++computed; return std::to_string(key); },
            [&](Lookup l) { seen.push_back(l); });
    };
    EXPECT_EQ(get(1), "1");
    EXPECT_EQ(get(1), "1");
    EXPECT_EQ(get(2), "2");
    EXPECT_EQ(computed, 2);
    EXPECT_EQ(seen, (std::vector<Lookup>{Lookup::kMiss, Lookup::kHit, Lookup::kMiss}));
    EXPECT_EQ(map.hits(), 1);
    EXPECT_EQ(map.misses(), 2);
    EXPECT_EQ(map.entries(), 2u);
    map.clear();
    EXPECT_EQ(map.hits(), 0);
    EXPECT_EQ(map.misses(), 0);
    EXPECT_EQ(map.entries(), 0u);
}

TEST(ComputeOnce, ConcurrentCallersOfOneKeyComputeOnce) {
    ComputeOnce<int, int> map;
    std::atomic<int> computed{0};
    std::vector<int> got(8, 0);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < got.size(); ++t)
        threads.emplace_back([&, t] {
            got[t] = map.get(
                7, [&] { ++computed; return 49; }, [](Lookup) {});
        });
    for (auto& t : threads) t.join();
    EXPECT_EQ(computed.load(), 1);
    for (const int v : got) EXPECT_EQ(v, 49);
    EXPECT_EQ(map.misses(), 1);
    EXPECT_EQ(map.hits(), 7);
}

TEST(ComputeOnce, AnErrorReachesAWaiterAndALaterCallRetries) {
    // The owner's computation throws only once hits() shows the second
    // caller waiting on it, so the waiter path runs on every execution.
    ComputeOnce<int, int> map;
    std::atomic<bool> computing{false};
    std::atomic<int> threw{0};
    std::thread owner([&] {
        try {
            (void)map.get(
                1,
                [&]() -> int {
                    computing = true;
                    while (map.hits() == 0) std::this_thread::yield();
                    throw std::runtime_error("owner failed");
                },
                [](Lookup l) { EXPECT_EQ(l, Lookup::kMiss); });
        } catch (const std::runtime_error&) {
            ++threw;
        }
    });
    while (!computing) std::this_thread::yield();
    Lookup waiter_lookup = Lookup::kMiss;
    EXPECT_THROW((void)map.get(
                     1, []() -> int { return 0; },
                     [&](Lookup l) { waiter_lookup = l; }),
                 std::runtime_error);
    owner.join();
    EXPECT_EQ(waiter_lookup, Lookup::kHit);
    EXPECT_EQ(threw.load(), 1);
    EXPECT_EQ(map.entries(), 0u) << "the failed entry was stored";

    // A later call computes afresh and stores its value.
    EXPECT_EQ(map.get(
                  1, [] { return 5; }, [](Lookup l) { EXPECT_EQ(l, Lookup::kMiss); }),
              5);
    EXPECT_EQ(map.entries(), 1u);
    EXPECT_EQ(map.misses(), 2);
    EXPECT_EQ(map.hits(), 1);
}

TEST(ComputeOnce, PastTheCapAMissComputesWithoutStoring) {
    ComputeOnce<int, int> map(1);
    int computed = 0;
    Lookup last = Lookup::kHit;
    const auto get = [&](int key) {
        return map.get(
            key, [&] { ++computed; return key * 10; }, [&](Lookup l) { last = l; });
    };
    EXPECT_EQ(get(1), 10);
    EXPECT_EQ(last, Lookup::kMiss);
    EXPECT_EQ(get(2), 20);
    EXPECT_EQ(last, Lookup::kUncached);
    EXPECT_EQ(get(2), 20);
    EXPECT_EQ(last, Lookup::kUncached);
    EXPECT_EQ(get(1), 10);
    EXPECT_EQ(last, Lookup::kHit);
    EXPECT_EQ(computed, 3);
    EXPECT_EQ(map.entries(), 1u);
    EXPECT_EQ(map.misses(), 3);
    EXPECT_EQ(map.hits(), 1);
}

}  // namespace
}  // namespace floretsim::util
