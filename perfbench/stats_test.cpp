// Unit tests of the benchmark's statistics helpers (perfbench/stats.h).
#include "stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace perfbench {
namespace {

std::vector<double> ramp(std::size_t n) {
    std::vector<double> v;
    for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
    return v;
}

TEST(Stats, TailPercentileNeedsTenSamplesBeyondIt) {
    EXPECT_TRUE(tail_eligible(1000, 0.99));
    EXPECT_FALSE(tail_eligible(999, 0.99));
    EXPECT_TRUE(tail_eligible(100, 0.90));
    EXPECT_FALSE(tail_eligible(99, 0.90));
    EXPECT_TRUE(tail_eligible(20, 0.50));
    EXPECT_FALSE(tail_eligible(19, 0.50));
    EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
    EXPECT_EQ(samples_beyond(0, 0.99), 0u);
}

TEST(Stats, NearestRankQuantileAndMedian) {
    EXPECT_DOUBLE_EQ(quantile(ramp(1000), 0.99), 990.0);
    EXPECT_DOUBLE_EQ(quantile(ramp(100), 0.90), 90.0);
    EXPECT_DOUBLE_EQ(quantile({5.0}, 0.99), 5.0);
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_TRUE(std::isnan(median({})));
    EXPECT_TRUE(std::isnan(quantile({}, 0.5)));
}

TEST(Stats, FailedRequestsCountAsOverAnyLimit) {
    std::vector<double> v = ramp(1000);
    for (std::size_t i = 0; i < 11; ++i) v[i] = kInf; // 1.1% failed
    EXPECT_TRUE(std::isinf(quantile(v, 0.99)));
    v[0] = 1.0; // exactly 1% failed: p99 is the largest real sample
    EXPECT_DOUBLE_EQ(quantile(v, 0.99), 1000.0);
}

TEST(Stats, GeometricMean) {
    EXPECT_NEAR(geomean({1.0, 100.0}), 10.0, 1e-12);
    EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
    EXPECT_TRUE(std::isnan(geomean({})));
    EXPECT_TRUE(std::isnan(geomean({1.0, 0.0})));
    EXPECT_TRUE(std::isnan(geomean({1.0, -3.0})));
}

TEST(Stats, LatenessIsSendMinusDueAndEarlySendsAreOnTime) {
    std::vector<double> due, sent;
    for (int i = 0; i < 1000; ++i) {
        due.push_back(i);
        sent.push_back(i + (i % 100 == 0 ? 5.0 : 0.1)); // 1% of sends 5 ms late
    }
    sent[1] = due[1] - 0.5; // early: counted as on time
    const Lateness l = lateness(due, sent);
    EXPECT_EQ(l.samples, 1000u);
    EXPECT_NEAR(l.p50_ms, 0.1, 1e-9);
    EXPECT_NEAR(l.p99_ms, 0.1, 1e-9); // ten late sends lie beyond the p99
    EXPECT_FALSE(generator_fell_behind(l, 1.0));

    const Lateness few = lateness({0, 1, 2}, {0.2, 1.2, 2.2});
    EXPECT_TRUE(std::isnan(few.p99_ms)); // too few samples for a p99
}

TEST(Stats, GeneratorFallsBehindOnMedianOrTail) {
    Lateness l;
    l.samples = 1000;
    l.p50_ms = 0.05;
    l.p99_ms = 0.5;
    EXPECT_FALSE(generator_fell_behind(l, 1.0));
    l.p50_ms = 88.0; // blocking clients: the whole schedule slips
    EXPECT_TRUE(generator_fell_behind(l, 1.0));
    l.p50_ms = 0.05;
    l.p99_ms = 4.5; // short stalls: reported, not judged
    EXPECT_FALSE(generator_fell_behind(l, 1.0));
    l.p99_ms = 12.0; // a generator thread stalled for longer than the budget allows
    EXPECT_TRUE(generator_fell_behind(l, 1.0));
    EXPECT_FALSE(generator_fell_behind(Lateness{}, 1.0));
}

} // namespace
} // namespace perfbench
