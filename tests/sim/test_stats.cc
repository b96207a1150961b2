#include <gtest/gtest.h>

#include <sstream>

#include "sim/stats.hh"

namespace ccnuma
{
namespace
{

TEST(Stats, ScalarAccumulates)
{
    stats::Scalar s("count", "a counter");
    EXPECT_EQ(s.value(), 0.0);
    ++s;
    s += 2.5;
    EXPECT_DOUBLE_EQ(s.value(), 3.5);
    s.reset();
    EXPECT_EQ(s.value(), 0.0);
}

TEST(Stats, AverageTracksMoments)
{
    stats::Average a("lat", "latency");
    a.sample(10);
    a.sample(20);
    a.sample(60);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_DOUBLE_EQ(a.mean(), 30.0);
    EXPECT_DOUBLE_EQ(a.minValue(), 10.0);
    EXPECT_DOUBLE_EQ(a.maxValue(), 60.0);
    a.reset();
    EXPECT_EQ(a.count(), 0u);
    EXPECT_EQ(a.mean(), 0.0);
}

TEST(Stats, DistributionBuckets)
{
    stats::Distribution d("d", "dist", 10.0, 4);
    d.sample(5);
    d.sample(15);
    d.sample(15);
    d.sample(39);
    d.sample(1000); // overflow
    EXPECT_EQ(d.bucket(0), 1u);
    EXPECT_EQ(d.bucket(1), 2u);
    EXPECT_EQ(d.bucket(3), 1u);
    EXPECT_EQ(d.overflow(), 1u);
    EXPECT_EQ(d.count(), 5u);
}

TEST(Stats, QuantileUniform)
{
    stats::Distribution d("d", "dist", 10.0, 10);
    for (int v = 0; v < 100; ++v)
        d.sample(v);
    EXPECT_DOUBLE_EQ(d.p50(), 50.0);
    EXPECT_DOUBLE_EQ(d.p90(), 90.0);
    EXPECT_DOUBLE_EQ(d.p99(), 99.0);
    EXPECT_DOUBLE_EQ(d.quantile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(d.quantile(1.0), 100.0);
}

TEST(Stats, QuantileSingleSampleIsExactAtMedian)
{
    stats::Distribution d("d", "dist", 10.0, 10);
    d.sample(25);
    EXPECT_DOUBLE_EQ(d.p50(), 25.0);
}

TEST(Stats, QuantileEmptyIsZero)
{
    stats::Distribution d("d", "dist", 10.0, 4);
    EXPECT_DOUBLE_EQ(d.p50(), 0.0);
    EXPECT_DOUBLE_EQ(d.p99(), 0.0);
}

TEST(Stats, QuantileUnderflowBucket)
{
    stats::Distribution d("d", "dist", 10.0, 4);
    d.sample(-5);
    d.sample(-3);
    d.sample(5);
    EXPECT_EQ(d.underflow(), 2u);
    EXPECT_EQ(d.count(), 3u);
    // The p50 rank (1.5 of 3) sits inside the underflow bucket,
    // which reports the recorded minimum.
    EXPECT_DOUBLE_EQ(d.p50(), -5.0);
    // p99 (rank 2.97) interpolates within the first regular bucket.
    EXPECT_DOUBLE_EQ(d.p99(), 9.7);
}

TEST(Stats, QuantileOverflowBucket)
{
    stats::Distribution d("d", "dist", 10.0, 2);
    d.sample(5);
    d.sample(15);
    d.sample(100);
    d.sample(200);
    EXPECT_EQ(d.overflow(), 2u);
    // p50 (rank 2) lands at the top edge of the regular buckets.
    EXPECT_DOUBLE_EQ(d.p50(), 20.0);
    // p90/p99 interpolate from the last bucket edge to the recorded
    // maximum (20 .. 200).
    EXPECT_DOUBLE_EQ(d.p90(), 20.0 + 0.8 * 180.0);
    EXPECT_DOUBLE_EQ(d.p99(), 20.0 + 0.98 * 180.0);
}

TEST(Stats, DistributionResetClearsUnderflow)
{
    stats::Distribution d("d", "dist", 10.0, 4);
    d.sample(-1);
    d.sample(50); // overflow
    EXPECT_EQ(d.underflow(), 1u);
    EXPECT_EQ(d.overflow(), 1u);
    d.reset();
    EXPECT_EQ(d.underflow(), 0u);
    EXPECT_EQ(d.overflow(), 0u);
    EXPECT_EQ(d.count(), 0u);
}

TEST(Stats, GroupPrintAndReset)
{
    stats::Group g("unit");
    stats::Scalar s("hits", "hits seen");
    stats::Average a("delay", "queue delay");
    g.add(&s);
    g.add(&a);
    s += 42;
    a.sample(7);

    std::ostringstream os;
    g.print(os);
    EXPECT_NE(os.str().find("unit.hits"), std::string::npos);
    EXPECT_NE(os.str().find("42"), std::string::npos);
    EXPECT_NE(os.str().find("unit.delay.mean"), std::string::npos);

    g.resetAll();
    EXPECT_EQ(s.value(), 0.0);
    EXPECT_EQ(a.count(), 0u);
}

} // namespace
} // namespace ccnuma
