/**
 * @file
 * Tests for the statistics primitives.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "sim/stats.hh"

namespace
{

using namespace odbsim;

TEST(Counter, IncrementAndReset)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(RunningStat, EmptyIsZero)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStat, SingleSample)
{
    RunningStat s;
    s.add(5.0);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_EQ(s.mean(), 5.0);
    EXPECT_EQ(s.min(), 5.0);
    EXPECT_EQ(s.max(), 5.0);
    EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStat, KnownMoments)
{
    RunningStat s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(v);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_EQ(s.min(), 2.0);
    EXPECT_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
    // Sample variance of the classic dataset is 32/7.
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(RunningStat, ResetClears)
{
    RunningStat s;
    s.add(1.0);
    s.add(2.0);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.sum(), 0.0);
}

TEST(RunningStat, NegativeValues)
{
    RunningStat s;
    s.add(-3.0);
    s.add(3.0);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.min(), -3.0);
    EXPECT_EQ(s.max(), 3.0);
}

TEST(Histogram, CountsIntoCorrectBuckets)
{
    Histogram h(0.0, 10.0, 10);
    h.add(0.5);
    h.add(5.5);
    h.add(5.7);
    h.add(9.99);
    EXPECT_EQ(h.totalCount(), 4u);
    EXPECT_EQ(h.buckets()[0], 1u);
    EXPECT_EQ(h.buckets()[5], 2u);
    EXPECT_EQ(h.buckets()[9], 1u);
}

TEST(Histogram, OutOfRangeClamped)
{
    Histogram h(0.0, 10.0, 10);
    h.add(-1.0);
    h.add(100.0);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.buckets()[0], 1u);
    EXPECT_EQ(h.buckets()[9], 1u);
    EXPECT_EQ(h.totalCount(), 2u);
}

TEST(Histogram, WeightedAdd)
{
    Histogram h(0.0, 4.0, 4);
    h.add(1.5, 10);
    EXPECT_EQ(h.totalCount(), 10u);
    EXPECT_EQ(h.buckets()[1], 10u);
}

TEST(Histogram, QuantileOfUniformFill)
{
    Histogram h(0.0, 100.0, 100);
    for (int i = 0; i < 100; ++i)
        h.add(i + 0.5);
    EXPECT_NEAR(h.quantile(0.5), 50.0, 1.5);
    EXPECT_NEAR(h.quantile(0.9), 90.0, 1.5);
    EXPECT_NEAR(h.quantile(0.0), 0.0, 1.5);
}

TEST(Histogram, BucketGeometry)
{
    Histogram h(10.0, 20.0, 5);
    EXPECT_DOUBLE_EQ(h.bucketWidth(), 2.0);
    EXPECT_DOUBLE_EQ(h.bucketLow(0), 10.0);
    EXPECT_DOUBLE_EQ(h.bucketLow(4), 18.0);
}

} // namespace
