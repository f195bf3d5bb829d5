/**
 * @file
 * Tests for the deterministic RNG.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "sim/rng.hh"

namespace
{

using namespace odbsim;

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(7);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, UniformRangeRespectsBounds)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = r.uniform(3.0, 5.0);
        ASSERT_GE(u, 3.0);
        ASSERT_LT(u, 5.0);
    }
}

TEST(Rng, BelowRespectsBound)
{
    Rng r(9);
    for (int i = 0; i < 10000; ++i)
        ASSERT_LT(r.below(17), 17u);
}

TEST(Rng, BelowCoversDomain)
{
    Rng r(11);
    std::map<std::uint64_t, int> seen;
    for (int i = 0; i < 5000; ++i)
        ++seen[r.below(8)];
    EXPECT_EQ(seen.size(), 8u);
    for (const auto &[v, n] : seen)
        EXPECT_GT(n, 400) << "value " << v << " underrepresented";
}

TEST(Rng, RangeInclusive)
{
    Rng r(13);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 5000; ++i) {
        const auto v = r.range(-2, 2);
        ASSERT_GE(v, -2);
        ASSERT_LE(v, 2);
        saw_lo |= v == -2;
        saw_hi |= v == 2;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceMatchesProbability)
{
    Rng r(17);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += r.chance(0.25);
    EXPECT_NEAR(hits / 20000.0, 0.25, 0.02);
}

TEST(Rng, ExponentialHasRequestedMean)
{
    Rng r(19);
    double sum = 0.0;
    for (int i = 0; i < 20000; ++i) {
        const double v = r.exponential(4.0);
        ASSERT_GT(v, 0.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 20000.0, 4.0, 0.15);
}

TEST(Rng, NurandStaysInRange)
{
    Rng r(29);
    for (int i = 0; i < 10000; ++i) {
        const auto v = r.nurand(1023, 0, 2999);
        ASSERT_GE(v, 0);
        ASSERT_LE(v, 2999);
    }
}

TEST(Rng, NurandIsNonUniform)
{
    // The bit-OR construction concentrates mass; the most popular
    // octile should clearly beat the least popular one.
    Rng r(31);
    int bucket[8] = {};
    for (int i = 0; i < 40000; ++i)
        ++bucket[r.nurand(1023, 0, 2999) * 8 / 3000];
    int lo = bucket[0], hi = bucket[0];
    for (int b : bucket) {
        lo = std::min(lo, b);
        hi = std::max(hi, b);
    }
    EXPECT_GT(hi, lo * 3 / 2);
}

TEST(Rng, ForkProducesIndependentStream)
{
    Rng a(42);
    Rng b = a.fork();
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

} // namespace
