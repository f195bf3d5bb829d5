/**
 * @file
 * Tests for least-squares line fitting and line intersection.
 */

#include <gtest/gtest.h>

#include <vector>

#include "../support/normal_noise.hh"
#include "analysis/linreg.hh"
#include "sim/rng.hh"

namespace
{

using namespace odbsim;
using namespace odbsim::analysis;

TEST(LinearFit, ExactLineRecovered)
{
    const std::vector<double> xs = {1, 2, 3, 4, 5};
    const std::vector<double> ys = {5, 8, 11, 14, 17}; // y = 3x + 2.
    const LinearFit f = fitLine(xs, ys);
    EXPECT_NEAR(f.slope, 3.0, 1e-12);
    EXPECT_NEAR(f.intercept, 2.0, 1e-12);
    EXPECT_NEAR(f.r2, 1.0, 1e-12);
    EXPECT_NEAR(f.sse, 0.0, 1e-12);
    EXPECT_EQ(f.n, 5u);
}

TEST(LinearFit, PredictInterpolatesAndExtrapolates)
{
    const std::vector<double> xs = {0, 10};
    const std::vector<double> ys = {1, 21};
    const LinearFit f = fitLine(xs, ys);
    EXPECT_NEAR(f.predict(5), 11.0, 1e-12);
    EXPECT_NEAR(f.predict(100), 201.0, 1e-12);
}

TEST(LinearFit, FlatDataHasZeroSlope)
{
    const std::vector<double> xs = {1, 2, 3, 4};
    const std::vector<double> ys = {7, 7, 7, 7};
    const LinearFit f = fitLine(xs, ys);
    EXPECT_NEAR(f.slope, 0.0, 1e-12);
    EXPECT_NEAR(f.intercept, 7.0, 1e-12);
}

TEST(LinearFit, NoisyDataApproximatesTrueLine)
{
    Rng rng(5);
    test::NormalNoise normal(rng);
    std::vector<double> xs, ys;
    for (int i = 0; i < 200; ++i) {
        xs.push_back(i);
        ys.push_back(2.5 * i + 40.0 + normal(0.0, 3.0));
    }
    const LinearFit f = fitLine(xs, ys);
    EXPECT_NEAR(f.slope, 2.5, 0.05);
    EXPECT_NEAR(f.intercept, 40.0, 3.0);
    EXPECT_GT(f.r2, 0.99);
    EXPECT_GT(f.sse, 0.0);
}

TEST(LinearFit, DegenerateVerticalDataFallsBackToMean)
{
    const std::vector<double> xs = {5, 5, 5, 5};
    const std::vector<double> ys = {1, 2, 3, 4};
    const LinearFit f = fitLine(xs, ys);
    EXPECT_DOUBLE_EQ(f.slope, 0.0);
    EXPECT_DOUBLE_EQ(f.intercept, 2.5);
}

TEST(LinearFit, TwoPointsExact)
{
    const std::vector<double> xs = {1, 3};
    const std::vector<double> ys = {2, 8};
    const LinearFit f = fitLine(xs, ys);
    EXPECT_NEAR(f.slope, 3.0, 1e-12);
    EXPECT_NEAR(f.intercept, -1.0, 1e-12);
}

TEST(IntersectX, CrossingLines)
{
    LinearFit a, b;
    a.slope = 2.0;
    a.intercept = 0.0;
    b.slope = -1.0;
    b.intercept = 9.0;
    EXPECT_NEAR(intersectX(a, b, -1.0), 3.0, 1e-12);
}

TEST(IntersectX, ParallelLinesUseFallback)
{
    LinearFit a, b;
    a.slope = 1.0;
    a.intercept = 0.0;
    b.slope = 1.0;
    b.intercept = 5.0;
    EXPECT_DOUBLE_EQ(intersectX(a, b, 42.0), 42.0);
}

/** Property: fit residual orthogonality — SSE is minimal at the fit. */
class LinRegProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(LinRegProperty, PerturbedLinesHaveLargerSse)
{
    Rng rng(GetParam());
    test::NormalNoise normal(rng);
    std::vector<double> xs, ys;
    for (int i = 0; i < 50; ++i) {
        xs.push_back(rng.uniform(0, 100));
        ys.push_back(1.7 * xs.back() - 3.0 + normal(0, 2.0));
    }
    const LinearFit f = fitLine(xs, ys);
    auto sse_of = [&](double slope, double icept) {
        double sse = 0.0;
        for (std::size_t i = 0; i < xs.size(); ++i) {
            const double r = ys[i] - (slope * xs[i] + icept);
            sse += r * r;
        }
        return sse;
    };
    EXPECT_LE(f.sse, sse_of(f.slope + 0.01, f.intercept) + 1e-9);
    EXPECT_LE(f.sse, sse_of(f.slope - 0.01, f.intercept) + 1e-9);
    EXPECT_LE(f.sse, sse_of(f.slope, f.intercept + 1.0) + 1e-9);
    EXPECT_LE(f.sse, sse_of(f.slope, f.intercept - 1.0) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LinRegProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

} // namespace
