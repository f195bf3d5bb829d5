/**
 * @file
 * Tests for the two-segment piecewise fit and pivot extraction — the
 * paper's Section 6 model.
 */

#include <gtest/gtest.h>

#include <vector>

#include "../support/normal_noise.hh"
#include "analysis/piecewise.hh"
#include "sim/rng.hh"

namespace
{

using namespace odbsim;
using namespace odbsim::analysis;

/** Synthetic cached/scaled curve with known pivot. */
void
makeCurve(double pivot_x, double steep, double shallow, double y0,
          std::vector<double> &xs, std::vector<double> &ys,
          test::NormalNoise *noise = nullptr, double sigma = 0.0)
{
    for (double x : {10., 25., 50., 75., 100., 150., 200., 300., 400.,
                     600., 800.}) {
        xs.push_back(x);
        double y;
        if (x < pivot_x)
            y = y0 + steep * x;
        else
            y = y0 + steep * pivot_x + shallow * (x - pivot_x);
        if (noise)
            y += (*noise)(0.0, sigma);
        ys.push_back(y);
    }
}

TEST(PiecewiseFit, RecoversCleanPivot)
{
    std::vector<double> xs, ys;
    makeCurve(100.0, 0.02, 0.001, 2.0, xs, ys);
    const PiecewiseFit f = fitTwoSegment(xs, ys);
    EXPECT_NEAR(f.pivotX, 100.0, 8.0);
    EXPECT_NEAR(f.cached.slope, 0.02, 0.002);
    EXPECT_NEAR(f.scaled.slope, 0.001, 0.0005);
    EXPECT_GT(f.cached.slope, f.scaled.slope);
}

TEST(PiecewiseFit, PredictUsesCorrectSegment)
{
    std::vector<double> xs, ys;
    makeCurve(100.0, 0.02, 0.001, 2.0, xs, ys);
    const PiecewiseFit f = fitTwoSegment(xs, ys);
    EXPECT_NEAR(f.predict(50.0), 3.0, 0.1);  // Cached line.
    EXPECT_NEAR(f.predict(400.0), 4.3, 0.1); // Scaled line.
}

TEST(PiecewiseFit, ExtrapolateScaledFollowsRightLine)
{
    std::vector<double> xs, ys;
    makeCurve(100.0, 0.02, 0.001, 2.0, xs, ys);
    const PiecewiseFit f = fitTwoSegment(xs, ys);
    // True value at 1200 W: 2 + 2 + 0.001 * 1100 = 5.1.
    EXPECT_NEAR(extrapolateScaled(f, 1200.0), 5.1, 0.15);
}

TEST(PiecewiseFit, PivotClampedIntoObservedRange)
{
    // Nearly-parallel segments put the raw intersection far away; the
    // fit must clamp it into [min x, max x].
    std::vector<double> xs = {10, 25, 50, 100, 200, 400, 800};
    std::vector<double> ys = {1.0, 1.01, 1.30, 1.31, 1.32, 1.33, 1.34};
    const PiecewiseFit f = fitTwoSegment(xs, ys);
    EXPECT_GE(f.pivotX, 10.0);
    EXPECT_LE(f.pivotX, 800.0);
}

TEST(PiecewiseFit, PrefersSteepThenShallowStructure)
{
    std::vector<double> xs, ys;
    makeCurve(75.0, 0.03, 0.0005, 1.0, xs, ys);
    const PiecewiseFit f = fitTwoSegment(xs, ys);
    EXPECT_GT(f.cached.slope, f.scaled.slope);
}

TEST(PiecewiseFit, BreakIndexSeparatesSegments)
{
    std::vector<double> xs, ys;
    makeCurve(150.0, 0.02, 0.001, 2.0, xs, ys);
    const PiecewiseFit f = fitTwoSegment(xs, ys);
    EXPECT_GE(f.breakIndex, 2u);
    EXPECT_LE(f.breakIndex, xs.size() - 2);
    // Every point belongs to exactly one segment.
    EXPECT_EQ(f.cached.n + f.scaled.n, xs.size());
}

TEST(PiecewiseFit, RejectsTooFewPoints)
{
    std::vector<double> xs = {1, 2, 3};
    std::vector<double> ys = {1, 2, 3};
    EXPECT_DEATH({ fitTwoSegment(xs, ys); }, "at least 4 points");
}

TEST(PiecewiseFit, RejectsUnsortedX)
{
    std::vector<double> xs = {1, 3, 2, 4};
    std::vector<double> ys = {1, 2, 3, 4};
    EXPECT_DEATH({ fitTwoSegment(xs, ys); }, "sorted");
}

/**
 * Property: pivot recovery across noise seeds and pivot locations —
 * the paper's claim that the two-region model is robust.
 */
class PiecewiseRecoveryProperty
    : public ::testing::TestWithParam<std::tuple<double, int>>
{
};

TEST_P(PiecewiseRecoveryProperty, PivotRecoveredUnderNoise)
{
    const auto [pivot, seed] = GetParam();
    Rng rng(seed);
    test::NormalNoise noise(rng);
    std::vector<double> xs, ys;
    makeCurve(pivot, 0.025, 0.0012, 2.0, xs, ys, &noise, 0.03);
    const PiecewiseFit f = fitTwoSegment(xs, ys);
    // Recovered within 40% of the true pivot despite the noise.
    EXPECT_NEAR(f.pivotX, pivot, 0.4 * pivot);
    EXPECT_GT(f.cached.slope, f.scaled.slope);
}

INSTANTIATE_TEST_SUITE_P(
    PivotsAndSeeds, PiecewiseRecoveryProperty,
    ::testing::Combine(::testing::Values(80.0, 120.0, 150.0),
                       ::testing::Values(1, 2, 3, 4, 5)));

} // namespace
