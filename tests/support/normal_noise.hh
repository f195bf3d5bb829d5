/**
 * @file
 * Normally distributed noise for the regression-fit tests. The
 * simulator draws no normal deviates, so the sampler lives with the
 * tests that add noise to synthetic curves.
 */

#ifndef ODBSIM_TESTS_SUPPORT_NORMAL_NOISE_HH
#define ODBSIM_TESTS_SUPPORT_NORMAL_NOISE_HH

#include <cmath>

#include "sim/rng.hh"

namespace odbsim::test
{

/**
 * Box-Muller normal deviates drawn from an Rng: each pair of uniform
 * draws yields two deviates, and the second is kept for the next call.
 */
class NormalNoise
{
  public:
    explicit NormalNoise(Rng &rng) : rng_(rng) {}

    double
    operator()(double mean, double stddev)
    {
        if (haveSpare_) {
            haveSpare_ = false;
            return mean + stddev * spare_;
        }
        double u1;
        do {
            u1 = rng_.uniform();
        } while (u1 <= 0.0);
        const double u2 = rng_.uniform();
        const double mag = std::sqrt(-2.0 * std::log(u1));
        const double z0 = mag * std::cos(2.0 * M_PI * u2);
        spare_ = mag * std::sin(2.0 * M_PI * u2);
        haveSpare_ = true;
        return mean + stddev * z0;
    }

  private:
    Rng &rng_;
    bool haveSpare_ = false;
    double spare_ = 0.0;
};

} // namespace odbsim::test

#endif // ODBSIM_TESTS_SUPPORT_NORMAL_NOISE_HH
