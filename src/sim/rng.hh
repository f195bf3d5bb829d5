/**
 * @file
 * Deterministic random number generation for the simulator.
 *
 * All stochastic behaviour in odbsim flows through Rng so that a run is
 * exactly reproducible from its seed. The generator is xoshiro256**,
 * seeded through SplitMix64, following the reference implementations by
 * Blackman and Vigna.
 */

#ifndef ODBSIM_SIM_RNG_HH
#define ODBSIM_SIM_RNG_HH

#include <bit>
#include <cstdint>
#include <vector>

namespace odbsim
{

/**
 * Deterministic pseudo-random number generator (xoshiro256**).
 *
 * next(), uniform() and chance() are defined inline below: they run
 * once or twice per simulated cache reference.
 */
class Rng
{
  public:
    /** Construct with a 64-bit seed, expanded through SplitMix64. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, n) — n must be > 0. */
    std::uint64_t below(std::uint64_t n);

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t range(std::int64_t lo, std::int64_t hi);

    /** Bernoulli trial with probability p of true. */
    bool chance(double p);

    /** Exponentially distributed value with the given mean. */
    double exponential(double mean);

    /**
     * TPC-C style NURand non-uniform random value over [x, y].
     *
     * @param a The bit-or constant (255, 1023 or 8191 in TPC-C).
     */
    std::int64_t nurand(std::int64_t a, std::int64_t x, std::int64_t y);

    /** Fork an independent child stream (for per-process generators). */
    Rng fork();

  private:
    std::uint64_t s_[4];
    std::uint64_t nurandC_;
};

inline std::uint64_t
Rng::next()
{
    const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;

    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);

    return result;
}

inline double
Rng::uniform()
{
    // 53 random mantissa bits -> uniform in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

inline bool
Rng::chance(double p)
{
    return uniform() < p;
}

} // namespace odbsim

#endif // ODBSIM_SIM_RNG_HH
