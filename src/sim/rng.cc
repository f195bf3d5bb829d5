#include "sim/rng.hh"

#include <cmath>

#include "sim/logging.hh"

namespace odbsim
{

namespace
{

std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t x = seed;
    for (auto &s : s_)
        s = splitmix64(x);
    // Derive the per-stream NURand C constant from the seed, as TPC-C
    // derives it per run.
    nurandC_ = splitmix64(x) % 1024;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

std::uint64_t
Rng::below(std::uint64_t n)
{
    odbsim_assert(n > 0, "Rng::below needs a positive bound");
    // Multiply-shift bounded sampling (Lemire); bias is negligible for
    // the domain sizes used here.
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * n) >> 64);
}

std::int64_t
Rng::range(std::int64_t lo, std::int64_t hi)
{
    odbsim_assert(hi >= lo, "Rng::range needs hi >= lo");
    return lo + static_cast<std::int64_t>(
                    below(static_cast<std::uint64_t>(hi - lo + 1)));
}

double
Rng::exponential(double mean)
{
    double u;
    do {
        u = uniform();
    } while (u <= 0.0);
    return -mean * std::log(u);
}

std::int64_t
Rng::nurand(std::int64_t a, std::int64_t x, std::int64_t y)
{
    const std::int64_t c = static_cast<std::int64_t>(nurandC_ % (a + 1));
    return (((range(0, a) | range(x, y)) + c) % (y - x + 1)) + x;
}

Rng
Rng::fork()
{
    return Rng(next());
}

} // namespace odbsim
