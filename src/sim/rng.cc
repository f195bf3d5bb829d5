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

double
Rng::normal(double mean, double stddev)
{
    if (haveSpareNormal_) {
        haveSpareNormal_ = false;
        return mean + stddev * spareNormal_;
    }
    double u1;
    do {
        u1 = uniform();
    } while (u1 <= 0.0);
    const double u2 = uniform();
    const double mag = std::sqrt(-2.0 * std::log(u1));
    const double z0 = mag * std::cos(2.0 * M_PI * u2);
    spareNormal_ = mag * std::sin(2.0 * M_PI * u2);
    haveSpareNormal_ = true;
    return mean + stddev * z0;
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

ZipfGenerator::ZipfGenerator(std::uint64_t n, double theta)
    : n_(n), theta_(theta)
{
    odbsim_assert(n > 0, "Zipf domain must be positive");
    odbsim_assert(theta > 0.0 && theta < 1.0,
                  "Zipf theta must be in (0, 1)");
    alpha_ = 1.0 / (1.0 - theta);
    zetan_ = zeta(n, theta);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
           (1.0 - zeta(2, theta) / zetan_);
}

double
ZipfGenerator::zeta(std::uint64_t n, double theta)
{
    // Direct summation is O(n); acceptable because generators are built
    // once per table at load time with n bounded by table cardinality.
    // For very large domains, use the Euler-Maclaurin approximation.
    if (n > 1000000) {
        // Approximate tail by integral: sum_{i=1..n} i^-theta
        //   ~ zeta(1e6) + integral_{1e6}^{n} x^-theta dx.
        double head = zeta(1000000, theta);
        double a = 1e6, b = static_cast<double>(n);
        double tail = (std::pow(b, 1.0 - theta) - std::pow(a, 1.0 - theta)) /
                      (1.0 - theta);
        return head + tail;
    }
    double sum = 0.0;
    for (std::uint64_t i = 1; i <= n; ++i)
        sum += std::pow(1.0 / static_cast<double>(i), theta);
    return sum;
}

std::uint64_t
ZipfGenerator::sample(Rng &rng) const
{
    const double u = rng.uniform();
    const double uz = u * zetan_;
    if (uz < 1.0)
        return 0;
    if (uz < 1.0 + std::pow(0.5, theta_))
        return 1;
    const double v =
        static_cast<double>(n_) *
        std::pow(eta_ * u - eta_ + 1.0, alpha_);
    std::uint64_t r = static_cast<std::uint64_t>(v);
    return r >= n_ ? n_ - 1 : r;
}

} // namespace odbsim
