/**
 * @file
 * Lightweight statistics primitives used by every model in odbsim:
 * plain counters, running means/variances, and fixed-bucket histograms.
 *
 * Counters are intentionally trivial (a wrapped uint64_t) so models can
 * increment them in hot paths; aggregation and pretty-printing live in
 * the analysis layer.
 */

#ifndef ODBSIM_SIM_STATS_HH
#define ODBSIM_SIM_STATS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace odbsim
{

/** A monotonically increasing event counter. */
class Counter
{
  public:
    void inc(std::uint64_t n = 1) { value_ += n; }
    void reset() { value_ = 0; }
    std::uint64_t value() const { return value_; }

  private:
    std::uint64_t value_ = 0;
};

/**
 * Running mean / variance / extrema accumulator (Welford's algorithm).
 */
class RunningStat
{
  public:
    void add(double x);
    void reset();

    std::uint64_t count() const { return n_; }
    double mean() const { return n_ ? mean_ : 0.0; }
    double variance() const;
    double stddev() const;
    double min() const { return n_ ? min_ : 0.0; }
    double max() const { return n_ ? max_ : 0.0; }
    double sum() const { return sum_; }

  private:
    std::uint64_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    double sum_ = 0.0;
};

/**
 * Histogram with uniform buckets over [lo, hi); out-of-range samples are
 * clamped into the first/last bucket and counted separately.
 */
class Histogram
{
  public:
    Histogram(double lo, double hi, std::size_t buckets);

    void add(double x, std::uint64_t weight = 1);
    void reset();

    std::uint64_t totalCount() const { return total_; }
    std::uint64_t underflow() const { return underflow_; }
    std::uint64_t overflow() const { return overflow_; }
    const std::vector<std::uint64_t> &buckets() const { return counts_; }
    double bucketLow(std::size_t i) const;
    double bucketWidth() const { return width_; }

    /** Approximate quantile (linear within the containing bucket). */
    double quantile(double q) const;

  private:
    double lo_;
    double hi_;
    double width_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
    std::uint64_t underflow_ = 0;
    std::uint64_t overflow_ = 0;
};

} // namespace odbsim

#endif // ODBSIM_SIM_STATS_HH
