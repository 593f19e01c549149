// Small statistics toolkit used by the test suite and benchmark harness:
// streaming moments, order statistics, binomial confidence intervals, and
// least-squares fits for the round-complexity shape checks.
#pragma once

#include <cstdint>
#include <span>

namespace arbmis::util {

/// Streaming mean/variance accumulator (Welford's algorithm).
class RunningStats {
 public:
  void add(double x) noexcept;

  std::uint64_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ > 0 ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const noexcept;
  double min() const noexcept { return n_ > 0 ? min_ : 0.0; }
  double max() const noexcept { return n_ > 0 ? max_ : 0.0; }
  double sum() const noexcept { return sum_; }

  /// Merges another accumulator into this one (parallel Welford).
  void merge(const RunningStats& other) noexcept;

 private:
  // Fixed-width on purpose: std::size_t is 32 bits on some targets, and a
  // long Monte-Carlo sweep can exceed 2^32 samples.
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Quantile of a sample using linear interpolation between order statistics
/// (type-7, the numpy/R default). q in [0,1]. Empty input returns 0.
double quantile(std::span<const double> sorted_values, double q) noexcept;

/// Wilson score interval for a binomial proportion.
struct Interval {
  double lo = 0.0;
  double hi = 0.0;
  bool contains(double p) const noexcept { return p >= lo && p <= hi; }
};

/// `successes` out of `trials` with z-score `z` (1.96 ~ 95%, 3.29 ~ 99.9%).
Interval wilson_interval(std::uint64_t successes, std::uint64_t trials,
                         double z = 1.96) noexcept;

/// Ordinary least-squares fit y = slope*x + intercept.
struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;
  /// Coefficient of determination in [0,1]; 0 if undefined.
  double r_squared = 0.0;
};

LinearFit linear_fit(std::span<const double> xs,
                     std::span<const double> ys) noexcept;

/// Pearson correlation coefficient; 0 if undefined.
double correlation(std::span<const double> xs,
                   std::span<const double> ys) noexcept;

/// Natural-log factorial via lgamma; exact enough for bound computations.
double log_factorial(std::uint64_t n) noexcept;

/// log of the binomial coefficient C(n, k); -inf if k > n.
double log_binomial(std::uint64_t n, std::uint64_t k) noexcept;

/// Exact binomial lower-tail probability P[Bin(n, p) <= k], summed in log
/// space for numerical stability. Used as the independent-case reference
/// in read-k tail experiments.
double binomial_cdf(std::uint64_t k, std::uint64_t n, double p) noexcept;

}  // namespace arbmis::util
