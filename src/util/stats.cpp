#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace arbmis::util {

void RunningStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const noexcept {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto n1 = static_cast<double>(n_);
  const auto n2 = static_cast<double>(other.n_);
  const double total = n1 + n2;
  mean_ += delta * n2 / total;
  m2_ += other.m2_ + delta * delta * n1 * n2 / total;
  n_ += other.n_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double quantile(std::span<const double> sorted_values, double q) noexcept {
  if (sorted_values.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(sorted_values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted_values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac;
}

Interval wilson_interval(std::uint64_t successes, std::uint64_t trials,
                         double z) noexcept {
  if (trials == 0) return {0.0, 1.0};
  const auto n = static_cast<double>(trials);
  const double phat = static_cast<double>(successes) / n;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = (phat + z2 / (2.0 * n)) / denom;
  const double margin =
      z * std::sqrt(phat * (1.0 - phat) / n + z2 / (4.0 * n * n)) / denom;
  return {std::max(0.0, center - margin), std::min(1.0, center + margin)};
}

LinearFit linear_fit(std::span<const double> xs,
                     std::span<const double> ys) noexcept {
  LinearFit fit;
  const std::size_t n = std::min(xs.size(), ys.size());
  if (n < 2) return fit;
  double sx = 0, sy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sx += xs[i];
    sy += ys[i];
  }
  const double mx = sx / static_cast<double>(n);
  const double my = sy / static_cast<double>(n);
  double sxx = 0, sxy = 0, syy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxx += dx * dx;
    sxy += dx * dy;
    syy += dy * dy;
  }
  if (sxx <= 0.0) return fit;
  fit.slope = sxy / sxx;
  fit.intercept = my - fit.slope * mx;
  fit.r_squared = syy > 0.0 ? (sxy * sxy) / (sxx * syy) : 1.0;
  return fit;
}

double correlation(std::span<const double> xs,
                   std::span<const double> ys) noexcept {
  const std::size_t n = std::min(xs.size(), ys.size());
  if (n < 2) return 0.0;
  const LinearFit fit = linear_fit(xs.first(n), ys.first(n));
  if (fit.r_squared <= 0.0) return 0.0;
  const double r = std::sqrt(fit.r_squared);
  return fit.slope >= 0.0 ? r : -r;
}

double log_factorial(std::uint64_t n) noexcept {
  return std::lgamma(static_cast<double>(n) + 1.0);
}

double log_binomial(std::uint64_t n, std::uint64_t k) noexcept {
  if (k > n) return -std::numeric_limits<double>::infinity();
  return log_factorial(n) - log_factorial(k) - log_factorial(n - k);
}

double binomial_cdf(std::uint64_t k, std::uint64_t n, double p) noexcept {
  if (p <= 0.0) return 1.0;
  if (p >= 1.0) return k >= n ? 1.0 : 0.0;
  if (k >= n) return 1.0;
  const double logp = std::log(p);
  const double logq = std::log1p(-p);
  double total = 0.0;
  for (std::uint64_t i = 0; i <= k; ++i) {
    const double term = log_binomial(n, i) + static_cast<double>(i) * logp +
                        static_cast<double>(n - i) * logq;
    total += std::exp(term);
  }
  return std::min(total, 1.0);
}

}  // namespace arbmis::util
