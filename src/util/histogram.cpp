#include "util/histogram.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>

namespace arbmis::util {

namespace {
std::string bar(std::uint64_t count, std::uint64_t max_count,
                std::size_t width) {
  if (max_count == 0) return {};
  const auto len = static_cast<std::size_t>(
      std::llround(static_cast<double>(count) /
                   static_cast<double>(max_count) * static_cast<double>(width)));
  return std::string(len, '#');
}
}  // namespace

void Log2Histogram::add(std::uint64_t x) noexcept {
  ++total_;
  max_value_ = std::max(max_value_, x);
  if (x == 0) {
    ++zero_;
    return;
  }
  const auto b = static_cast<std::size_t>(std::bit_width(x) - 1);
  if (b >= counts_.size()) counts_.resize(b + 1, 0);
  ++counts_[b];
}

void Log2Histogram::merge(const Log2Histogram& other) {
  zero_ += other.zero_;
  total_ += other.total_;
  max_value_ = std::max(max_value_, other.max_value_);
  if (other.counts_.size() > counts_.size()) {
    counts_.resize(other.counts_.size(), 0);
  }
  for (std::size_t b = 0; b < other.counts_.size(); ++b) {
    counts_[b] += other.counts_[b];
  }
}

void Log2Histogram::clear() noexcept {
  zero_ = 0;
  counts_.clear();
  total_ = 0;
  max_value_ = 0;
}

std::string Log2Histogram::to_string(std::size_t bar_width) const {
  std::uint64_t max_count = zero_;
  for (auto c : counts_) max_count = std::max(max_count, c);
  std::ostringstream out;
  if (zero_ > 0) out << "  0: " << zero_ << ' ' << bar(zero_, max_count, bar_width) << '\n';
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    if (counts_[b] == 0) continue;
    out << "  [" << (1ULL << b) << ", " << (1ULL << (b + 1)) << "): "
        << counts_[b] << ' ' << bar(counts_[b], max_count, bar_width) << '\n';
  }
  return out.str();
}

}  // namespace arbmis::util
