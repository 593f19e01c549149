// Histogram for experiment outputs: a power-of-two (log-bucket) histogram
// for heavy-tailed quantities such as bad-set component sizes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace arbmis::util {

/// Log2 histogram for nonnegative integers: bucket b counts values in
/// [2^b, 2^(b+1)), with a dedicated zero bucket.
class Log2Histogram {
 public:
  void add(std::uint64_t x) noexcept;
  /// Adds every value `other` holds, as if each had been add()ed here.
  void merge(const Log2Histogram& other);
  /// Empties the histogram, keeping its bucket storage.
  void clear() noexcept;

  std::uint64_t zero_count() const noexcept { return zero_; }
  std::size_t bucket_count() const noexcept { return counts_.size(); }
  std::uint64_t bucket(std::size_t b) const noexcept {
    return b < counts_.size() ? counts_[b] : 0;
  }
  std::uint64_t total() const noexcept { return total_; }
  std::uint64_t max_value() const noexcept { return max_value_; }

  std::string to_string(std::size_t bar_width = 40) const;

 private:
  std::uint64_t zero_ = 0;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
  std::uint64_t max_value_ = 0;
};

}  // namespace arbmis::util
