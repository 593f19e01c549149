// Whole-token number parsing for command-line flags, shared by the bench
// binaries (bench/bench_common.h) and the serving tools (tools/).
#pragma once

#include <charconv>
#include <limits>
#include <string_view>
#include <system_error>

namespace arbmis::util {

/// Parses all of `text` as one decimal number in [lo, hi] into `out`.
/// Returns false, leaving `out` as it was, on anything else: std::from_chars
/// takes no sign on an unsigned T and no leading '+' or space, so "-1",
/// "7x", "" and a value past T's range all fail, as does NaN for a double.
template <typename T>
bool parse_number(std::string_view text, T& out,
                  T lo = std::numeric_limits<T>::lowest(),
                  T hi = std::numeric_limits<T>::max()) {
  T value{};
  const char* const end = text.data() + text.size();
  const auto [ptr, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc{} || ptr != end || !(lo <= value && value <= hi)) {
    return false;
  }
  out = value;
  return true;
}

}  // namespace arbmis::util
