// The one strict parser for numeric tokens: counts and indices in the
// .prof, .layers and .sprof formats, and numeric command-line flags.  The
// whole token must be a decimal number that fits T, so "2x", "", "+2",
// " 2" and, for an unsigned T, "-1" are rejected (`istream >> uint64_t`
// and `std::stoull` read "-1" as 2^64-1).

#ifndef OSPROF_SRC_CORE_PARSE_NUMBER_H_
#define OSPROF_SRC_CORE_PARSE_NUMBER_H_

#include <charconv>
#include <istream>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>

namespace osprof {

template <typename T>
std::optional<T> ParseNumber(std::string_view token) {
  T value{};
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (token.empty() || ec != std::errc() || ptr != end) {
    return std::nullopt;
  }
  return value;
}

// Reads the next whitespace-delimited token of `is` into `value`; false
// when there is none or ParseNumber rejects it.
template <typename T>
bool ReadNumber(std::istream& is, T& value) {
  std::string token;
  const std::optional<T> parsed =
      is >> token ? ParseNumber<T>(token) : std::nullopt;
  value = parsed.value_or(value);
  return parsed.has_value();
}

}  // namespace osprof

#endif  // OSPROF_SRC_CORE_PARSE_NUMBER_H_
