// `--flag value` command-line arguments shared by the forumcast and
// forumcast-netctl executables.
//
// Numeric values are parsed in full with std::from_chars and range-checked
// for the type they land in: "12x", "-1" for a size, "70000" for a port or
// "4294967297" for a 32-bit id are rejected with a util::CheckError naming
// the flag, never truncated, wrapped or cast.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <system_error>

#include "util/check.hpp"

namespace forumcast::cli {

/// Parses all of `text` as a T in [min, max]; `flag` names the value in the
/// error message.
template <typename T>
T parse_int(std::string_view flag, std::string_view text,
            T min = std::numeric_limits<T>::min(),
            T max = std::numeric_limits<T>::max()) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  FORUMCAST_CHECK_MSG(ec == std::errc() && ptr == end && value >= min &&
                          value <= max,
                      "--" << flag << " expects an integer in [" << min << ", "
                           << max << "], got '" << text << "'");
  return value;
}

class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      FORUMCAST_CHECK_MSG(key.rfind("--", 0) == 0, "expected --flag, got " << key);
      FORUMCAST_CHECK_MSG(i + 1 < argc, key << " requires a value");
      values_[key.substr(2)] = argv[++i];
    }
  }

  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  std::string require(const std::string& key) const {
    const auto it = values_.find(key);
    FORUMCAST_CHECK_MSG(it != values_.end(), "missing required --" << key);
    return it->second;
  }

  /// Integer flag of type T in [min, max]; `fallback` when absent.
  template <typename T>
  T get_int(const std::string& key, T fallback,
            T min = std::numeric_limits<T>::min(),
            T max = std::numeric_limits<T>::max()) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback
                               : parse_int<T>(key, it->second, min, max);
  }
  /// Finite floating-point flag; `fallback` when absent.
  double get_double(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    const std::string& text = it->second;
    double value = 0.0;
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    FORUMCAST_CHECK_MSG(ec == std::errc() && ptr == end && std::isfinite(value),
                        "--" << key << " expects a finite number, got '"
                             << text << "'");
    return value;
  }

  /// Port to listen on: 0 (ephemeral) .. 65535; 0 when absent.
  std::uint16_t get_listen_port(const std::string& key) const {
    return get_int<std::uint16_t>(key, 0);
  }
  /// Port to connect to: required, 1..65535.
  std::uint16_t require_dial_port(const std::string& key) const {
    return parse_int<std::uint16_t>(key, require(key), 1);
  }

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace forumcast::cli
