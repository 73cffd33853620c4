#include "util/string_utils.hpp"

#include <cctype>
#include <iostream>
#include <limits>

namespace aadlsched::util {

std::string to_lower(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s)
    out.push_back(static_cast<char>(
        std::tolower(static_cast<unsigned char>(c))));
  return out;
}

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i])))
      return false;
  }
  return true;
}

std::vector<std::string_view> split(std::string_view s, char delim) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  while (true) {
    std::size_t pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      out.push_back(s.substr(start));
      return out;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string join(const std::vector<std::string>& parts,
                 std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += sep;
    out += parts[i];
  }
  return out;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string pad_right(std::string_view s, std::size_t width) {
  std::string out(s);
  if (out.size() < width) out.append(width - out.size(), ' ');
  return out;
}

std::optional<std::int64_t> parse_int64(std::string_view s) {
  std::size_t i = 0;
  bool negative = false;
  if (i < s.size() && (s[i] == '+' || s[i] == '-')) {
    negative = s[i] == '-';
    ++i;
  }
  if (i >= s.size()) return std::nullopt;
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  std::int64_t value = 0;
  for (; i < s.size(); ++i) {
    const char c = s[i];
    if (c < '0' || c > '9') return std::nullopt;
    const int digit = c - '0';
    // value * 10 + digit must not exceed kMax (negation of kMax + 1 is
    // representable, but rejecting INT64_MIN keeps the logic simple and no
    // CLI option needs it).
    if (value > (kMax - digit) / 10) return std::nullopt;
    value = value * 10 + digit;
  }
  return negative ? -value : value;
}

std::optional<std::int64_t> parse_option(std::string_view flag,
                                         std::string_view value,
                                         std::int64_t min, std::int64_t max) {
  const auto n = parse_int64(value);
  if (!n || *n < min || *n > max) {
    std::cerr << "invalid value '" << value << "' for " << flag
              << " (expected an integer in [" << min << ", " << max
              << "])\n";
    return std::nullopt;
  }
  return n;
}

std::string json_escape(std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default: {
        const auto u = static_cast<unsigned char>(c);
        if (u < 0x20) {
          out += "\\u00";
          out += kHex[u >> 4];
          out += kHex[u & 0xf];
        } else {
          out += c;
        }
      }
    }
  }
  return out;
}

}  // namespace aadlsched::util
