// Small string helpers used by the parsers and report renderers.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace aadlsched::util {

/// ASCII lowercase copy. AADL identifiers are case-insensitive, so the front
/// end folds everything through this before interning.
std::string to_lower(std::string_view s);

/// Case-insensitive ASCII comparison.
bool iequals(std::string_view a, std::string_view b);

/// Split on a delimiter; empty fields preserved.
std::vector<std::string_view> split(std::string_view s, char delim);

/// Join with a separator.
std::string join(const std::vector<std::string>& parts,
                 std::string_view sep);

/// True if `s` starts with `prefix`.
bool starts_with(std::string_view s, std::string_view prefix);

/// Pads/truncates to a fixed width (for ASCII timeline rendering).
std::string pad_right(std::string_view s, std::size_t width);

/// Strict base-10 integer parse: optional sign, digits only, no leading or
/// trailing junk, range-checked. Returns nullopt on any violation (unlike
/// std::atoll, which silently accepts garbage). Used by CLI option parsing.
std::optional<std::int64_t> parse_int64(std::string_view s);

/// The integer value of a command-line flag: parse_int64 inside [min, max].
/// Otherwise nullopt, and "invalid value '<value>' for <flag> (expected an
/// integer in [min, max])" goes to stderr.
std::optional<std::int64_t> parse_option(std::string_view flag,
                                         std::string_view value,
                                         std::int64_t min, std::int64_t max);

/// Escape a string for embedding in a JSON string literal (quotes,
/// backslash, control characters).
std::string json_escape(std::string_view s);

}  // namespace aadlsched::util
