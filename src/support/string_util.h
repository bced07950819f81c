// Small string helpers shared by the XDL / UCF / options-file parsers.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace jpg {

/// Removes leading and trailing ASCII whitespace.
[[nodiscard]] std::string_view trim(std::string_view s);

/// Splits on a single character; empty fields are preserved.
[[nodiscard]] std::vector<std::string> split(std::string_view s, char sep);

/// Splits on runs of ASCII whitespace; empty fields are dropped.
[[nodiscard]] std::vector<std::string> split_ws(std::string_view s);

/// Case-insensitive ASCII equality.
[[nodiscard]] bool iequals(std::string_view a, std::string_view b);

[[nodiscard]] bool starts_with(std::string_view s, std::string_view prefix);

/// Parses a decimal or 0x-prefixed unsigned integer; nullopt on any junk.
[[nodiscard]] std::optional<std::uint64_t> parse_uint(std::string_view s);

/// True if `name` matches `pattern` where '*' matches any run of characters
/// (the UCF instance-wildcard rule).
[[nodiscard]] bool wildcard_match(std::string_view pattern, std::string_view name);

}  // namespace jpg
