#include "support/string_util.h"

#include <cctype>

namespace jpg {

namespace {
bool is_space(char c) {
  return std::isspace(static_cast<unsigned char>(c)) != 0;
}
}  // namespace

std::string_view trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && is_space(s[b])) ++b;
  while (e > b && is_space(s[e - 1])) --e;
  return s.substr(b, e - b);
}

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string> split_ws(std::string_view s) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && is_space(s[i])) ++i;
    const std::size_t start = i;
    while (i < s.size() && !is_space(s[i])) ++i;
    if (i > start) {
      out.emplace_back(s.substr(start, i - start));
    }
  }
  return out;
}

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::toupper(static_cast<unsigned char>(a[i])) !=
        std::toupper(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::optional<std::uint64_t> parse_uint(std::string_view s) {
  s = trim(s);
  if (s.empty()) return std::nullopt;
  std::uint64_t base = 10;
  if (starts_with(s, "0x") || starts_with(s, "0X")) {
    base = 16;
    s.remove_prefix(2);
    if (s.empty()) return std::nullopt;
  }
  std::uint64_t v = 0;
  for (char c : s) {
    std::uint64_t digit;
    if (c >= '0' && c <= '9') {
      digit = static_cast<std::uint64_t>(c - '0');
    } else if (base == 16 && c >= 'a' && c <= 'f') {
      digit = static_cast<std::uint64_t>(c - 'a') + 10;
    } else if (base == 16 && c >= 'A' && c <= 'F') {
      digit = static_cast<std::uint64_t>(c - 'A') + 10;
    } else {
      return std::nullopt;
    }
    if (v > (UINT64_MAX - digit) / base) return std::nullopt;  // overflow
    v = v * base + digit;
  }
  return v;
}

bool wildcard_match(std::string_view pattern, std::string_view name) {
  // Iterative glob with '*' only; classic two-pointer backtracking.
  std::size_t p = 0, n = 0;
  std::size_t star = std::string_view::npos, match = 0;
  while (n < name.size()) {
    if (p < pattern.size() && (pattern[p] == name[n])) {
      ++p;
      ++n;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      match = n;
    } else if (star != std::string_view::npos) {
      p = star + 1;
      n = ++match;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

}  // namespace jpg
