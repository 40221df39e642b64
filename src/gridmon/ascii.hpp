#pragma once

/// \file ascii.hpp
/// Locale-free ASCII character classes for the ClassAd, LDAP and SQL
/// lexers, parsers and matchers. The C library's character classes consult
/// the global locale on every call; names, keywords and the case-folded
/// directory strings are ASCII by definition, so these fold and classify
/// plain bytes and leave every other byte alone — bytes >= 0x80 fold and
/// classify exactly as in the "C" locale.

namespace gridmon::ascii {

constexpr bool is_digit(char c) { return c >= '0' && c <= '9'; }

constexpr bool is_upper(char c) { return c >= 'A' && c <= 'Z'; }

constexpr bool is_lower(char c) { return c >= 'a' && c <= 'z'; }

constexpr bool is_alpha(char c) { return is_upper(c) || is_lower(c); }

constexpr bool is_alnum(char c) { return is_alpha(c) || is_digit(c); }

constexpr bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

constexpr char to_lower(char c) {
  return is_upper(c) ? static_cast<char>(c - 'A' + 'a') : c;
}

constexpr char to_upper(char c) {
  return is_lower(c) ? static_cast<char>(c - 'a' + 'A') : c;
}

}  // namespace gridmon::ascii
