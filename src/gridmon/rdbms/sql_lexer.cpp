#include "gridmon/rdbms/sql_lexer.hpp"

#include <cstdlib>

#include "gridmon/ascii.hpp"

namespace gridmon::rdbms {

bool SqlToken::is_keyword(const char* kw) const {
  if (kind != SqlTokenKind::Identifier) return false;
  std::size_t i = 0;
  for (; i < text.size() && kw[i] != '\0'; ++i) {
    if (ascii::to_upper(text[i]) != ascii::to_upper(kw[i])) {
      return false;
    }
  }
  return i == text.size() && kw[i] == '\0';
}

std::vector<SqlToken> sql_lex(std::string_view in) {
  std::vector<SqlToken> out;
  std::size_t i = 0;
  const std::size_t n = in.size();
  auto push = [&](SqlTokenKind k, std::size_t at, std::string text = {}) {
    SqlToken t;
    t.kind = k;
    t.text = std::move(text);
    t.offset = at;
    out.push_back(std::move(t));
  };

  while (i < n) {
    char c = in[i];
    if (ascii::is_space(c)) {
      ++i;
      continue;
    }
    std::size_t start = i;
    if (ascii::is_alpha(c) || c == '_') {
      std::size_t j = i + 1;
      while (j < n && (ascii::is_alnum(in[j]) || in[j] == '_')) ++j;
      push(SqlTokenKind::Identifier, start, std::string(in.substr(i, j - i)));
      i = j;
      continue;
    }
    if (ascii::is_digit(c) ||
        (c == '.' && i + 1 < n && ascii::is_digit(in[i + 1]))) {
      std::size_t j = i;
      bool is_real = false;
      while (j < n && ascii::is_digit(in[j])) ++j;
      if (j < n && in[j] == '.') {
        is_real = true;
        ++j;
        while (j < n && ascii::is_digit(in[j])) ++j;
      }
      if (j < n && (in[j] == 'e' || in[j] == 'E')) {
        std::size_t k = j + 1;
        if (k < n && (in[k] == '+' || in[k] == '-')) ++k;
        if (k < n && ascii::is_digit(in[k])) {
          is_real = true;
          j = k;
          while (j < n && ascii::is_digit(in[j])) ++j;
        }
      }
      std::string text(in.substr(i, j - i));
      SqlToken t;
      t.offset = start;
      if (is_real) {
        t.kind = SqlTokenKind::Real;
        t.real_value = std::strtod(text.c_str(), nullptr);
      } else {
        t.kind = SqlTokenKind::Integer;
        t.int_value = std::strtoll(text.c_str(), nullptr, 10);
      }
      out.push_back(std::move(t));
      i = j;
      continue;
    }
    if (c == '\'') {
      std::string text;
      std::size_t j = i + 1;
      for (;;) {
        if (j >= n) throw SqlError("unterminated string literal");
        if (in[j] == '\'') {
          if (j + 1 < n && in[j + 1] == '\'') {
            text.push_back('\'');
            j += 2;
            continue;
          }
          break;
        }
        text.push_back(in[j]);
        ++j;
      }
      push(SqlTokenKind::String, start, std::move(text));
      i = j + 1;
      continue;
    }
    auto two = [&](char a, char b) {
      return c == a && i + 1 < n && in[i + 1] == b;
    };
    if (two('!', '=') || two('<', '>')) {
      push(SqlTokenKind::NotEq, start);
      i += 2;
      continue;
    }
    if (two('<', '=')) {
      push(SqlTokenKind::LessEq, start);
      i += 2;
      continue;
    }
    if (two('>', '=')) {
      push(SqlTokenKind::GreaterEq, start);
      i += 2;
      continue;
    }
    switch (c) {
      case '(':
        push(SqlTokenKind::LParen, start);
        break;
      case ')':
        push(SqlTokenKind::RParen, start);
        break;
      case ',':
        push(SqlTokenKind::Comma, start);
        break;
      case '*':
        push(SqlTokenKind::Star, start);
        break;
      case ';':
        push(SqlTokenKind::Semicolon, start);
        break;
      case '=':
        push(SqlTokenKind::Eq, start);
        break;
      case '<':
        push(SqlTokenKind::Less, start);
        break;
      case '>':
        push(SqlTokenKind::Greater, start);
        break;
      case '+':
        push(SqlTokenKind::Plus, start);
        break;
      case '-':
        push(SqlTokenKind::Minus, start);
        break;
      case '/':
        push(SqlTokenKind::Slash, start);
        break;
      case '%':
        push(SqlTokenKind::Percent, start);
        break;
      case '.':
        push(SqlTokenKind::Dot, start);
        break;
      default:
        throw SqlError(std::string("unexpected character '") + c +
                       "' at offset " + std::to_string(start));
    }
    ++i;
  }
  push(SqlTokenKind::End, n);
  return out;
}

}  // namespace gridmon::rdbms
