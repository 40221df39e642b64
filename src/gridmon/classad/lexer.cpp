#include "gridmon/classad/lexer.hpp"

#include <cstdlib>

#include "gridmon/ascii.hpp"

namespace gridmon::classad {
namespace {

bool is_ident_start(char c) { return ascii::is_alpha(c) || c == '_'; }
bool is_ident_char(char c) { return ascii::is_alnum(c) || c == '_'; }

}  // namespace

std::vector<Token> lex(std::string_view in) {
  std::vector<Token> out;
  std::size_t i = 0;
  const std::size_t n = in.size();

  auto push = [&](TokenKind k, std::size_t at, std::string text = {}) {
    Token t;
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
    if (is_ident_start(c)) {
      std::size_t j = i + 1;
      while (j < n && is_ident_char(in[j])) ++j;
      push(TokenKind::Identifier, start,
           std::string(in.substr(i, j - i)));
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
      Token t;
      t.offset = start;
      if (is_real) {
        t.kind = TokenKind::RealLiteral;
        t.real_value = std::strtod(text.c_str(), nullptr);
      } else {
        t.kind = TokenKind::IntegerLiteral;
        t.int_value = std::strtoll(text.c_str(), nullptr, 10);
      }
      out.push_back(std::move(t));
      i = j;
      continue;
    }
    if (c == '"') {
      std::string text;
      std::size_t j = i + 1;
      while (j < n && in[j] != '"') {
        if (in[j] == '\\' && j + 1 < n) {
          char esc = in[j + 1];
          switch (esc) {
            case 'n':
              text.push_back('\n');
              break;
            case 't':
              text.push_back('\t');
              break;
            default:
              text.push_back(esc);
          }
          j += 2;
        } else {
          text.push_back(in[j]);
          ++j;
        }
      }
      if (j >= n) throw LexError("unterminated string literal", start);
      push(TokenKind::StringLiteral, start, std::move(text));
      i = j + 1;
      continue;
    }
    auto two = [&](char a, char b) {
      return c == a && i + 1 < n && in[i + 1] == b;
    };
    if (c == '=' && i + 2 < n && in[i + 1] == '?' && in[i + 2] == '=') {
      push(TokenKind::MetaEqual, start);
      i += 3;
      continue;
    }
    if (c == '=' && i + 2 < n && in[i + 1] == '!' && in[i + 2] == '=') {
      push(TokenKind::MetaNotEqual, start);
      i += 3;
      continue;
    }
    if (two('=', '=')) {
      push(TokenKind::Equal, start);
      i += 2;
      continue;
    }
    if (two('!', '=')) {
      push(TokenKind::NotEqual, start);
      i += 2;
      continue;
    }
    if (two('<', '=')) {
      push(TokenKind::LessEq, start);
      i += 2;
      continue;
    }
    if (two('>', '=')) {
      push(TokenKind::GreaterEq, start);
      i += 2;
      continue;
    }
    if (two('&', '&')) {
      push(TokenKind::And, start);
      i += 2;
      continue;
    }
    if (two('|', '|')) {
      push(TokenKind::Or, start);
      i += 2;
      continue;
    }
    switch (c) {
      case '(':
        push(TokenKind::LParen, start);
        break;
      case ')':
        push(TokenKind::RParen, start);
        break;
      case '[':
        push(TokenKind::LBracket, start);
        break;
      case ']':
        push(TokenKind::RBracket, start);
        break;
      case ',':
        push(TokenKind::Comma, start);
        break;
      case ';':
        push(TokenKind::Semicolon, start);
        break;
      case '.':
        push(TokenKind::Dot, start);
        break;
      case '=':
        push(TokenKind::Assign, start);
        break;
      case '+':
        push(TokenKind::Plus, start);
        break;
      case '-':
        push(TokenKind::Minus, start);
        break;
      case '*':
        push(TokenKind::Star, start);
        break;
      case '/':
        push(TokenKind::Slash, start);
        break;
      case '%':
        push(TokenKind::Percent, start);
        break;
      case '<':
        push(TokenKind::Less, start);
        break;
      case '>':
        push(TokenKind::Greater, start);
        break;
      case '!':
        push(TokenKind::Not, start);
        break;
      case '?':
        push(TokenKind::Question, start);
        break;
      case ':':
        push(TokenKind::Colon, start);
        break;
      default:
        throw LexError(std::string("unexpected character '") + c + "'",
                       start);
    }
    ++i;
  }
  push(TokenKind::End, n);
  return out;
}

}  // namespace gridmon::classad
