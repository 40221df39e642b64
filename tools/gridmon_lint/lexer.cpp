#include "lexer.hpp"

#include <cctype>

namespace gridmon::lint {
namespace {

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool ident_cont(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Multi-character punctuators, longest first within each leading char.
/// Only operators the checks care to keep atomic matter here ("::" above
/// all), but lexing the full set keeps token boundaries honest.
constexpr const char* kPuncts[] = {
    "<<=", ">>=", "<=>", "->*", "...", "::", "->", "++", "--", "<<", ">>",
    "<=", ">=", "==", "!=", "&&", "||", "+=", "-=", "*=", "/=", "%=",
    "&=", "|=", "^=", ".*",
};

std::string trim(std::string_view s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string(s.substr(b, e - b));
}

}  // namespace

LexResult lex(std::string_view src) {
  LexResult out;
  std::size_t i = 0;
  int line = 1, col = 1;
  bool code_on_line = false;  // has this line produced a code token yet?

  auto advance = [&](std::size_t n) {
    for (std::size_t k = 0; k < n && i < src.size(); ++k, ++i) {
      if (src[i] == '\n') {
        ++line;
        col = 1;
        code_on_line = false;
      } else {
        ++col;
      }
    }
  };
  auto push = [&](TokKind kind, std::size_t begin, std::size_t len, int l,
                  int c) {
    out.tokens.push_back({kind, std::string(src.substr(begin, len)), l, c});
    code_on_line = true;
  };

  while (i < src.size()) {
    char ch = src[i];
    if (ch == '\n' || std::isspace(static_cast<unsigned char>(ch))) {
      advance(1);
      continue;
    }
    // Comments.
    if (ch == '/' && i + 1 < src.size() &&
        (src[i + 1] == '/' || src[i + 1] == '*')) {
      int l = line;
      bool own = !code_on_line;
      std::size_t begin = i;
      if (src[i + 1] == '/') {
        while (i < src.size() && src[i] != '\n') advance(1);
        std::string_view body = src.substr(begin + 2, i - begin - 2);
        // Strip doc-comment slashes ("///").
        while (!body.empty() && body.front() == '/') body.remove_prefix(1);
        out.comments.push_back({trim(body), l, own});
      } else {
        advance(2);
        std::size_t body_begin = i;
        while (i + 1 < src.size() && !(src[i] == '*' && src[i + 1] == '/')) {
          advance(1);
        }
        std::size_t body_end = i < src.size() ? i : src.size();
        advance(2);  // closing */
        out.comments.push_back(
            {trim(src.substr(body_begin, body_end - body_begin)), l, own});
      }
      continue;
    }
    // Preprocessor directive: swallow the logical line (with continuations).
    if (ch == '#' && !code_on_line) {
      out.pp_lines.push_back(line);
      while (i < src.size()) {
        if (src[i] == '\\' && i + 1 < src.size() && src[i + 1] == '\n') {
          advance(2);
          continue;
        }
        if (src[i] == '\n') break;
        advance(1);
      }
      continue;
    }
    // Raw string literal.
    if (ch == 'R' && i + 1 < src.size() && src[i + 1] == '"') {
      int l = line, c = col;
      std::size_t begin = i;
      advance(2);
      std::string delim;
      while (i < src.size() && src[i] != '(') {
        delim += src[i];
        advance(1);
      }
      advance(1);  // (
      std::string closer = ")" + delim + "\"";
      std::size_t end = src.find(closer, i);
      if (end == std::string_view::npos) end = src.size();
      while (i < end + closer.size() && i < src.size()) advance(1);
      push(TokKind::String, begin, i - begin, l, c);
      continue;
    }
    // String / char literal.
    if (ch == '"' || ch == '\'') {
      int l = line, c = col;
      std::size_t begin = i;
      char quote = ch;
      advance(1);
      while (i < src.size() && src[i] != quote && src[i] != '\n') {
        if (src[i] == '\\' && i + 1 < src.size()) advance(1);
        advance(1);
      }
      advance(1);  // closing quote (or newline/EOF for malformed input)
      push(quote == '"' ? TokKind::String : TokKind::Char, begin, i - begin,
           l, c);
      continue;
    }
    // Identifier / keyword.
    if (ident_start(ch)) {
      int l = line, c = col;
      std::size_t begin = i;
      while (i < src.size() && ident_cont(src[i])) advance(1);
      push(TokKind::Ident, begin, i - begin, l, c);
      continue;
    }
    // Number (good enough: digits, dots, exponents, hex, separators).
    if (std::isdigit(static_cast<unsigned char>(ch)) ||
        (ch == '.' && i + 1 < src.size() &&
         std::isdigit(static_cast<unsigned char>(src[i + 1])))) {
      int l = line, c = col;
      std::size_t begin = i;
      while (i < src.size() &&
             (ident_cont(src[i]) || src[i] == '.' || src[i] == '\'' ||
              ((src[i] == '+' || src[i] == '-') && i > begin &&
               (src[i - 1] == 'e' || src[i - 1] == 'E' || src[i - 1] == 'p' ||
                src[i - 1] == 'P')))) {
        advance(1);
      }
      push(TokKind::Number, begin, i - begin, l, c);
      continue;
    }
    // Punctuation, maximal munch.
    {
      int l = line, c = col;
      std::size_t begin = i;
      std::size_t len = 1;
      for (const char* p : kPuncts) {
        std::string_view pv(p);
        if (src.substr(i, pv.size()) == pv) {
          len = pv.size();
          break;
        }
      }
      advance(len);
      push(TokKind::Punct, begin, len, l, c);
    }
  }
  out.tokens.push_back({TokKind::End, "", line, col});
  return out;
}

bool never_a_call(const std::string& word) {
  static const char* const kw[] = {
      "if",     "for",       "while",     "switch",  "catch",     "sizeof",
      "alignof", "alignas",  "decltype",  "return",  "co_return", "co_await",
      "co_yield", "new",     "delete",    "throw",   "static_assert",
      "noexcept", "assert",  "defined",   "case",    "else",      "do"};
  for (const char* k : kw) {
    if (word == k) return true;
  }
  return false;
}

bool call_context_keyword(const std::string& word) {
  static const char* const kw[] = {"return", "co_return", "co_await",
                                   "co_yield", "case",    "else",
                                   "do",       "throw"};
  for (const char* k : kw) {
    if (word == k) return true;
  }
  return false;
}

}  // namespace gridmon::lint
