#pragma once

/// \file lexer.hpp
/// A small C++ tokenizer for gridmon_lint. Produces a code-token stream
/// (identifiers, numbers, literals, punctuation with maximal munch) plus a
/// side table of comments and preprocessor lines. Comments never appear in
/// the code stream, so checks cannot be fooled by banned names inside
/// comments or string literals; the comment table is what suppression
/// handling reads.

#include <string>
#include <string_view>
#include <vector>

namespace gridmon::lint {

enum class TokKind {
  Ident,
  Number,
  String,   // includes raw strings; text is the full literal
  Char,
  Punct,
  End,
};

struct Token {
  TokKind kind = TokKind::End;
  std::string text;
  int line = 1;
  int col = 1;
};

struct Comment {
  std::string text;  // without the // or /* */ markers, trimmed
  int line = 1;      // line the comment starts on
  bool own_line = false;  // no code token precedes it on its line
};

struct LexResult {
  std::vector<Token> tokens;    // terminated by a TokKind::End token
  std::vector<Comment> comments;
  std::vector<int> pp_lines;    // first line of each preprocessor directive
};

/// Tokenize `source`. Never throws: unterminated literals are closed at
/// end of file (a linter must degrade gracefully on code it half
/// understands; the compiler is the authority on well-formedness).
LexResult lex(std::string_view source);

}  // namespace gridmon::lint
