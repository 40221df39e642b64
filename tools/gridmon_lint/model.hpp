#pragma once

/// \file model.hpp
/// Lightweight structural model built over the token stream: matched
/// brackets, container-variable types, lambda and function extents, local
/// variable scopes. Checks consume this instead of re-walking raw tokens.
///
/// The model is deliberately approximate — it resolves only what the
/// checks need (is this name an unordered container? is this lambda a
/// coroutine? is this identifier a local of the enclosing function?) and
/// errs toward *not* flagging when it cannot resolve, so the zero-finding
/// gate stays meaningful rather than noisy.

#include <map>
#include <set>
#include <string>
#include <vector>

#include "lexer.hpp"

namespace gridmon::lint {

/// A lambda expression: token-index extents of its three parts.
/// One declared parameter of a function or lambda.
struct Param {
  std::string type_text;  // space-joined type tokens, e.g. "const ldap :: Entry &"
  std::string name;       // may be empty for unnamed params
  bool is_reference = false;
  int line = 0;
  int col = 0;
};

struct Lambda {
  int intro_begin = 0;   // index of '['
  int intro_end = 0;     // index of matching ']'
  int params_begin = -1; // index of '(' or -1 when no parameter list
  int params_end = -1;
  int body_begin = 0;    // index of '{'
  int body_end = 0;      // index of matching '}'
  bool is_coroutine = false;  // body contains co_await/co_return/co_yield
  std::vector<Param> params;
};

/// A function (or method) definition with a body.
struct Func {
  std::string name;
  std::string return_text;   // space-joined return-type tokens
  bool returns_task = false; // return type mentions sim::Task / Task<
  std::vector<Param> params;
  int body_begin = 0;  // index of '{'
  int body_end = 0;    // index of matching '}'
};

/// A local variable declaration inside some function body.
struct Local {
  std::string name;
  int decl_index = 0;    // token index of the name
  int scope_begin = 0;   // innermost enclosing '{' token index
  int scope_end = 0;     // its matching '}'
};

/// An inline suppression comment. The marker is the literal tool name, a
/// colon, then either "suppress(<check-prefix>)" or the alias
/// "iteration-order-independent", then " -- <justification>". (The syntax
/// is spelled out obliquely here because the linter lints its own sources:
/// writing the exact marker in this comment would register a suppression.)
struct Suppression {
  std::string check_prefix;  // "" means the iteration alias (iteration.*)
  std::string justification;
  int comment_line = 0;
  int applies_line = 0;  // code line it governs
  mutable bool used = false;
};

struct Model {
  std::vector<Token> toks;
  std::vector<int> match;  // per-token matching bracket index, or -1

  std::set<std::string> unordered_vars;   // names declared as unordered containers
  std::set<std::string> unordered_types;  // using-aliases of unordered containers
  std::map<std::string, std::string> container_elem;  // var -> element type text

  std::set<std::string> runner_classes;  // classes derived from sim::ShardRunner
  std::set<std::string> runner_vars;     // vars whose type mentions a runner class

  std::vector<Lambda> lambdas;
  std::vector<Func> funcs;
  std::vector<Local> locals;

  std::vector<Suppression> suppressions;

  /// Innermost function whose body contains token index i, or nullptr.
  const Func* enclosing_func(int i) const;
  /// True if `name` is a live local of the enclosing scope at token i.
  bool is_local_at(const std::string& name, int i) const;
};

/// Build the model for a lexed file. `extra_decls` (the sibling header's
/// tokens, possibly empty) contributes container/type declarations only —
/// its lambdas and functions are analyzed when that file is linted itself.
Model build_model(const LexResult& lexed, const LexResult* extra_decls);

/// Join token texts with single spaces (for type/return-type rendering).
std::string join_tokens(const std::vector<Token>& toks, int begin, int end);

}  // namespace gridmon::lint
