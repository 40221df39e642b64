#include "model.hpp"

#include <algorithm>

namespace gridmon::lint {
namespace {

bool is(const Token& t, const char* text) { return t.text == text; }
bool is_ident(const Token& t) { return t.kind == TokKind::Ident; }

const std::set<std::string> kUnorderedNames = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset"};

/// Keywords that look like a function name followed by '(' but are not.
const std::set<std::string> kControlKeywords = {
    "if", "for", "while", "switch", "catch", "return", "co_return",
    "co_await", "co_yield", "sizeof", "alignof", "decltype", "new",
    "delete", "throw", "static_assert", "assert", "case", "else", "do"};

/// Skip a balanced template-argument list starting at toks[i] == "<".
/// Returns the index one past the closing ">", or `i` if it cannot match
/// (comparison operator, unbalanced). ">>" closes two levels.
int skip_angles(const std::vector<Token>& toks, int i) {
  if (!is(toks[i], "<")) return i;
  int depth = 0;
  int n = static_cast<int>(toks.size());
  for (int j = i; j < n; ++j) {
    const std::string& t = toks[j].text;
    if (t == "<") {
      ++depth;
    } else if (t == ">") {
      if (--depth == 0) return j + 1;
    } else if (t == ">>") {
      depth -= 2;
      if (depth <= 0) return j + 1;
    } else if (t == ";" || t == "{" || t == "}") {
      return i;  // ran off the declaration: not a template list
    }
  }
  return i;
}

/// True when the '[' at index i begins a lambda introducer rather than a
/// subscript or attribute: a subscript follows a value (identifier, ')',
/// ']', literal, 'this'); '[[' is an attribute.
bool starts_lambda(const std::vector<Token>& toks, int i) {
  if (i + 1 < static_cast<int>(toks.size()) && is(toks[i + 1], "[")) {
    return false;  // [[attribute]]
  }
  if (i == 0) return true;
  const Token& p = toks[i - 1];
  if (p.kind == TokKind::Ident) {
    return p.text == "return" || p.text == "co_return" || p.text == "case";
  }
  if (p.kind == TokKind::Number || p.kind == TokKind::String) return false;
  return !(is(p, ")") || is(p, "]"));
}

}  // namespace

std::string join_tokens(const std::vector<Token>& toks, int begin, int end) {
  std::string out;
  for (int i = begin; i < end && i < static_cast<int>(toks.size()); ++i) {
    if (!out.empty()) out += ' ';
    out += toks[i].text;
  }
  return out;
}

const Func* Model::enclosing_func(int i) const {
  const Func* best = nullptr;
  for (const auto& f : funcs) {
    if (f.body_begin < i && i < f.body_end) {
      if (!best || f.body_begin > best->body_begin) best = &f;
    }
  }
  return best;
}

bool Model::is_local_at(const std::string& name, int i) const {
  return std::any_of(locals.begin(), locals.end(), [&](const Local& l) {
    return l.name == name && l.decl_index < i && l.scope_begin < i &&
           i < l.scope_end;
  });
}

Model build_model(const LexResult& lexed, const LexResult* extra_decls) {
  Model m;
  m.toks = lexed.tokens;
  int n = static_cast<int>(m.toks.size());

  // --- bracket matching ----------------------------------------------------
  m.match.assign(n, -1);
  {
    std::vector<int> stack;
    for (int i = 0; i < n; ++i) {
      const std::string& t = m.toks[i].text;
      if (t == "(" || t == "{" || t == "[") {
        stack.push_back(i);
      } else if (t == ")" || t == "}" || t == "]") {
        // Pop to the nearest opener of the matching shape; tolerate
        // imbalance from code the lexer half-understood.
        const char open = t == ")" ? '(' : t == "}" ? '{' : '[';
        while (!stack.empty() && m.toks[stack.back()].text[0] != open) {
          stack.pop_back();
        }
        if (!stack.empty()) {
          m.match[stack.back()] = i;
          m.match[i] = stack.back();
          stack.pop_back();
        }
      }
    }
  }

  // --- comments: suppressions ----------------------------------------------
  for (const Comment& c : lexed.comments) {
    const std::string marker = "gridmon-lint:";
    auto at = c.text.find(marker);
    if (at == std::string::npos) continue;
    std::string rest = c.text.substr(at + marker.size());
    // trim
    while (!rest.empty() && rest.front() == ' ') rest.erase(rest.begin());
    Suppression s;
    s.comment_line = c.line;
    if (c.own_line) {
      // Applies to the next line that holds code, so a justification may
      // span several comment lines between the marker and the statement.
      s.applies_line = c.line + 1;
      for (const Token& tok : m.toks) {
        if (tok.kind != TokKind::End && tok.line > c.line) {
          s.applies_line = tok.line;
          break;
        }
      }
    } else {
      s.applies_line = c.line;
    }
    auto dashdash = rest.find("--");
    std::string head =
        dashdash == std::string::npos ? rest : rest.substr(0, dashdash);
    if (dashdash != std::string::npos) {
      s.justification = rest.substr(dashdash + 2);
      while (!s.justification.empty() && s.justification.front() == ' ') {
        s.justification.erase(s.justification.begin());
      }
    }
    while (!head.empty() && (head.back() == ' ')) head.pop_back();
    if (head.rfind("iteration-order-independent", 0) == 0) {
      s.check_prefix = "iteration";
    } else if (head.rfind("suppress(", 0) == 0) {
      auto close = head.find(')');
      if (close != std::string::npos) {
        s.check_prefix = head.substr(9, close - 9);
      }
    } else {
      continue;  // unrelated gridmon-lint comment
    }
    m.suppressions.push_back(std::move(s));
  }

  // --- declaration scan: unordered containers & element types -------------
  auto scan_decls = [&](const std::vector<Token>& toks, Model& into) {
    int tn = static_cast<int>(toks.size());
    for (int i = 0; i < tn; ++i) {
      if (!is_ident(toks[i])) continue;
      bool unordered = kUnorderedNames.count(toks[i].text) > 0 ||
                       into.unordered_types.count(toks[i].text) > 0;
      bool container = unordered || toks[i].text == "vector" ||
                       toks[i].text == "map" || toks[i].text == "deque" ||
                       toks[i].text == "multimap" || toks[i].text == "list";
      if (!container) continue;
      // "using Alias = std::unordered_map<...>"
      if (unordered && i >= 4 && is(toks[i - 1], "::") &&
          is_ident(toks[i - 2]) && is(toks[i - 3], "=") &&
          is_ident(toks[i - 4]) && i >= 5 && toks[i - 5].text == "using") {
        into.unordered_types.insert(toks[i - 4].text);
        continue;
      }
      int j = i + 1;
      std::string elem;
      if (j < tn && is(toks[j], "<")) {
        int after = skip_angles(toks, j);
        if (after == j) continue;  // comparison, not a template list
        elem = join_tokens(toks, j + 1, after - 1);
        j = after;
      }
      // Skip ref/pointer declarators.
      while (j < tn && (is(toks[j], "&") || is(toks[j], "*") ||
                        is(toks[j], "&&") || toks[j].text == "const")) {
        ++j;
      }
      if (j < tn && is_ident(toks[j]) && j + 1 < tn &&
          (is(toks[j + 1], ";") || is(toks[j + 1], "=") ||
           is(toks[j + 1], "{") || is(toks[j + 1], ",") ||
           is(toks[j + 1], ")") || is(toks[j + 1], ":"))) {
        if (unordered) into.unordered_vars.insert(toks[j].text);
        if (!elem.empty()) into.container_elem[toks[j].text] = elem;
      }
    }
  };
  if (extra_decls) scan_decls(extra_decls->tokens, m);
  scan_decls(m.toks, m);

  // --- shard declaration scan ----------------------------------------------
  // ShardRunner-derived classes and the variables typed as them. Runs over
  // the sibling header too, so members declared in the .hpp participate
  // when the .cpp is analyzed.
  auto scan_runners = [&](const std::vector<Token>& toks, Model& into) {
    int tn = static_cast<int>(toks.size());
    // Classes deriving (directly or via a chain in the same stream) from
    // sim::ShardRunner. Two passes so `struct B : A` after `struct A :
    // ShardRunner` resolves regardless of textual order.
    for (int pass = 0; pass < 2; ++pass) {
      for (int i = 0; i + 2 < tn; ++i) {
        if (!(is(toks[i], "struct") || is(toks[i], "class"))) continue;
        // Name: last identifier before the base-list ':' (skipping 'final'
        // and qualified-name pieces); bail at '{'/';' (no base list).
        std::string name;
        int j = i + 1;
        for (; j < tn; ++j) {
          const std::string& t = toks[j].text;
          if (t == ":") break;
          if (t == "{" || t == ";" || t == "(") {
            j = tn;
            break;
          }
          if (toks[j].kind == TokKind::Ident && t != "final") name = t;
        }
        if (j >= tn || name.empty()) continue;
        for (int k = j + 1; k < tn && !is(toks[k], "{") && !is(toks[k], ";");
             ++k) {
          if (toks[k].kind == TokKind::Ident &&
              (toks[k].text == "ShardRunner" ||
               into.runner_classes.count(toks[k].text))) {
            into.runner_classes.insert(name);
            break;
          }
        }
      }
    }
    for (int i = 0; i < tn; ++i) {
      if (!is_ident(toks[i])) continue;
      bool is_runner = toks[i].text == "ShardRunner" ||
                       into.runner_classes.count(toks[i].text) > 0;
      bool is_smart =
          toks[i].text == "unique_ptr" || toks[i].text == "shared_ptr";
      if (!is_runner && !is_smart) continue;
      int j = i + 1;
      if (j < tn && is(toks[j], "<")) {
        int after = skip_angles(toks, j);
        if (after == j) continue;
        if (is_smart) {
          // unique_ptr<ClientShard> peer_: the pointee decides runner-ness.
          std::string pointee = join_tokens(toks, j + 1, after - 1);
          for (const std::string& rc : into.runner_classes) {
            if (pointee.find(rc) != std::string::npos) {
              is_runner = true;
              break;
            }
          }
          if (pointee.find("ShardRunner") != std::string::npos) {
            is_runner = true;
          }
        }
        j = after;
      } else if (is_smart) {
        continue;  // without template args these are not the std types
      }
      while (j < tn && (is(toks[j], "&") || is(toks[j], "*") ||
                        is(toks[j], "&&") || toks[j].text == "const")) {
        ++j;
      }
      if (j < tn && is_ident(toks[j]) && j + 1 < tn &&
          (is(toks[j + 1], ";") || is(toks[j + 1], "=") ||
           is(toks[j + 1], "{") || is(toks[j + 1], ",") ||
           is(toks[j + 1], ")") || is(toks[j + 1], ":"))) {
        if (is_runner) into.runner_vars.insert(toks[j].text);
      }
    }
    // Vars whose *template* type mentions a runner class
    // (unique_ptr<ClientShard> peer_;) — reuse the container element map.
    for (const auto& [var, elem] : into.container_elem) {
      for (const std::string& rc : into.runner_classes) {
        if (elem.find(rc) != std::string::npos) {
          into.runner_vars.insert(var);
          break;
        }
      }
    }
  };
  if (extra_decls) scan_runners(extra_decls->tokens, m);
  scan_runners(m.toks, m);

  // --- parameter-list parsing (shared by lambdas and functions) -----------
  auto parse_params = [&](int open, int close, std::vector<Param>& out) {
    int start = open + 1;
    for (int i = open + 1; i <= close; ++i) {
      if (i < close &&
          (is(m.toks[i], "(") || is(m.toks[i], "[") || is(m.toks[i], "{"))) {
        if (m.match[i] > 0) i = m.match[i];
        continue;
      }
      if (i < close && is(m.toks[i], "<")) {
        int after = skip_angles(m.toks, i);
        if (after != i) i = after - 1;
        continue;
      }
      bool end_of_param = i == close || is(m.toks[i], ",");
      if (!end_of_param) continue;
      if (i > start) {
        Param p;
        int eq = -1;
        for (int k = start; k < i; ++k) {
          if (is(m.toks[k], "=")) {
            eq = k;
            break;
          }
        }
        int type_end = eq < 0 ? i : eq;
        int name_idx = -1;
        for (int k = type_end - 1; k >= start; --k) {
          if (is_ident(m.toks[k])) {
            name_idx = k;
            break;
          }
        }
        p.type_text = join_tokens(m.toks, start, type_end);
        p.is_reference = p.type_text.find('&') != std::string::npos;
        if (name_idx > start) {
          p.name = m.toks[name_idx].text;
          p.line = m.toks[name_idx].line;
          p.col = m.toks[name_idx].col;
        } else {
          p.line = m.toks[start].line;
          p.col = m.toks[start].col;
        }
        out.push_back(std::move(p));
      }
      start = i + 1;
    }
  };

  // --- lambda extraction ---------------------------------------------------
  for (int i = 0; i < n; ++i) {
    if (!is(m.toks[i], "[") || m.match[i] < 0) continue;
    if (!starts_lambda(m.toks, i)) continue;
    Lambda lam;
    lam.intro_begin = i;
    lam.intro_end = m.match[i];
    int j = lam.intro_end + 1;
    if (j < n && is(m.toks[j], "(") && m.match[j] > 0) {
      lam.params_begin = j;
      lam.params_end = m.match[j];
      j = lam.params_end + 1;
    }
    // Skip specifiers / trailing return type up to the body brace.
    int guard = 0;
    while (j < n && !is(m.toks[j], "{") && !is(m.toks[j], ";") &&
           !is(m.toks[j], ")") && !is(m.toks[j], ",") && ++guard < 64) {
      if (is(m.toks[j], "<") ) {
        int after = skip_angles(m.toks, j);
        j = after == j ? j + 1 : after;
      } else {
        ++j;
      }
    }
    if (j >= n || !is(m.toks[j], "{") || m.match[j] < 0) continue;
    lam.body_begin = j;
    lam.body_end = m.match[j];
    if (lam.params_begin >= 0) {
      parse_params(lam.params_begin, lam.params_end, lam.params);
    }
    for (int k = lam.body_begin; k < lam.body_end; ++k) {
      const std::string& t = m.toks[k].text;
      if (t == "co_await" || t == "co_return" || t == "co_yield") {
        lam.is_coroutine = true;
        break;
      }
    }
    m.lambdas.push_back(lam);
  }

  // --- function definitions ------------------------------------------------
  for (int i = 0; i < n; ++i) {
    if (!is_ident(m.toks[i]) || kControlKeywords.count(m.toks[i].text)) {
      continue;
    }
    if (i + 1 >= n || !is(m.toks[i + 1], "(") || m.match[i + 1] < 0) continue;
    int close = m.match[i + 1];
    // After the parameter list: specifiers then '{' (definition) — or a
    // ctor-initializer ':'. Anything else (';', operator, '.') is a call
    // or a plain declaration.
    int j = close + 1;
    bool is_def = false;
    while (j < n) {
      const std::string& t = m.toks[j].text;
      if (t == "{") {
        is_def = true;
        break;
      }
      if (t == "const" || t == "noexcept" || t == "override" ||
          t == "final" || t == "mutable" || t == "&" || t == "&&") {
        ++j;
        continue;
      }
      if (t == "->") {  // trailing return type
        ++j;
        while (j < n && !is(m.toks[j], "{") && !is(m.toks[j], ";")) {
          if (is(m.toks[j], "<")) {
            int after = skip_angles(m.toks, j);
            j = after == j ? j + 1 : after;
          } else {
            ++j;
          }
        }
        continue;
      }
      if (t == ":") {  // ctor-initializer: skip to body brace
        while (j < n && !is(m.toks[j], "{") && !is(m.toks[j], ";")) {
          if (is(m.toks[j], "(") || is(m.toks[j], "{")) {
            if (is(m.toks[j], "{")) break;
            if (m.match[j] > 0) {
              j = m.match[j];
            }
          }
          ++j;
        }
        continue;
      }
      break;
    }
    if (!is_def || j >= n || m.match[j] < 0) continue;
    Func f;
    f.name = m.toks[i].text;
    f.body_begin = j;
    f.body_end = m.match[j];
    // Return type: walk back to the previous statement boundary. Commas
    // and colons inside template arguments ("unordered_map<int, int>")
    // are part of the type, not boundaries — track angle depth (we walk
    // right-to-left, so '>' opens and '<' closes).
    int rb = i - 1;
    int angles = 0;
    while (rb >= 0) {
      const std::string& t = m.toks[rb].text;
      if (t == ">") ++angles;
      if (t == ">>") angles += 2;
      if (angles == 0 &&
          (t == ";" || t == "{" || t == "}" || t == ":" || t == "(" ||
           t == "," || t == "#")) {
        break;
      }
      if (t == "<" && angles > 0) --angles;
      --rb;
    }
    f.return_text = join_tokens(m.toks, rb + 1, i);
    f.returns_task = f.return_text.find("Task") != std::string::npos;
    parse_params(i + 1, close, f.params);
    m.funcs.push_back(std::move(f));
  }

  // --- local variable declarations ----------------------------------------
  // Statement-leading "Type name =/{/;" patterns inside function bodies,
  // with the innermost enclosing brace recorded for scope checks. Also
  // captures range-for declarations ("for (auto& x : ...)").
  {
    // Only declarations inside a function or lambda body are locals; a
    // brace-nested "Type name;" at class scope is a member and carries the
    // owner's lifetime, not the enclosing statement's.
    auto in_function_body = [&](int idx) {
      for (const Func& f : m.funcs) {
        if (f.body_begin <= idx && idx < f.body_end) return true;
      }
      for (const Lambda& l : m.lambdas) {
        if (l.body_begin <= idx && idx < l.body_end) return true;
      }
      return false;
    };
    std::vector<int> brace_stack;
    for (int i = 0; i < n; ++i) {
      const std::string& t = m.toks[i].text;
      if (t == "{") {
        brace_stack.push_back(i);
        continue;
      }
      if (t == "}") {
        if (!brace_stack.empty()) brace_stack.pop_back();
        continue;
      }
      if (brace_stack.empty() || !in_function_body(i)) continue;
      bool stmt_start = i == 0 || is(m.toks[i - 1], ";") ||
                        is(m.toks[i - 1], "{") || is(m.toks[i - 1], "}") ||
                        is(m.toks[i - 1], "(");
      if (!stmt_start || !is_ident(m.toks[i])) continue;
      if (kControlKeywords.count(m.toks[i].text) &&
          m.toks[i].text != "for") {
        continue;
      }
      // Parse a type: [const] ident(::ident)*(<...>)?[&|*|&&]* name
      int j = i;
      if (m.toks[j].text == "const" || m.toks[j].text == "constexpr") ++j;
      if (m.toks[j].text == "for") continue;  // range-for handled by checks
      if (j >= n || !is_ident(m.toks[j])) continue;
      ++j;
      while (j + 1 < n && is(m.toks[j], "::") && is_ident(m.toks[j + 1])) {
        j += 2;
      }
      if (j < n && is(m.toks[j], "<")) {
        int after = skip_angles(m.toks, j);
        if (after == j) continue;
        j = after;
      }
      // Reference-typed locals alias an object declared elsewhere, so they
      // carry no lifetime information of their own — skip them (the spawn
      // check must not call `auto& p = servlet->add_producer(...)` a
      // dangling local when the servlet owns the referent).
      bool is_ref_decl = false;
      while (j < n && (is(m.toks[j], "&") || is(m.toks[j], "*") ||
                       is(m.toks[j], "&&"))) {
        if (!is(m.toks[j], "*")) is_ref_decl = true;
        ++j;
      }
      if (is_ref_decl) continue;
      if (j < n && is_ident(m.toks[j]) && j + 1 < n &&
          (is(m.toks[j + 1], "=") || is(m.toks[j + 1], ";") ||
           is(m.toks[j + 1], "{"))) {
        Local l;
        l.name = m.toks[j].text;
        l.decl_index = j;
        l.scope_begin = brace_stack.back();
        l.scope_end = m.match[brace_stack.back()] > 0
                          ? m.match[brace_stack.back()]
                          : n - 1;
        m.locals.push_back(std::move(l));
      }
    }
  }

  return m;
}

}  // namespace gridmon::lint
