#include "dataflow.hpp"

#include <algorithm>
#include <array>
#include <set>

namespace gridmon::lint {
namespace {

bool is_keyword(const std::string& s) {
  static const std::set<std::string> kw = {
      "alignas",   "alignof",  "auto",      "bool",      "break",
      "case",      "catch",    "char",      "class",     "co_await",
      "co_return", "co_yield", "const",     "consteval", "constexpr",
      "constinit", "continue", "decltype",  "default",   "delete",
      "do",        "double",   "else",      "enum",      "explicit",
      "extern",    "false",    "final",     "float",     "for",
      "friend",    "goto",     "if",        "inline",    "int",
      "long",      "mutable",  "namespace", "new",       "noexcept",
      "nullptr",   "operator", "override",  "private",   "protected",
      "public",    "requires", "return",    "short",     "signed",
      "sizeof",    "static",   "struct",    "switch",    "template",
      "this",      "throw",    "true",      "try",       "typedef",
      "typename",  "union",    "unsigned",  "using",     "virtual",
      "void",      "volatile", "while",
  };
  return kw.count(s) != 0;
}

bool is_compound_assign(const std::string& s) {
  static constexpr std::array<const char*, 10> ops = {
      "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=",
  };
  return std::find(ops.begin(), ops.end(), s) != ops.end();
}

}  // namespace

std::vector<VarEvent> var_events(const Model& m, int begin, int end) {
  std::vector<VarEvent> out;
  const auto& t = m.toks;
  std::vector<std::pair<int, int>> lambda_bodies;
  for (const Lambda& l : m.lambdas) {
    if (l.intro_begin >= begin && l.body_end < end) {
      lambda_bodies.emplace_back(l.body_begin, l.body_end);
    }
  }
  auto in_lambda = [&](int j) {
    for (auto [b, e] : lambda_bodies) {
      if (b < j && j < e) return true;
    }
    return false;
  };
  std::set<int> decl_sites;
  for (const Local& l : m.locals) {
    if (begin <= l.decl_index && l.decl_index < end) {
      decl_sites.insert(l.decl_index);
    }
  }
  for (int j = begin; j < end && j < static_cast<int>(t.size()); ++j) {
    if (t[j].kind != TokKind::Ident || is_keyword(t[j].text)) continue;
    const std::string prev = j > 0 ? t[j - 1].text : std::string();
    const std::string next =
        j + 1 < static_cast<int>(t.size()) ? t[j + 1].text : std::string();
    if (prev == "." || prev == "->" || prev == "::" || next == "::") continue;
    bool is_decl = decl_sites.count(j) != 0;
    if (next == "(" && !is_decl) continue;  // call name (or functional cast)
    VarEventKind kind = VarEventKind::Use;
    if (!in_lambda(j)) {
      if (is_decl || next == "=") {
        // A declaration is a fresh binding even without an initializer
        // (`SqlToken t;` in a loop body re-creates t every iteration).
        kind = VarEventKind::Def;
      } else if (is_compound_assign(next) || next == "++" || next == "--" ||
                 prev == "++" || prev == "--") {
        kind = VarEventKind::DefUse;
      }
    }
    out.push_back(VarEvent{j, t[j].text, kind});
  }
  return out;
}

bool join_bits(VarBits& dst, const VarBits& src) {
  bool changed = false;
  for (const auto& [name, bits] : src) {
    unsigned& d = dst[name];
    if ((d | bits) != d) {
      d |= bits;
      changed = true;
    }
  }
  return changed;
}

std::string taint_label(unsigned bits) {
  std::string out;
  auto add = [&](const char* name) {
    if (!out.empty()) out += "+";
    out += name;
  };
  if (bits & kTaintEnv) add("environment");
  if (bits & kTaintClock) add("wall-clock");
  if (bits & kTaintRng) add("ambient-rng");
  return out.empty() ? "untainted" : out;
}

}  // namespace gridmon::lint
