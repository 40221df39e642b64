/// \file index.cpp
/// Pass 1: per-file fact extraction. See index.hpp for the resolution
/// policy; the fixpoint itself lives in callgraph.cpp.

#include "index.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "callgraph.hpp"
#include "checks.hpp"
#include "lexer.hpp"
#include "lint.hpp"

namespace gridmon::lint {
namespace {

namespace fs = std::filesystem;

/// True when a justified inline suppression silences `d` (the same rule
/// analyze_source applies; unjustified markers silence nothing).
bool suppressed(const Model& m, const Diagnostic& d) {
  for (const Suppression& s : m.suppressions) {
    if (s.applies_line != d.line) continue;
    if (s.check_prefix.empty()) continue;
    if (d.check.rfind(s.check_prefix, 0) != 0) continue;
    if (s.justification.empty()) continue;
    return true;
  }
  return false;
}

/// The sink token is the first word of every determinism.* message
/// ("std::chrono::steady_clock reads the machine clock; ...").
std::string sink_label(const Diagnostic& d) {
  auto sp = d.message.find(' ');
  return sp == std::string::npos ? d.message : d.message.substr(0, sp);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

const TransFact* ProjectIndex::fact(const std::string& name) const {
  auto it = facts.find(name);
  if (it == facts.end()) return nullptr;
  if (it->second.wall_depth < 0 && it->second.rng_depth < 0) return nullptr;
  return &it->second;
}

bool ProjectIndex::defined_in(const std::string& name,
                              const std::string& file) const {
  auto it = funcs.find(name);
  if (it == funcs.end()) return false;
  return std::any_of(it->second.begin(), it->second.end(),
                     [&](const IndexedFunc& f) { return f.file == file; });
}

bool ProjectIndex::known(const std::string& name) const {
  return funcs.count(name) != 0;
}

unsigned ProjectIndex::taint_of(const std::string& name) const {
  auto it = taint_returns.find(name);
  return it == taint_returns.end() ? 0u : it->second;
}

std::string ProjectIndex::taint_via(const std::string& name) const {
  auto it = taint_vias.find(name);
  return it == taint_vias.end() ? std::string() : it->second;
}

bool ProjectIndex::param_sinks(const std::string& name, int arg) const {
  auto it = sinking_params.find(name);
  return it != sinking_params.end() && it->second.count(arg) != 0;
}

std::vector<IndexedFunc> index_file(const std::string& path, const Model& m) {
  const auto& t = m.toks;
  int n = static_cast<int>(t.size());
  std::vector<IndexedFunc> out;
  out.reserve(m.funcs.size());

  for (const Func& f : m.funcs) {
    IndexedFunc idx;
    idx.name = f.name;
    idx.file = path;
    idx.line = t[f.body_begin].line;
    idx.returns_unordered =
        f.return_text.find("unordered_") != std::string::npos;
    if (!idx.returns_unordered) {
      for (const std::string& alias : m.unordered_types) {
        if (!alias.empty() &&
            f.return_text.find(alias) != std::string::npos) {
          idx.returns_unordered = true;
          break;
        }
      }
    }
    std::set<std::string> callees;
    for (int i = f.body_begin + 1; i < f.body_end && i + 1 < n; ++i) {
      if (t[i].kind != TokKind::Ident || t[i + 1].text != "(") continue;
      if (never_a_call(t[i].text)) continue;
      const Token& prev = t[i - 1];
      // Member dispatch (`obj.f()`) cannot be resolved by unqualified
      // name without type information; skip rather than guess.
      if (prev.text == "." || prev.text == "->") continue;
      if (prev.kind == TokKind::Ident && !call_context_keyword(prev.text)) {
        continue;  // declaration, e.g. "std::time_t time(...)"
      }
      callees.insert(t[i].text);
    }
    idx.callees.assign(callees.begin(), callees.end());
    extract_taint_facts(m, f, idx);
    out.push_back(std::move(idx));
  }

  // Attribute each unsuppressed direct sink to its innermost enclosing
  // function. A suppressed sink carries a reviewed justification; letting
  // it taint every transitive caller would make the escape hatch useless.
  std::vector<Diagnostic> diags;
  check_determinism(path, m, diags);
  for (const Diagnostic& d : diags) {
    if (suppressed(m, d)) continue;
    int best = -1;
    std::size_t best_k = 0;
    for (std::size_t k = 0; k < m.funcs.size(); ++k) {
      const Func& f = m.funcs[k];
      if (t[f.body_begin].line <= d.line && d.line <= t[f.body_end].line &&
          f.body_begin > best) {
        best = f.body_begin;
        best_k = k;
      }
    }
    if (best < 0) continue;  // file-scope sink; nothing to attribute
    IndexedFunc& fn = out[best_k];
    if (d.check == "determinism.ambient-rng") {
      fn.rng_sink = true;
      if (fn.rng_label.empty()) fn.rng_label = sink_label(d);
    } else {
      fn.wall_clock_sink = true;
      if (fn.wall_label.empty()) fn.wall_label = sink_label(d);
    }
  }
  return out;
}

ProjectIndex build_project_index(const std::vector<std::string>& files) {
  ProjectIndex pi;
  for (const std::string& f : files) {
    std::string src = read_file(f);
    if (src.empty()) continue;
    LexResult lexed = lex(src);
    LexResult sibling;
    bool have_sibling = false;
    fs::path p(f);
    if (p.extension() == ".cpp") {
      fs::path header = p;
      header.replace_extension(".hpp");
      std::error_code ec;
      if (fs::exists(header, ec)) {
        std::string sib = read_file(header.string());
        if (!sib.empty()) {
          sibling = lex(sib);
          have_sibling = true;
        }
      }
    }
    Model m = build_model(lexed, have_sibling ? &sibling : nullptr);
    for (IndexedFunc& fn : index_file(f, m)) {
      pi.funcs[fn.name].push_back(std::move(fn));
    }
  }
  resolve_index(pi);
  return pi;
}

}  // namespace gridmon::lint
