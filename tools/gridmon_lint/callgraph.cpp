/// \file callgraph.cpp
/// Fixpoint fact propagation over the pass-1 index, plus the pass-2
/// interprocedural checks. The propagation is monotone (facts are only ever
/// added), so the loop terminates on cyclic call graphs: a cycle with no
/// sink anywhere in it simply never acquires the fact.

#include "callgraph.hpp"

#include <algorithm>

namespace gridmon::lint {
namespace {

/// One reachability problem (wall clock or ambient RNG), expressed as
/// member pointers so the fixpoint is written once.
struct Goal {
  bool IndexedFunc::*direct;
  std::string IndexedFunc::*label;
  int TransFact::*depth;
  std::string TransFact::*via;
  const char* fallback_label;
};

void solve(ProjectIndex& pi, const Goal& g) {
  bool changed = true;
  while (changed) {
    changed = false;
    for (auto& [name, defs] : pi.funcs) {
      TransFact& tf = pi.facts[name];
      if (tf.*(g.depth) >= 0) continue;
      int worst = -1;  // max over definitions of that def's best path
      std::string witness;
      bool all_reach = !defs.empty();
      for (const IndexedFunc& def : defs) {
        int best = -1;
        std::string via;
        if (def.*(g.direct)) {
          best = 0;
          const std::string& label = def.*(g.label);
          via = name + " -> " + (label.empty() ? g.fallback_label : label);
        } else {
          for (const std::string& callee : def.callees) {
            auto it = pi.facts.find(callee);
            if (it == pi.facts.end()) continue;
            int cd = it->second.*(g.depth);
            if (cd < 0) continue;
            if (best < 0 || cd + 1 < best) {
              best = cd + 1;
              via = name + " -> " + it->second.*(g.via);
            }
          }
        }
        if (best < 0) {
          all_reach = false;
          break;
        }
        if (best > worst) {
          worst = best;
          witness = via;
        }
      }
      if (all_reach && worst >= 0) {
        tf.*(g.depth) = worst;
        tf.*(g.via) = witness;
        changed = true;
      }
    }
  }
}

/// Is token i a call site we can resolve by name? Returns the callee name
/// or "" — mirrors the pass-1 callee scan so pass 2 flags exactly the
/// edges pass 1 recorded.
std::string call_site_name(const std::vector<Token>& t, int i) {
  int n = static_cast<int>(t.size());
  if (t[i].kind != TokKind::Ident || i + 1 >= n || t[i + 1].text != "(") {
    return {};
  }
  if (never_a_call(t[i].text)) return {};
  if (i == 0) return t[i].text;
  const Token& prev = t[i - 1];
  if (prev.text == "." || prev.text == "->") return {};
  if (prev.text == "::") {
    // Qualified call: `ns::helper(...)` still resolves to the unqualified
    // name, but std::-qualified calls name the standard library, not a
    // project symbol.
    if (i >= 2 && (t[i - 2].text == "std" || t[i - 2].text == "chrono")) {
      return {};
    }
    return t[i].text;
  }
  if (prev.kind == TokKind::Ident && !call_context_keyword(prev.text)) {
    return {};  // declaration
  }
  return t[i].text;
}

}  // namespace

void resolve_index(ProjectIndex& pi) {
  for (const auto& [name, defs] : pi.funcs) {
    bool all = !defs.empty();
    for (const IndexedFunc& d : defs) all = all && d.returns_unordered;
    if (all) pi.unordered_returning.insert(name);
  }
  solve(pi, Goal{&IndexedFunc::wall_clock_sink, &IndexedFunc::wall_label,
                 &TransFact::wall_depth, &TransFact::wall_via,
                 "a machine clock"});
  solve(pi, Goal{&IndexedFunc::rng_sink, &IndexedFunc::rng_label,
                 &TransFact::rng_depth, &TransFact::rng_via,
                 "an ambient PRNG"});

  // Taint-return fixpoint: a name's return value carries a bit only when
  // EVERY definition's does (directly, or via a callee whose return feeds
  // its return) — the same errs-toward-silence policy as the sink facts.
  // Monotone: each definition's bits only grow, and the intersection of
  // growing sets grows.
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& [name, defs] : pi.funcs) {
      unsigned meet = ~0u;
      std::string via;
      for (const IndexedFunc& def : defs) {
        unsigned bits = def.taint_return;
        std::string def_via =
            bits ? name + " -> " + (def.taint_label.empty()
                                        ? "a nondeterministic source"
                                        : def.taint_label)
                 : std::string();
        for (const std::string& callee : def.return_calls) {
          auto it = pi.taint_returns.find(callee);
          if (it == pi.taint_returns.end() || !it->second) continue;
          bits |= it->second;
          if (def_via.empty()) {
            auto v = pi.taint_vias.find(callee);
            def_via = name + " -> " +
                      (v == pi.taint_vias.end() ? callee : v->second);
          }
        }
        meet &= bits;
        if (via.empty()) via = def_via;
      }
      if (defs.empty()) meet = 0;
      unsigned& cur = pi.taint_returns[name];
      if (meet != 0 && (cur | meet) != cur) {
        cur |= meet;
        pi.taint_vias[name] = via;
        changed = true;
      }
    }
  }

  // Sinking-params fixpoint: parameter p of `name` feeds sim state when
  // every definition either sinks it directly or forwards it into a
  // sinking position of a callee.
  changed = true;
  while (changed) {
    changed = false;
    for (const auto& [name, defs] : pi.funcs) {
      std::set<int> meet;
      bool first = true;
      for (const IndexedFunc& def : defs) {
        std::set<int> mine(def.sink_params.begin(), def.sink_params.end());
        for (const ParamCall& pc : def.param_calls) {
          auto it = pi.sinking_params.find(pc.callee);
          if (it != pi.sinking_params.end() && it->second.count(pc.arg)) {
            mine.insert(pc.param);
          }
        }
        if (first) {
          meet = std::move(mine);
          first = false;
        } else {
          std::set<int> both;
          for (int p : meet) {
            if (mine.count(p)) both.insert(p);
          }
          meet = std::move(both);
        }
      }
      std::set<int>& cur = pi.sinking_params[name];
      for (int p : meet) {
        if (cur.insert(p).second) changed = true;
      }
    }
  }
}

void check_transitive(const std::string& path, const Model& m,
                      const ProjectIndex& pi, std::vector<Diagnostic>& out) {
  const auto& t = m.toks;
  int n = static_cast<int>(t.size());

  // Locals initialized from an unordered-returning cross-TU call; range-for
  // over one of these leaks the same hash-bucket order one hop later.
  std::map<std::string, std::string> tainted_locals;  // var -> callee

  for (int i = 0; i < n; ++i) {
    std::string callee = call_site_name(t, i);
    if (callee.empty()) continue;
    if (!pi.known(callee)) continue;
    if (pi.defined_in(callee, path)) continue;  // same-TU: direct checks own it

    const TransFact* tf = pi.fact(callee);
    if (tf && tf->wall_depth >= 0) {
      out.push_back(
          {path, t[i].line, t[i].col, "determinism.transitive-wall-clock",
           "call to " + callee + "() transitively reaches a machine clock (" +
               tf->wall_via + "); a gridmon run must be a pure function of "
               "its seed",
           "plumb sim::Simulation::now() through, or suppress at the sink "
           "with a justification"});
    }
    if (tf && tf->rng_depth >= 0) {
      out.push_back(
          {path, t[i].line, t[i].col, "determinism.transitive-ambient-rng",
           "call to " + callee + "() transitively reaches an ambient PRNG (" +
               tf->rng_via + "); randomness must come from the seeded "
               "sim::Rng",
           "pass a sim::Rng stream down, or suppress at the sink with a "
           "justification"});
    }

    if (pi.unordered_returning.count(callee)) {
      // `auto x = make_index();` — remember x; `for (... : x)` flags below.
      // The declarator is the identifier directly before `=`.
      if (i >= 2 && t[i - 1].text == "=" && t[i - 2].kind == TokKind::Ident) {
        tainted_locals[t[i - 2].text] = callee;
      }
    }
  }

  // Range-for: `for ( decl : <range> )` where <range> is a cross-TU call
  // returning an unordered container, or a local initialized from one.
  for (int i = 0; i + 1 < n; ++i) {
    if (!(t[i].kind == TokKind::Ident && t[i].text == "for")) continue;
    if (t[i + 1].text != "(") continue;
    int close = m.match[i + 1];
    if (close < 0) continue;
    int colon = -1;
    int depth = 0;
    for (int j = i + 2; j < close; ++j) {
      if (t[j].text == "(" || t[j].text == "[" || t[j].text == "{") ++depth;
      if (t[j].text == ")" || t[j].text == "]" || t[j].text == "}") --depth;
      if (depth == 0 && t[j].text == ":") {
        colon = j;
        break;
      }
    }
    if (colon < 0) continue;

    std::string callee;
    // Direct call case: last identifier of the range expression followed
    // by "(" — handles both `f(...)` and `ns::f(...)`.
    for (int j = colon + 1; j < close; ++j) {
      if (t[j].kind == TokKind::Ident && j + 1 < close &&
          t[j + 1].text == "(") {
        if (pi.unordered_returning.count(t[j].text) &&
            pi.known(t[j].text) && !pi.defined_in(t[j].text, path)) {
          callee = t[j].text;
        }
        break;
      }
      if (t[j].kind != TokKind::Ident && t[j].text != "::") break;
    }
    // Tainted-local case: `for (... : idx)`.
    if (callee.empty() && colon + 2 == close &&
        t[colon + 1].kind == TokKind::Ident) {
      auto it = tainted_locals.find(t[colon + 1].text);
      if (it != tainted_locals.end()) callee = it->second;
    }
    if (callee.empty()) continue;

    const IndexedFunc& def = pi.funcs.at(callee).front();
    out.push_back(
        {path, t[colon + 1].line, t[colon + 1].col,
         "iteration.unordered-return-leak",
         "range-for over the unordered result of " + callee + "() (defined "
         "in " + def.file + ") leaks hash-bucket order across TUs",
         "copy into a sorted container (or sort a vector of keys) before "
         "iterating"});
  }
}

}  // namespace gridmon::lint
