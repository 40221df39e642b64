#include <algorithm>
#include <map>
#include <set>

#include "cfg.hpp"
#include "checks.hpp"
#include "dataflow.hpp"

namespace gridmon::lint {
namespace {

bool is(const Token& t, const char* s) { return t.text == s; }

/// Container methods that hand out a view into the container's storage.
/// A variable initialized through one of these is a borrow: it dies the
/// moment another frame mutates the container.
bool is_deriving_method(const std::string& s) {
  static const std::set<std::string> kDeriving = {
      "find",        "begin", "rbegin", "cbegin",      "lower_bound",
      "upper_bound", "front", "back",   "at",          "data",
  };
  return kDeriving.count(s) != 0;
}

/// One analyzed body (a function or a lambda, each with its own CFG).
struct Body {
  const Model& m;
  const std::string& path;
  const std::vector<Param>& params;
  int body_begin;
  int body_end;
  Cfg cfg;
  std::vector<std::pair<int, int>> lambda_bodies;  // nested extents, skipped

  Body(const Model& model, const std::string& p,
       const std::vector<Param>& ps, int bb, int be)
      : m(model), path(p), params(ps), body_begin(bb), body_end(be),
        cfg(build_cfg(model, bb, be)) {
    for (const Lambda& l : m.lambdas) {
      if (l.intro_begin > bb && l.body_end < be) {
        lambda_bodies.emplace_back(l.body_begin, l.body_end);
      }
    }
  }

  bool in_nested_lambda(int tok) const {
    for (auto [b, e] : lambda_bodies) {
      if (b < tok && tok < e) return true;
    }
    return false;
  }

  /// A name a frame-local analysis may trust as function-owned: a live
  /// local, or a by-value parameter. Everything else (members, globals,
  /// reference parameters) is shared with other frames.
  bool owned_here(const std::string& name, int tok) const {
    if (m.is_local_at(name, tok)) return true;
    for (const Param& p : params) {
      if (p.name == name) return !p.is_reference;
    }
    return false;
  }

  bool is_param(const std::string& name) const {
    return std::any_of(params.begin(), params.end(),
                       [&](const Param& p) { return p.name == name; });
  }

  /// Statement end: the depth-0 ';' starting at tok (groups skipped).
  int stmt_end(int tok) const {
    const auto& t = m.toks;
    for (int j = tok; j < body_end; ++j) {
      const std::string& s = t[j].text;
      if ((s == "(" || s == "[" || s == "{") && m.match[j] > j) {
        j = m.match[j];
        continue;
      }
      if (s == ";") return j;
      if (s == "}") return j - 1;
    }
    return body_end - 1;
  }

  WitnessStep step(int tok, std::string note) const {
    return {path, m.toks[tok].line, m.toks[tok].col, std::move(note)};
  }
};

/// Solve `join`'s fixpoint over the body's node-entry states, then run one
/// deterministic reporting walk: `transfer(node, state, report)` again at
/// every node from its solved entry state, collecting diagnostics. A use
/// reached along several paths is reported once, in (line, col) order.
template <typename State, typename Transfer>
void report_forward(const Body& body, bool (*join)(State&, const State&),
                    Transfer transfer, std::vector<Diagnostic>& out) {
  std::vector<State> in =
      solve_forward(body.cfg, join,
                    [&](int node, State& st) { transfer(node, st, nullptr); });
  std::vector<Diagnostic> found;
  for (int node = 0; node < static_cast<int>(in.size()); ++node) {
    transfer(node, in[node], &found);
  }
  std::sort(found.begin(), found.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              return std::tie(a.line, a.col) < std::tie(b.line, b.col);
            });
  std::set<std::pair<int, int>> seen;
  for (Diagnostic& d : found) {
    if (seen.insert({d.line, d.col}).second) out.push_back(std::move(d));
  }
}

// ---------------------------------------------------------------------------
// coroutine.stale-ref-across-suspend

/// Per-variable borrow state. bits: 1 = tracked borrow, 2 = a suspension
/// was crossed since the borrow. Join ORs the bits and keeps the earliest
/// witness tokens.
struct Borrow {
  unsigned bits = 0;
  int def_tok = -1;
  int susp_tok = -1;
  bool is_ref = false;  // declared `T& x = ...`: assignment writes through
  std::string base;
};
using BorrowState = std::map<std::string, Borrow>;

bool join_borrows(BorrowState& dst, const BorrowState& src) {
  bool changed = false;
  for (const auto& [name, b] : src) {
    Borrow& d = dst[name];
    if ((d.bits | b.bits) != d.bits) {
      d.bits |= b.bits;
      changed = true;
    }
    if (d.def_tok < 0 && b.def_tok >= 0) d.def_tok = b.def_tok;
    if (d.susp_tok < 0 && b.susp_tok >= 0) d.susp_tok = b.susp_tok;
    if (b.is_ref) d.is_ref = true;
    if (d.base.empty()) d.base = b.base;
  }
  return changed;
}

/// When the RHS of the definition at `def` (an ident followed by '=')
/// derives a view into a shared container, return the container's name.
/// `subscript_only` is set when the derivation was `cont[i]` with no
/// iterator/pointer-producing method: such an expression is a borrow
/// only if the LHS binds it by reference or pointer — `int v = m[k]`
/// copies the element and cannot go stale.
std::string borrow_base(const Body& body, int def, bool* subscript_only) {
  const auto& t = body.m.toks;
  int end = body.stmt_end(def);
  for (int j = def + 2; j + 2 <= end; ++j) {
    if (body.in_nested_lambda(j)) continue;  // a closure's own borrows
    if (t[j].kind != TokKind::Ident) continue;
    const std::string& name = t[j].text;
    bool member_of_this =
        j >= 2 && is(t[j - 1], "->") && is(t[j - 2], "this");
    if (j > 0 && (is(t[j - 1], ".") || is(t[j - 1], "->")) &&
        !member_of_this) {
      continue;  // qualified: the base is earlier in the chain
    }
    bool via_method =
        j + 2 <= end && (is(t[j + 1], ".") || is(t[j + 1], "->")) &&
        is_deriving_method(t[j + 2].text) && j + 3 <= end &&
        is(t[j + 3], "(");
    bool via_subscript = j + 1 <= end && is(t[j + 1], "[");
    if ((via_method || via_subscript) && !body.owned_here(name, def)) {
      if (subscript_only != nullptr) {
        *subscript_only = via_subscript && !via_method;
      }
      return name;
    }
  }
  return {};
}

void stale_ref_pass(const Body& body, std::vector<Diagnostic>& out) {
  if (!body.cfg.has_suspension) return;
  const auto& t = body.m.toks;

  auto transfer = [&](int node, BorrowState& st,
                      std::vector<Diagnostic>* report) {
    const CfgNode& nd = body.cfg.nodes[node];
    for (const VarEvent& ev :
         var_events(body.m, nd.begin, nd.end)) {
      if (body.in_nested_lambda(ev.tok)) continue;
      if (ev.kind == VarEventKind::Def) {
        auto held = st.find(ev.name);
        if (held == st.end() || !held->second.is_ref) {
          bool subscript_only = false;
          std::string base = borrow_base(body, ev.tok, &subscript_only);
          bool ref_decl = ev.tok >= 1 && is(t[ev.tok - 1], "&");
          bool ptr_decl = ev.tok >= 1 && is(t[ev.tok - 1], "*");
          if (subscript_only && !ref_decl && !ptr_decl) {
            base.clear();  // `int v = m[k]` copies the element
          }
          if (!base.empty()) {
            // `T& x = cont[i]` writes through on later assignment; a
            // value/iterator binding rebinds instead.
            st[ev.name] = Borrow{1u, ev.tok, -1, ref_decl, base};
          } else {
            st.erase(ev.name);  // rebound to something we do not track
          }
          continue;
        }
        // A reference cannot rebind: this Def is a write through the
        // borrow — fall through to the use handling below.
      }
      // Use and DefUse (++it keeps the borrow — it still points into the
      // same container) both read the variable.
      auto it = st.find(ev.name);
      if (it == st.end() || !(it->second.bits & 2u)) continue;
      if (report) {
        const Borrow& b = it->second;
        Diagnostic d{body.path, t[ev.tok].line, t[ev.tok].col,
                     "coroutine.stale-ref-across-suspend",
                     "'" + ev.name + "' borrows into shared container '" +
                         b.base +
                         "' and is used after a suspension point; any other "
                         "frame may have mutated '" + b.base +
                         "' while this one was suspended, invalidating the "
                         "borrow",
                     "re-derive '" + ev.name +
                         "' after the co_await, or copy the element out "
                         "before suspending"};
        if (b.def_tok >= 0) {
          d.path.push_back(body.step(
              b.def_tok, "borrow into '" + b.base + "' derived here"));
        }
        if (b.susp_tok >= 0) {
          d.path.push_back(body.step(
              b.susp_tok, "frame suspends here; other frames may run and "
                          "mutate '" + b.base + "'"));
        }
        d.path.push_back(body.step(ev.tok, "stale borrow used here"));
        report->push_back(std::move(d));
        st.erase(it);  // one report per borrow per path
      }
    }
    if (nd.is_suspend) {
      for (auto& [name, b] : st) {
        if (b.bits & 1u) {
          b.bits |= 2u;
          if (b.susp_tok < 0) b.susp_tok = nd.suspend_tok;
        }
      }
    }
  };

  report_forward(body, join_borrows, transfer, out);
}

/// Range-for over a shared container whose loop body suspends: the loop's
/// hidden iterators cross every suspension. Reported at the `for`.
void range_for_pass(const Body& body, std::vector<Diagnostic>& out) {
  if (!body.cfg.has_suspension) return;
  const auto& t = body.m.toks;
  for (int i = body.body_begin + 1; i < body.body_end; ++i) {
    if (body.in_nested_lambda(i)) continue;
    if (!(is(t[i], "for") && i + 1 < body.body_end && is(t[i + 1], "(") &&
          body.m.match[i + 1] > 0)) {
      continue;
    }
    int close = body.m.match[i + 1];
    int colon = -1;
    for (int j = i + 2; j < close; ++j) {
      const std::string& s = t[j].text;
      if ((s == "(" || s == "[" || s == "{") && body.m.match[j] > j) {
        j = body.m.match[j];
        continue;
      }
      if (s == ":") {
        colon = j;
        break;
      }
    }
    if (colon < 0) continue;
    // The range must be a plain (possibly member-qualified) name; call
    // expressions stay silent — we cannot tell what they return.
    std::string base;
    bool resolvable = true;
    for (int j = colon + 1; j < close; ++j) {
      if (t[j].kind == TokKind::Ident && !is(t[j], "this")) {
        base = t[j].text;
      } else if (!(is(t[j], ".") || is(t[j], "->") || is(t[j], "this"))) {
        resolvable = false;
        break;
      }
    }
    if (!resolvable || base.empty() || body.owned_here(base, i)) continue;
    // Does the loop body suspend? (Nested lambdas do not count.)
    int body_start = close + 1;
    int body_close = is(t[body_start], "{") && body.m.match[body_start] > 0
                         ? body.m.match[body_start]
                         : body.stmt_end(body_start);
    int susp = -1;
    for (int j = body_start; j <= body_close; ++j) {
      if (body.in_nested_lambda(j)) continue;
      if (t[j].kind == TokKind::Ident &&
          (is(t[j], "co_await") || is(t[j], "co_yield"))) {
        susp = j;
        break;
      }
    }
    if (susp < 0) continue;
    Diagnostic d{body.path, t[i].line, t[i].col,
                 "coroutine.stale-ref-across-suspend",
                 "range-for over shared container '" + base +
                     "' suspends inside the loop body; the loop's hidden "
                     "iterators are invalidated if any other frame mutates "
                     "'" + base + "' during the suspension",
                 "snapshot the elements (or keys) into a local vector "
                 "before the loop, or restructure so the mutation and the "
                 "iteration cannot interleave"};
    d.path.push_back(body.step(i, "iteration borrows into '" + base +
                                      "' for the whole loop"));
    d.path.push_back(
        body.step(susp, "frame suspends here, mid-iteration"));
    out.push_back(std::move(d));
  }
}

// ---------------------------------------------------------------------------
// coroutine.use-after-move

struct Moved {
  unsigned bits = 0;  // 1 = moved-from
  int move_tok = -1;
};
using MovedState = std::map<std::string, Moved>;

bool join_moved(MovedState& dst, const MovedState& src) {
  bool changed = false;
  for (const auto& [name, mv] : src) {
    Moved& d = dst[name];
    if ((d.bits | mv.bits) != d.bits) {
      d.bits |= mv.bits;
      changed = true;
    }
    if (d.move_tok < 0 && mv.move_tok >= 0) d.move_tok = mv.move_tok;
  }
  return changed;
}

/// Member calls that give a moved-from object a fresh, specified state.
bool rebinds_moved(const std::string& member) {
  static const std::set<std::string> kRebind = {"clear", "reset", "assign",
                                                "swap", "emplace"};
  return kRebind.count(member) != 0;
}

/// Validity probes that are legitimate on a moved-from handle.
bool benign_probe(const Model& m, int tok) {
  const auto& t = m.toks;
  int n = static_cast<int>(t.size());
  if (tok > 0 && is(t[tok - 1], "!")) return true;
  if (tok + 1 < n && (is(t[tok + 1], "==") || is(t[tok + 1], "!="))) {
    return true;
  }
  if (tok > 1 && is(t[tok - 1], "(") &&
      (is(t[tok - 2], "if") || is(t[tok - 2], "while"))) {
    return true;
  }
  return false;
}

void use_after_move_pass(const Body& body, std::vector<Diagnostic>& out) {
  const auto& t = body.m.toks;

  auto transfer = [&](int node, MovedState& st,
                      std::vector<Diagnostic>* report) {
    const CfgNode& nd = body.cfg.nodes[node];
    // Within one statement the RHS evaluates before the assignment writes:
    // `lhs = combine(std::move(lhs), rhs)` moves lhs out and immediately
    // rebinds it, so the Def must land after the statement's uses.
    std::vector<VarEvent> events = var_events(body.m, nd.begin, nd.end);
    std::stable_sort(events.begin(), events.end(),
                     [&](const VarEvent& a, const VarEvent& b) {
                       int sa = body.stmt_end(a.tok), sb = body.stmt_end(b.tok);
                       if (sa != sb) return sa < sb;
                       return (a.kind == VarEventKind::Def) <
                              (b.kind == VarEventKind::Def);
                     });
    for (const VarEvent& ev : events) {
      if (body.in_nested_lambda(ev.tok)) continue;
      if (ev.kind == VarEventKind::Def) {
        st.erase(ev.name);  // fresh binding (declaration or assignment)
        continue;
      }
      // Only frame-owned bindings: a member could be re-bound by any
      // callee between the move and the use, which we cannot see.
      // (Checked after the Def kill: is_local_at is false at the
      // declaration token itself, and a kill is always sound.)
      if (!body.m.is_local_at(ev.name, ev.tok) && !body.is_param(ev.name)) {
        continue;
      }
      int j = ev.tok;
      bool is_moving_use = j >= 2 && is(t[j - 1], "(") &&
                           is(t[j - 2], "move") &&
                           (j < 3 || !is(t[j - 3], ".")) &&
                           j + 1 < static_cast<int>(t.size()) &&
                           is(t[j + 1], ")");
      auto it = st.find(ev.name);
      bool was_moved = it != st.end() && (it->second.bits & 1u);
      if (was_moved && !benign_probe(body.m, j)) {
        bool rebind_call =
            j + 2 < static_cast<int>(t.size()) &&
            (is(t[j + 1], ".") || is(t[j + 1], "->")) &&
            rebinds_moved(t[j + 2].text);
        if (rebind_call) {
          st.erase(ev.name);
        } else if (report) {
          const Moved& mv = it->second;
          Diagnostic d{
              body.path, t[j].line, t[j].col, "coroutine.use-after-move",
              "'" + ev.name + "' is used after being moved from" +
                  (is_moving_use ? " (moved again)" : "") +
                  "; a moved-from object is valid but unspecified, so any "
                  "read is nondeterministic",
              "rebind '" + ev.name +
                  "' before reusing it, or restructure so each binding is "
                  "moved exactly once"};
          if (mv.move_tok >= 0) {
            d.path.push_back(
                body.step(mv.move_tok, "'" + ev.name + "' moved from here"));
          }
          d.path.push_back(body.step(j, "moved-from value used here"));
          report->push_back(std::move(d));
          st.erase(ev.name);  // one report per move per path
          continue;
        } else {
          st.erase(ev.name);  // mirror the reporting walk's strong update
        }
      }
      if (is_moving_use) st[ev.name] = Moved{1u, j};
    }
  };

  report_forward(body, join_moved, transfer, out);
}

}  // namespace

void check_lifetime(const std::string& path, const Model& m,
                    std::vector<Diagnostic>& out) {
  static const std::vector<Param> kNoParams;
  auto analyze = [&](const std::vector<Param>& params, int bb, int be) {
    if (be <= bb + 1) return;
    Body body(m, path, params, bb, be);
    stale_ref_pass(body, out);
    range_for_pass(body, out);
    use_after_move_pass(body, out);
  };
  for (const Func& f : m.funcs) analyze(f.params, f.body_begin, f.body_end);
  for (const Lambda& l : m.lambdas) {
    analyze(l.params.empty() ? kNoParams : l.params, l.body_begin,
            l.body_end);
  }
}

}  // namespace gridmon::lint
