/// \file check_taint.cpp
/// determinism.tainted-sim-state: flow-sensitive taint from nondeterminism
/// sources (getenv, machine clocks, ambient PRNGs) into simulated state
/// (sim spawn/schedule/delay/post/seed arguments and ScenarioSpec fields).
///
/// This replaces the old coarse rule that treated every getenv call as a
/// sink: a harness reading an env switch that only steers harness behavior
/// is clean with no suppression, while a value that *flows* into the
/// simulation — directly, through locals, or through calls in other TUs —
/// is flagged with a source -> flow -> sink witness path.
///
/// Control dependence is deliberately out of scope: `if (getenv(...))
/// opt.quick = true;` assigns a constant, so `opt.quick` stays clean. The
/// sim's own seed plumbing already separates "which scenario runs" from
/// "what the scenario computes"; data flow is the contract boundary.

#include <algorithm>
#include <map>
#include <set>
#include <tuple>

#include "cfg.hpp"
#include "checks.hpp"
#include "dataflow.hpp"

namespace gridmon::lint {
namespace {

bool is(const Token& t, const char* s) { return t.text == s; }

/// Direct nondeterminism sources, by identifier. Clocks and PRNGs are
/// *also* banned outright by determinism.wall-clock/ambient-rng; here they
/// matter only when their value travels through variables, which is why
/// the check reports var-mediated flows for every kind but direct-in-sink
/// uses only for the env kind (the others are already findings at the
/// source line).
unsigned source_bits(const std::string& ident) {
  if (ident == "getenv") return kTaintEnv;
  if (ident == "system_clock" || ident == "steady_clock" ||
      ident == "high_resolution_clock" || ident == "time" ||
      ident == "gettimeofday" || ident == "clock_gettime") {
    return kTaintClock;
  }
  if (ident == "random_device" || ident == "rand" || ident == "srand" ||
      ident == "drand48" || ident == "lrand48" || ident == "random") {
    return kTaintRng;
  }
  return 0;
}

std::string source_label(const Model& m, int tok) {
  if (tok >= 2 && is(m.toks[tok - 1], "::")) {
    return m.toks[tok - 2].text + "::" + m.toks[tok].text;
  }
  return m.toks[tok].text;
}

/// Simulation-state sinks, by member-call name: these calls decide what
/// the event loop does and when.
bool is_sink_call(const std::string& ident) {
  static const std::set<std::string> kSinks = {
      "spawn", "schedule", "schedule_resume", "schedule_at",
      "delay", "post",     "seed",
  };
  return kSinks.count(ident) != 0;
}

/// One analyzed body with its CFG and the per-variable taint fixpoint.
/// `param_mode` switches the lattice: taint bits from sources (the check)
/// vs. a bitmask of parameter indices (the pass-1 summary).
struct TaintBody {
  const Model& m;
  int body_begin;
  int body_end;
  Cfg cfg;
  std::vector<std::pair<int, int>> lambda_bodies;
  const ProjectIndex* project;
  std::string self_file;  // only calls defined elsewhere resolve via index
  std::vector<Param> params;
  bool param_mode = false;

  // Flow-insensitive witness/provenance side tables, filled during the
  // deterministic walks: first source that tainted each var, and the
  // callees whose return value fed each var.
  std::map<std::string, std::pair<int, std::string>> origin;
  std::map<std::string, std::set<std::string>> provenance;

  TaintBody(const Model& model, int bb, int be, const ProjectIndex* pi,
            std::string file, std::vector<Param> ps, bool pmode)
      : m(model), body_begin(bb), body_end(be), cfg(build_cfg(model, bb, be)),
        project(pi), self_file(std::move(file)), params(std::move(ps)),
        param_mode(pmode) {
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

  unsigned param_seed(const std::string& name) const {
    for (std::size_t i = 0; i < params.size() && i < 16; ++i) {
      if (params[i].name == name) return 1u << i;
    }
    return 0;
  }

  /// Resolved taint a call to `callee` returns: cross-TU summary in
  /// project mode (same-file definitions included — the index covers this
  /// file too), nothing otherwise.
  unsigned call_taint(const std::string& callee) const {
    return project ? project->taint_of(callee) : 0u;
  }

  /// Taint bits of the expression [b, e), given the current var state.
  /// Fills `src_tok` (first direct source) and `vars` / `calls` (the
  /// tainted variables and taint-returning callees seen) when requested.
  unsigned expr_bits(int b, int e, const VarBits& st, int* src_tok,
                     std::vector<std::string>* vars,
                     std::vector<std::string>* calls) const {
    const auto& t = m.toks;
    const int n = static_cast<int>(t.size());
    unsigned bits = 0;
    for (int j = b; j < e && j < n; ++j) {
      if (in_nested_lambda(j)) continue;
      if (t[j].kind != TokKind::Ident) continue;
      bool member = j > 0 && (is(t[j - 1], ".") || is(t[j - 1], "->"));
      // Neighbor context peeks past [b, e): an argument expression ends
      // right after its last identifier, but that identifier's role still
      // depends on the token that follows.
      bool is_call = j + 1 < n && is(t[j + 1], "(");
      if (!param_mode && is_call && !member) {
        unsigned sb = source_bits(t[j].text);
        if (sb) {
          bits |= sb;
          if (src_tok && *src_tok < 0) *src_tok = j;
          continue;
        }
        unsigned ct = call_taint(t[j].text);
        if (ct) {
          bits |= ct;
          if (calls) calls->push_back(t[j].text);
          continue;
        }
      }
      if (!param_mode && !is_call && source_bits(t[j].text) == kTaintClock &&
          j + 1 < n && is(t[j + 1], "::")) {
        // steady_clock::now() — the source ident precedes '::', not '('.
        bits |= kTaintClock;
        if (src_tok && *src_tok < 0) *src_tok = j;
        continue;
      }
      if (member || is_call || (j + 1 < n && is(t[j + 1], "::"))) continue;
      auto it = st.find(t[j].text);
      if (it != st.end() && it->second) {
        bits |= it->second;
        if (vars) vars->push_back(t[j].text);
      }
      if (param_mode) bits |= param_seed_if_unshadowed(t[j].text, st);
    }
    return bits;
  }

  /// In param mode a parameter name carries its own bit unless the state
  /// recorded a rebind (state key present means the solver owns it).
  unsigned param_seed_if_unshadowed(const std::string& name,
                                    const VarBits& st) const {
    if (st.count(name)) return 0;  // solver state already speaks for it
    return param_seed(name);
  }

  /// The dataflow transfer for one node: process assignments in token
  /// order. Shared by the fixpoint and the reporting/summary walks.
  template <typename OnStmt>
  void transfer(int node, VarBits& st, OnStmt on_stmt) {
    const CfgNode& nd = cfg.nodes[node];
    int j = nd.begin;
    while (j < nd.end) {
      if (in_nested_lambda(j)) {
        ++j;
        continue;
      }
      // Join nodes can begin on a block's closing '}' (the node's range
      // then extends over the following statements); stmt_end would answer
      // j - 1 there, so step over stray delimiters explicitly or the walk
      // would never advance.
      const std::string& lead = m.toks[j].text;
      if (lead == "}" || lead == ";" || lead == "else") {
        ++j;
        continue;
      }
      int se = stmt_end(j);
      if (se < j) {
        ++j;
        continue;
      }
      on_stmt(j, se, st);
      // Assignments within the statement: ident (not member-qualified)
      // followed by '=' or a compound assignment.
      for (const VarEvent& ev : var_events(m, j, std::min(se + 1, nd.end))) {
        if (in_nested_lambda(ev.tok)) continue;
        if (ev.kind == VarEventKind::Use) continue;
        int rb = ev.tok + 2;
        int re = se;  // RHS: to end of statement (commas are rare enough)
        int src = -1;
        std::vector<std::string> vars, calls;
        unsigned bits = expr_bits(rb, re + 1, st, &src, &vars, &calls);
        if (param_mode) {
          unsigned seed = param_seed(ev.name);
          if (ev.kind == VarEventKind::DefUse) bits |= st[ev.name] | seed;
          st[ev.name] = bits;  // presence marks a rebind, even to 0
        } else {
          if (ev.kind == VarEventKind::DefUse) bits |= st[ev.name];
          st[ev.name] = bits;
          if (bits) {
            if (src >= 0) {
              origin[ev.name] = {src, source_label(m, src)};
            } else if (!vars.empty() && origin.count(vars.front())) {
              origin[ev.name] = origin[vars.front()];
            } else if (!calls.empty()) {
              origin[ev.name] = {ev.tok, calls.front() + "()"};
            }
            auto& prov = provenance[ev.name];
            prov.insert(calls.begin(), calls.end());
            for (const std::string& v : vars) {
              auto p = provenance.find(v);
              if (p != provenance.end()) {
                prov.insert(p->second.begin(), p->second.end());
              }
            }
          }
        }
      }
      j = se + 1;
    }
  }

  std::vector<VarBits> solve() {
    return solve_forward(cfg, join_bits, [&](int node, VarBits& st) {
      if (param_mode && node == cfg.entry) {
        // Parameters are born carrying their own index bit.
        for (std::size_t i = 0; i < params.size() && i < 16; ++i) {
          if (!params[i].name.empty() && !st.count(params[i].name)) {
            st[params[i].name] = 1u << i;
          }
        }
      }
      transfer(node, st, [](int, int, const VarBits&) {});
    });
  }

  /// Top-level argument ranges of the call whose '(' is at `open`.
  std::vector<std::pair<int, int>> arg_ranges(int open) const {
    std::vector<std::pair<int, int>> out;
    int close = m.match[open];
    if (close < 0) return out;
    int start = open + 1;
    for (int k = open + 1; k <= close; ++k) {
      const std::string& s = m.toks[k].text;
      if (k < close && (s == "(" || s == "[" || s == "{") && m.match[k] > k) {
        k = m.match[k];
        continue;
      }
      if (k == close || s == ",") {
        if (k > start) out.emplace_back(start, k);
        start = k + 1;
      }
    }
    return out;
  }
};

/// ScenarioSpec-typed variable names declared anywhere in the file
/// (`ScenarioSpec [&*] name`).
std::set<std::string> spec_vars(const Model& m) {
  std::set<std::string> out;
  const auto& t = m.toks;
  int n = static_cast<int>(t.size());
  for (int i = 0; i + 1 < n; ++i) {
    if (!is(t[i], "ScenarioSpec")) continue;
    if (i > 0 && (is(t[i - 1], ".") || is(t[i - 1], "->") ||
                  is(t[i - 1], "::"))) {
      continue;
    }
    int j = i + 1;
    if (is(t[j], "&") || is(t[j], "*")) ++j;
    if (j < n && t[j].kind == TokKind::Ident) out.insert(t[j].text);
  }
  return out;
}

}  // namespace

void check_taint(const std::string& path, const Model& m,
                 const ProjectIndex* project, std::vector<Diagnostic>& out) {
  const auto& t = m.toks;
  std::set<std::string> specs = spec_vars(m);
  std::set<std::tuple<int, int>> reported;

  auto analyze = [&](const std::vector<Param>& params, int bb, int be) {
    if (be <= bb + 1) return;
    TaintBody body(m, bb, be, project, path, params, false);
    std::vector<VarBits> in = body.solve();

    auto report = [&](int tok, const std::string& what,
                      const std::string& via_src, int src_tok) {
      if (!reported.insert({t[tok].line, t[tok].col}).second) return;
      Diagnostic d{path, t[tok].line, t[tok].col,
                   "determinism.tainted-sim-state",
                   what + "; a gridmon run must be a pure function of "
                          "(spec, seed), so nondeterministic host state "
                          "must never reach the event loop",
                   "derive the value from the spec or the seeded sim::Rng; "
                   "if the host value legitimately configures the harness, "
                   "keep it out of simulated state"};
      if (src_tok >= 0) {
        d.path.push_back({path, t[src_tok].line, t[src_tok].col,
                          "nondeterministic value (" + via_src +
                              ") read here"});
      }
      d.path.push_back({path, t[tok].line, t[tok].col,
                        "flows into simulated state here"});
      out.push_back(std::move(d));
    };

    for (int node = 0; node < static_cast<int>(body.cfg.nodes.size());
         ++node) {
      VarBits st = in[node];
      body.transfer(node, st, [&](int sb, int se, const VarBits& cur) {
        for (int j = sb; j <= se && j + 1 < static_cast<int>(t.size()); ++j) {
          if (body.in_nested_lambda(j)) continue;
          if (t[j].kind != TokKind::Ident || !is(t[j + 1], "(")) continue;

          bool member = j > 0 && (is(t[j - 1], ".") || is(t[j - 1], "->"));
          bool sim_sink = is_sink_call(t[j].text) && member;
          bool xtu_sink = !member && project && project->known(t[j].text) &&
                          !project->defined_in(t[j].text, path);
          if (!sim_sink && !xtu_sink) continue;

          auto args = body.arg_ranges(j + 1);
          for (std::size_t a = 0; a < args.size(); ++a) {
            auto [ab, ae] = args[a];
            if (xtu_sink &&
                !project->param_sinks(t[j].text, static_cast<int>(a))) {
              continue;
            }
            int src = -1;
            std::vector<std::string> vars, calls;
            unsigned bits =
                body.expr_bits(ab, ae, cur, &src, &vars, &calls);
            if (!bits) continue;
            // Direct source in the argument: only the env kind — direct
            // clock/RNG uses are already determinism.wall-clock/
            // ambient-rng findings at this very line.
            if (vars.empty() && calls.empty() && src >= 0 &&
                source_bits(t[src].text) != kTaintEnv) {
              continue;
            }
            std::string carrier;
            int origin_tok = src;
            std::string origin_label =
                src >= 0 ? source_label(m, src) : std::string();
            if (!vars.empty()) {
              carrier = "'" + vars.front() + "' (" +
                        taint_label(bits) + "-tainted)";
              auto o = body.origin.find(vars.front());
              if (o != body.origin.end()) {
                origin_tok = o->second.first;
                origin_label = o->second.second;
              }
            } else if (!calls.empty()) {
              std::string via =
                  project ? project->taint_via(calls.front()) : "";
              carrier = "the return value of " + calls.front() + "()" +
                        (via.empty() ? "" : " (" + via + ")");
              origin_tok = j;
              origin_label = calls.front() + "()";
            } else {
              carrier = origin_label;
            }
            std::string sink_desc =
                sim_sink
                    ? "sim." + t[j].text + "()"
                    : t[j].text + "() (whose parameter " +
                          std::to_string(a) + " feeds sim state)";
            report(j, carrier + " flows into " + sink_desc, origin_label,
                   origin_tok);
            break;
          }
        }

        // ScenarioSpec field assignment: `spec.field = <tainted>`.
        for (int j = sb; j + 3 <= se; ++j) {
          if (body.in_nested_lambda(j)) continue;
          if (t[j].kind != TokKind::Ident || !specs.count(t[j].text)) {
            continue;
          }
          if (j > 0 && (is(t[j - 1], ".") || is(t[j - 1], "->"))) continue;
          int k = j + 1;
          bool saw_member = false;
          while (k + 1 <= se && is(t[k], ".") &&
                 t[k + 1].kind == TokKind::Ident) {
            saw_member = true;
            k += 2;
          }
          if (!saw_member || k > se || !is(t[k], "=")) continue;
          int src = -1;
          std::vector<std::string> vars, calls;
          unsigned bits = body.expr_bits(k + 1, se + 1, cur, &src, &vars,
                                         &calls);
          if (!bits) continue;
          std::string origin_label =
              src >= 0 ? source_label(m, src) : std::string();
          int origin_tok = src;
          if (!vars.empty()) {
            auto o = body.origin.find(vars.front());
            if (o != body.origin.end()) {
              origin_tok = o->second.first;
              origin_label = o->second.second;
            }
          }
          report(j,
                 taint_label(bits) +
                     "-tainted value assigned to ScenarioSpec field '" +
                     t[j].text + "." + t[k - 1].text + "'",
                 origin_label, origin_tok);
        }
      });
    }
  };

  for (const Func& f : m.funcs) analyze(f.params, f.body_begin, f.body_end);
  for (const Lambda& l : m.lambdas) {
    analyze(l.params, l.body_begin, l.body_end);
  }

  std::sort(out.begin(), out.end(), [](const Diagnostic& a,
                                       const Diagnostic& b) {
    return std::tie(a.line, a.col, a.check) < std::tie(b.line, b.col, b.check);
  });
}

void extract_taint_facts(const Model& m, const Func& f, IndexedFunc& out) {
  if (f.body_end <= f.body_begin + 1) return;
  const auto& t = m.toks;

  // Source-taint pass: what does the return value carry directly?
  {
    TaintBody body(m, f.body_begin, f.body_end, nullptr, out.file, f.params,
                   false);
    std::vector<VarBits> in = body.solve();
    std::set<std::string> rcalls;
    for (int node = 0; node < static_cast<int>(body.cfg.nodes.size());
         ++node) {
      VarBits st = in[node];
      body.transfer(node, st, [&](int sb, int se, const VarBits& cur) {
        if (!(is(t[sb], "return") || is(t[sb], "co_return"))) return;
        int src = -1;
        std::vector<std::string> vars, calls;
        out.taint_return |=
            body.expr_bits(sb + 1, se + 1, cur, &src, &vars, &calls);
        if (out.taint_label.empty()) {
          if (src >= 0) {
            out.taint_label = source_label(m, src);
          } else if (!vars.empty()) {
            auto o = body.origin.find(vars.front());
            if (o != body.origin.end()) out.taint_label = o->second.second;
          }
        }
        // Callees whose return feeds ours: direct calls in the return
        // expression plus the provenance of returned variables.
        for (int j = sb + 1; j <= se; ++j) {
          if (body.in_nested_lambda(j)) continue;
          if (t[j].kind != TokKind::Ident || j + 1 > se ||
              !is(t[j + 1], "(")) {
            continue;
          }
          if (j > sb + 1 && (is(t[j - 1], ".") || is(t[j - 1], "->"))) {
            continue;
          }
          if (j > sb + 1 && is(t[j - 1], "::") && j >= 2 &&
              (is(t[j - 2], "std") || is(t[j - 2], "chrono"))) {
            continue;
          }
          if (source_bits(t[j].text)) continue;  // a source, not a callee
          rcalls.insert(t[j].text);
        }
        for (const std::string& v : vars) {
          auto p = body.provenance.find(v);
          if (p != body.provenance.end()) {
            rcalls.insert(p->second.begin(), p->second.end());
          }
        }
      });
    }
    out.return_calls.assign(rcalls.begin(), rcalls.end());
  }

  // Param-mask pass: which parameters reach a sink or are forwarded?
  if (!f.params.empty()) {
    TaintBody body(m, f.body_begin, f.body_end, nullptr, out.file, f.params,
                   true);
    std::vector<VarBits> in = body.solve();
    std::set<int> sinks;
    std::set<std::tuple<int, std::string, int>> fwd;
    for (int node = 0; node < static_cast<int>(body.cfg.nodes.size());
         ++node) {
      VarBits st = in[node];
      body.transfer(node, st, [&](int sb, int se, const VarBits& cur) {
        for (int j = sb; j <= se && j + 1 < static_cast<int>(t.size());
             ++j) {
          if (body.in_nested_lambda(j)) continue;
          if (t[j].kind != TokKind::Ident || !is(t[j + 1], "(")) continue;
          bool member = j > 0 && (is(t[j - 1], ".") || is(t[j - 1], "->"));
          bool sim_sink = is_sink_call(t[j].text) && member;
          bool fwd_call = !member && !source_bits(t[j].text) &&
                          !(j > 0 && is(t[j - 1], "::") && j >= 2 &&
                            (is(t[j - 2], "std") || is(t[j - 2], "chrono")));
          if (!sim_sink && !fwd_call) continue;
          auto args = body.arg_ranges(j + 1);
          for (std::size_t a = 0; a < args.size(); ++a) {
            unsigned mask = body.expr_bits(args[a].first, args[a].second,
                                           cur, nullptr, nullptr, nullptr);
            for (int p = 0; p < 16 && p < static_cast<int>(f.params.size());
                 ++p) {
              if (!(mask & (1u << p))) continue;
              if (sim_sink) {
                sinks.insert(p);
              } else {
                fwd.insert({p, t[j].text, static_cast<int>(a)});
              }
            }
          }
        }
      });
    }
    out.sink_params.assign(sinks.begin(), sinks.end());
    for (const auto& [p, callee, a] : fwd) {
      out.param_calls.push_back(ParamCall{p, callee, a});
    }
  }
}

}  // namespace gridmon::lint
