#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "callgraph.hpp"
#include "checks.hpp"
#include "index.hpp"
#include "lint.hpp"
#include "model.hpp"

namespace gridmon::lint {
namespace {

namespace fs = std::filesystem;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool check_enabled(const std::string& id, const Options& opts) {
  if (opts.enabled_checks.empty()) return true;
  return std::any_of(opts.enabled_checks.begin(), opts.enabled_checks.end(),
                     [&](const std::string& p) { return id.rfind(p, 0) == 0; });
}

bool prefix_matches(const std::string& prefix, const std::string& id) {
  return !prefix.empty() && id.rfind(prefix, 0) == 0;
}

/// The budget key for a suppression: the first dotted component of its
/// check prefix ("coroutine.this-capture" -> "coroutine").
std::string family_of(const std::string& check_prefix) {
  auto dot = check_prefix.find('.');
  return dot == std::string::npos ? check_prefix : check_prefix.substr(0, dot);
}

}  // namespace

std::vector<CheckInfo> all_checks() {
  return {
      {"determinism.wall-clock",
       "machine clocks (std::chrono::*_clock, time(), gettimeofday, ...) "
       "banned; use sim::Simulation::now()",
       "A gridmon run is a pure function of (spec, seed). Reading any "
       "machine clock makes scheduling or output depend on when and where "
       "the run happened, so two runs of the same seed diverge.",
       "double t = std::chrono::steady_clock::now().time_since_epoch()"
       ".count();",
       "Use sim::Simulation::now() (SimTime seconds); benchmarks that must "
       "time real work suppress at the call with a justification."},
      {"determinism.ambient-rng",
       "ambient PRNGs (rand, srand, std::random_device, ...) banned; use "
       "the seeded sim::Rng",
       "Randomness must be replayable. Ambient PRNGs (process-global, "
       "OS-seeded) give every run a different stream; the seeded sim::Rng "
       "with fork() per consumer keeps streams stable as code moves.",
       "int jitter = rand() % 100;",
       "Take a sim::Rng& (fork()ed per stream) and draw from it."},
      {"determinism.transitive-wall-clock",
       "calling a function (defined in another file) that transitively "
       "reaches a machine clock",
       "Wrapping a clock in a helper does not launder it: the call site "
       "still makes the run time-dependent. The project index propagates "
       "sink facts over the call graph, so the caller is flagged even when "
       "the sink lives three files away. Justified suppressions at the "
       "sink clear all callers.",
       "// a.cpp: double wall_now() { return std::chrono::...; }\n"
       "// b.cpp: double t = wall_now();",
       "Plumb sim::Simulation::now() through, or suppress at the sink "
       "with a justification (which un-taints every caller)."},
      {"determinism.transitive-ambient-rng",
       "calling a function (defined in another file) that transitively "
       "reaches an ambient PRNG",
       "Same propagation as transitive-wall-clock, for PRNG sinks: a "
       "helper that calls rand() makes every cross-TU caller "
       "nondeterministic.",
       "// a.cpp: int roll() { return rand() % 6; }\n"
       "// b.cpp: int r = roll();",
       "Pass a sim::Rng stream down the call chain."},
      {"determinism.tainted-sim-state",
       "a getenv/clock/RNG value flowing into sim state (spawn/schedule/"
       "delay/post/seed arguments, ScenarioSpec fields)",
       "The determinism contract is about what reaches the event loop, "
       "not about which functions appear in a file. The taint lattice "
       "tracks env/clock/RNG values through assignments and across TU "
       "boundaries (function taint summaries ride the project index); a "
       "flow into sim state is reported with a source -> sink witness "
       "path. The flip side is precision: a harness getenv that only "
       "configures the harness is clean with no suppression.",
       "const char* e = std::getenv(\"USERS\");\n"
       "spec.users = std::atoi(e);",
       "Derive the value from the spec or the seeded sim::Rng. Host state "
       "may steer the harness (which scenario, how many repetitions) but "
       "never what the scenario computes."},
      {"iteration.unordered-range-for",
       "range-for / iterator traversal of unordered containers exposes "
       "hash-bucket order",
       "Hash-bucket order is implementation-defined and changes with load "
       "factor, libstdc++ version, and insertion history. Any traversal "
       "that feeds scheduling or output makes runs non-reproducible.",
       "for (auto& [k, v] : users_) schedule(v);",
       "Iterate a sorted copy of the keys, or keep a parallel sorted "
       "index. Mark provably order-independent folds with the "
       "iteration-order-independent alias and a justification."},
      {"iteration.unordered-equal-range",
       "equal_range on unordered containers needs a deterministic "
       "post-order (sort) before results can reach output",
       "equal_range on an unordered_multimap yields bucket order within "
       "the key; callers that forward it leak that order.",
       "auto [b, e] = index_.equal_range(site); reply(b, e);",
       "Copy the range into a vector and sort on a total key first."},
      {"iteration.unordered-return-leak",
       "range-for over the unordered result of a function defined in "
       "another file",
       "Returning an unordered container exports hash-bucket order across "
       "the TU boundary; the caller's loop then schedules in that order. "
       "The project index records unordered return types, so the leak is "
       "caught at the loop even though the container type is invisible in "
       "the caller's file.",
       "// a.cpp: std::unordered_map<K,V> snapshot();\n"
       "// b.cpp: for (auto& [k, v] : snapshot()) emit(k);",
       "Copy into a sorted container (or sort a vector of keys) before "
       "iterating."},
      {"coroutine.ref-capture",
       "coroutine lambdas must not capture by reference",
       "A coroutine frame outlives the scope that created it whenever the "
       "coroutine suspends; by-reference captures then dangle on resume.",
       "spawn([&] -> sim::Task<void> { co_await gate; use(local); }());",
       "Capture by value, or pass state as coroutine parameters (copied "
       "into the frame)."},
      {"coroutine.this-capture",
       "coroutine lambdas must not capture 'this' (owner may die across a "
       "suspension)",
       "Capturing `this` into a coroutine frame ties the frame to the "
       "owner's lifetime with no enforcement; if the owner is destroyed "
       "while the coroutine is suspended, resume is use-after-free.",
       "spawn([this] -> sim::Task<void> { co_await t; field_++; }());",
       "Copy the needed members into the frame, or join the coroutine in "
       "the owner's destructor. Suppress (with a justification) only when "
       "the owner provably outlives the simulation."},
      {"coroutine.stale-ref-across-suspend",
       "a reference/iterator/pointer into a shared container used after a "
       "co_await — other frames may have mutated the container",
       "A suspension point is a scheduling point: any other coroutine may "
       "run before this frame resumes, and any of them may insert into or "
       "erase from the container the borrow points into. The per-function "
       "CFG marks every co_await/co_yield, so a borrow that is derived "
       "before a suspension and used after it (including across a loop "
       "back-edge) is flagged with a def -> suspension -> use witness "
       "path. Uses inside the awaiting statement itself are pre-suspension "
       "and stay clean.",
       "auto it = sessions_.find(id);\n"
       "co_await backend.query(*it);\n"
       "it->second.touch();  // it may have been invalidated",
       "Re-derive the iterator after the co_await, or copy the element "
       "out before suspending."},
      {"coroutine.use-after-move",
       "a local read after std::move without rebinding — moved-from "
       "objects are valid but unspecified",
       "Reading a moved-from object gives an unspecified value, so the "
       "same seed can produce different output across compilers or "
       "optimization levels — a determinism bug as much as a correctness "
       "one. The CFG-based reaching analysis also catches the loop shape "
       "(moving the same binding on every iteration). Validity probes "
       "(`if (ptr)`, `== nullptr`) and rebinding calls (clear/reset/"
       "assign/swap) are recognized as safe.",
       "send(std::move(row));\n"
       "log(row.name);  // unspecified",
       "Rebind the variable before reuse, or restructure so each binding "
       "is moved exactly once (e.g. construct inside the loop)."},
      {"coroutine.ref-param-detached",
       "locals/temporaries must not bind to reference parameters of "
       "detach-spawned coroutines",
       "A detached coroutine's reference parameters must outlive every "
       "suspension; binding a local or temporary gives a dangling "
       "reference as soon as the spawning scope returns.",
       "void kick(sim::Simulation& s) { Req r; s.spawn(handle(r)); }",
       "Pass by value (the frame copies it), or keep the object alive in "
       "a container owned by the caller for the coroutine's lifetime."},
      {"shard.unguarded-post-horizon",
       "post() in a function with no lookahead/horizon term near the "
       "deliver_at",
       "Conservative lookahead is the engine's whole correctness "
       "argument: a window [W, W+L) may run shards in any order only "
       "because no message can arrive inside it. post() enforces "
       "deliver_at >= window end by throwing; this rule catches call "
       "sites that never consulted the horizon, before the run does.",
       "group->post(me, peer, {sim.now(), uid, ...});  // now() < horizon!",
       "Derive deliver_at as now() + lookahead (the group's lookahead() "
       "accessor), or hoist `at = now() + lookahead_` in the same "
       "function."},
      {"shard.direct-deliver",
       "calling deliver() on a runner directly instead of posting through "
       "the group",
       "The mailbox sorts messages into the canonical (deliver_at, uid, "
       "seq) order at the barrier. A direct deliver() injects a message "
       "in call order — whatever order this shard happened to run — so "
       "results change with the shard count.",
       "peer_runner->deliver(msg);",
       "group->post(from, to, msg) and let the barrier merge it."},
      {"shard.peer-runner-write",
       "writing another runner's state directly instead of posting a "
       "message",
       "All cross-shard influence must travel as messages so the "
       "lookahead bound sees it. A direct field write lands immediately — "
       "invisible to the horizon — and its timing depends on which shard "
       "ran first. Reads are allowed: owner-side aggregation between "
       "run() calls (every shard quiesced) is the supported pattern.",
       "shards_[peer]->completions.clear();  // from another runner",
       "post() a message and apply the mutation in the target's "
       "deliver()."},
      {"shard.sender-dependent-order",
       "a ShardMessage comparator that reads .from",
       "Merge order must be a pure function of (deliver_at, uid, seq). "
       "Sender shard identity changes when users are repartitioned across "
       "a different shard count, so ordering on .from breaks the 'same "
       "results for any shard count' guarantee.",
       "bool before(const ShardMessage& a, const ShardMessage& b) {\n"
       "  return a.from < b.from; }",
       "Order on (deliver_at, uid, seq) only (see shard_message_before)."},
      {"lint.bare-suppression",
       "suppression comments must carry a justification after '--'",
       "An escape hatch without a recorded reason rots: nobody can later "
       "tell whether it is still needed. Unjustified markers silence "
       "nothing and are themselves findings.",
       "// gridmon-lint: suppress(determinism.wall-clock)",
       "Append ' -- <why this one is safe>' to the marker."},
      {"lint.unused-suppression",
       "suppression comments that silence nothing must be removed",
       "A suppression whose diagnostic has since been fixed (or that "
       "never matched) is debt with no principal; leaving it around hides "
       "future regressions on that line.",
       "// a suppress marker on a line with no finding",
       "Delete the marker (the budget gate will want regenerating)."},
  };
}

namespace {

FileAnalysis analyze_model(const std::string& path, const Model& m,
                           const Options& opts) {
  std::vector<Diagnostic> raw;
  check_determinism(path, m, raw);
  check_iteration(path, m, raw);
  check_coroutine(path, m, raw);
  check_shard(path, m, raw);
  check_lifetime(path, m, raw);
  check_taint(path, m, opts.project, raw);
  if (opts.project != nullptr) {
    check_transitive(path, m, *opts.project, raw);
  }

  FileAnalysis result;
  std::vector<Diagnostic> out;
  for (Diagnostic& d : raw) {
    if (!check_enabled(d.check, opts)) continue;
    bool suppressed = false;
    for (const Suppression& s : m.suppressions) {
      if (s.applies_line != d.line) continue;
      bool matches = prefix_matches(s.check_prefix, d.check);
      if (!matches) continue;
      s.used = true;
      if (s.justification.empty()) {
        // An unjustified suppression is itself a violation AND does not
        // silence anything: the zero-finding gate requires every escape
        // hatch to explain itself.
        continue;
      }
      suppressed = true;
    }
    if (!suppressed) out.push_back(std::move(d));
  }

  for (const Suppression& s : m.suppressions) {
    if (s.justification.empty()) {
      if (check_enabled("lint.bare-suppression", opts)) {
        out.push_back({path, s.comment_line, 1, "lint.bare-suppression",
                       "suppression without a justification; write "
                       "'// gridmon-lint: suppress(<check>) -- <why>'",
                       ""});
      }
    } else {
      // Every justified suppression is counted debt, used or not (an
      // unused one additionally fails the gate below, so the count can
      // never silently include dead markers).
      ++result.suppressions_by_family[family_of(s.check_prefix)];
      if (!s.used && check_enabled("lint.unused-suppression", opts)) {
        out.push_back({path, s.comment_line, 1, "lint.unused-suppression",
                       "suppression matches no diagnostic on its line; "
                       "remove it so the escape hatch stays meaningful",
                       ""});
      }
    }
  }

  std::sort(out.begin(), out.end(), [](const Diagnostic& a,
                                       const Diagnostic& b) {
    if (a.line != b.line) return a.line < b.line;
    if (a.col != b.col) return a.col < b.col;
    return a.check < b.check;
  });
  result.diagnostics = std::move(out);
  return result;
}

}  // namespace

FileAnalysis analyze_source_full(const std::string& path,
                                 const std::string& source,
                                 const Options& opts,
                                 const std::string& sibling_header) {
  LexResult lexed = lex(source);
  LexResult sibling;
  if (!sibling_header.empty()) sibling = lex(sibling_header);
  Model m = build_model(lexed, sibling_header.empty() ? nullptr : &sibling);
  return analyze_model(path, m, opts);
}

std::vector<Diagnostic> analyze_source(const std::string& path,
                                       const std::string& source,
                                       const Options& opts,
                                       const std::string& sibling_header) {
  return analyze_source_full(path, source, opts, sibling_header).diagnostics;
}

FileAnalysis analyze_file_full(const std::string& path, const Options& opts) {
  std::string source = read_file(path);
  std::string sibling;
  fs::path p(path);
  if (p.extension() == ".cpp") {
    fs::path header = p;
    header.replace_extension(".hpp");
    std::error_code ec;
    if (fs::exists(header, ec)) sibling = read_file(header.string());
  }
  return analyze_source_full(path, source, opts, sibling);
}

std::vector<Diagnostic> analyze_file(const std::string& path,
                                     const Options& opts) {
  return analyze_file_full(path, opts).diagnostics;
}

std::map<std::string, int> parse_suppression_budget(const std::string& text) {
  std::map<std::string, int> out;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss(line);
    std::string family, extra;
    int count = -1;
    // Note: a failed >> writes 0 (not "leaves untouched") since C++11, so
    // the stream state — not the sentinel — is the failure signal.
    if (!(ss >> family >> count) || count < 0 || (ss >> extra)) {
      throw std::runtime_error("malformed budget line " +
                               std::to_string(lineno) + ": '" + line + "'");
    }
    out[family] = count;
  }
  return out;
}

std::string format_suppression_budget(
    const std::map<std::string, int>& counts) {
  std::ostringstream out;
  out << "# gridmon_lint suppression budget: justified inline suppressions\n"
         "# per check family across the linted tree. The gate is strict\n"
         "# equality — adding OR removing a suppression fails until this\n"
         "# file is regenerated (--write-suppression-budget), so every\n"
         "# change in escape-hatch debt is a reviewable diff.\n";
  for (const auto& [family, count] : counts) {
    out << family << " " << count << "\n";
  }
  return out.str();
}

std::vector<std::string> collect_sources(const std::string& root) {
  std::vector<std::string> out;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(root, ec), end; it != end;
       it.increment(ec)) {
    if (ec) break;
    if (!it->is_regular_file()) continue;
    auto ext = it->path().extension();
    if (ext == ".cpp" || ext == ".hpp" || ext == ".cc" || ext == ".h") {
      out.push_back(it->path().string());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace gridmon::lint
