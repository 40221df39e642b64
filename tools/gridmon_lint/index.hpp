#pragma once

/// \file index.hpp
/// Pass 1 of the project-wide analyzer: a cross-TU symbol index. Every
/// translation unit contributes one IndexedFunc per function definition —
/// which nondeterministic sinks its body touches *directly* (honoring
/// justified inline suppressions, so a documented escape hatch does not
/// taint every caller), which functions it calls, and whether it returns an
/// unordered container. callgraph.cpp then resolves the call graph over
/// these facts so pass 2 can flag a caller whose nondeterminism lives in a
/// different file (see docs/STATIC_ANALYSIS.md, "Two passes").
///
/// Resolution is by unqualified name, the only identity a token-level
/// frontend has. The conflict policy errs toward silence: a name defined in
/// several TUs carries a fact only when EVERY definition carries it, so an
/// overload set with one innocuous member never flags a call site.

#include <map>
#include <set>
#include <string>
#include <vector>

#include "model.hpp"

namespace gridmon::lint {

/// A parameter-forwarding edge: our parameter `param` is passed as argument
/// `arg` of `callee`. The taint fixpoint composes these to find parameters
/// that reach a simulation sink any number of calls away.
struct ParamCall {
  int param = 0;
  std::string callee;
  int arg = 0;
};

/// One function definition's pass-1 facts.
struct IndexedFunc {
  std::string name;  // unqualified
  std::string file;
  int line = 0;
  bool wall_clock_sink = false;  // body reads a machine clock (unsuppressed)
  bool rng_sink = false;         // body uses an ambient PRNG (unsuppressed)
  bool returns_unordered = false;  // return type is an unordered container
  std::string wall_label;  // the sink token, e.g. "std::chrono::steady_clock"
  std::string rng_label;   // e.g. "std::random_device"
  std::vector<std::string> callees;  // sorted unique unqualified names

  // Flow-sensitive taint summary (extract_taint_facts in check_taint.cpp):
  // which nondeterminism bits (dataflow.hpp kTaint*) the return value
  // carries directly, which callees' returns flow into ours, which
  // parameters flow directly into a sim-state sink, and which parameters
  // are forwarded into callees. The fixpoints in resolve_index compose
  // these into the cross-TU maps below.
  unsigned taint_return = 0;
  std::string taint_label;  // source witness, e.g. "std::getenv"
  std::vector<std::string> return_calls;  // sorted unique
  std::vector<int> sink_params;           // sorted unique param indices
  std::vector<ParamCall> param_calls;     // sorted (param, callee, arg)
};

/// A name's resolved transitive facts. depth 0 = the definition itself is
/// a sink; k = reaches one through k calls. `via` is a witness chain for
/// the diagnostic message ("helper -> wall_now -> std::chrono::...").
struct TransFact {
  int wall_depth = -1;  // -1 = does not reach
  int rng_depth = -1;
  std::string wall_via;
  std::string rng_via;
};

struct ProjectIndex {
  /// All definitions, grouped by unqualified name.
  std::map<std::string, std::vector<IndexedFunc>> funcs;
  /// Resolved facts per name (populated by resolve_index).
  std::map<std::string, TransFact> facts;
  /// Names whose every definition returns an unordered container.
  std::set<std::string> unordered_returning;
  /// Resolved return-taint bits per name (every definition carries them),
  /// with a source witness chain per tainted name.
  std::map<std::string, unsigned> taint_returns;
  std::map<std::string, std::string> taint_vias;
  /// Resolved parameter indices that reach a sim-state sink (again: in
  /// every definition) per name.
  std::map<std::string, std::set<int>> sinking_params;

  /// The resolved fact for a callee name, or nullptr when unknown/clean.
  const TransFact* fact(const std::string& name) const;
  /// True when `name` has at least one definition recorded in `file`.
  bool defined_in(const std::string& name, const std::string& file) const;
  /// True when `name` has at least one definition anywhere.
  bool known(const std::string& name) const;
  /// Resolved return-taint bits for a callee name (0 = clean/unknown).
  unsigned taint_of(const std::string& name) const;
  /// Witness chain for a tainted name ("helper -> std::getenv"), or "".
  std::string taint_via(const std::string& name) const;
  /// True when argument position `arg` of `name` flows into a sim sink.
  bool param_sinks(const std::string& name, int arg) const;
};

/// Extract pass-1 facts for every function defined in one file's model.
std::vector<IndexedFunc> index_file(const std::string& path, const Model& m);

/// Lex + model + index every file, then resolve the call graph. The
/// entry point for tests and the CLI.
ProjectIndex build_project_index(const std::vector<std::string>& files);

}  // namespace gridmon::lint
