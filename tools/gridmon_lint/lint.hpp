#pragma once

/// \file lint.hpp
/// Public interface of gridmon_lint, the gridmon-specific determinism and
/// coroutine-safety analyzer. The analyzer is a self-contained C++ frontend
/// (lexer + lightweight structural analysis) so it runs in any environment
/// with nothing but the C++ toolchain (see docs/STATIC_ANALYSIS.md).
///
/// Every check exists to defend one contract: **a gridmon run is a pure
/// function of its seed**. Simulated time comes from sim::Simulation::now(),
/// randomness from the explicitly seeded sim::Rng, and nothing
/// implementation-defined (hash-bucket order, wall clocks, ambient PRNGs)
/// may leak into event scheduling or output.

#include <map>
#include <string>
#include <utility>
#include <vector>

namespace gridmon::lint {

struct ProjectIndex;  // cross-TU symbol index (index.hpp)

/// One step of a flow witness: the def → suspension → use (or source →
/// flow → sink) chain a flow-sensitive finding rests on. Steps render in
/// text output as indented "note:" lines and in SARIF as a codeFlow.
struct WitnessStep {
  std::string file;
  int line = 0;
  int col = 0;
  std::string note;
};

/// One finding. `check` is a dotted id (family.rule), e.g.
/// "determinism.wall-clock"; `message` is human-readable; `suggestion`
/// (optional) is a safe replacement hint printed under the finding.
/// `path` (optional) is the witness chain for flow-sensitive findings.
struct Diagnostic {
  std::string file;
  int line = 0;
  int col = 0;
  std::string check;
  std::string message;
  std::string suggestion;
  std::vector<WitnessStep> path;

  Diagnostic() = default;
  Diagnostic(std::string file_, int line_, int col_, std::string check_,
             std::string message_, std::string suggestion_ = {})
      : file(std::move(file_)), line(line_), col(col_),
        check(std::move(check_)), message(std::move(message_)),
        suggestion(std::move(suggestion_)) {}
};

/// Analyzer options (a subset of the CLI surface; see main.cpp).
struct Options {
  /// Check-id prefixes to run; empty means all. "determinism" enables the
  /// whole family, "coroutine.ref-capture" exactly one rule.
  std::vector<std::string> enabled_checks;
  /// When set, the interprocedural checks run against this resolved
  /// cross-TU index (--project mode); when null only per-file checks run.
  const ProjectIndex* project = nullptr;
};

/// One rule's catalogue entry. `summary` is the one-liner (--list-checks);
/// `contract`, `example`, and `fix` feed --explain and the docs — the same
/// table backs all three so they cannot drift apart.
struct CheckInfo {
  const char* id;
  const char* summary;
  const char* contract;  // the invariant the rule defends, and why
  const char* example;   // a minimal violating snippet
  const char* fix;       // the idiomatic repair
};
std::vector<CheckInfo> all_checks();

/// Result of analyzing one file: the findings plus the file's justified
/// suppression count per check family ("determinism", "iteration", ...),
/// which the suppression-debt budget aggregates.
struct FileAnalysis {
  std::vector<Diagnostic> diagnostics;
  std::map<std::string, int> suppressions_by_family;
};

/// Analyze one file (path is used for reporting and path exemptions;
/// `source` is the file contents). Diagnostics already filtered through
/// inline suppressions; unused or unjustified suppressions are themselves
/// reported (lint.bare-suppression / lint.unused-suppression).
///
/// `sibling_header` may carry the contents of the matching .hpp when
/// analyzing a .cpp, so declarations (e.g. an unordered_map member) visible
/// to the implementation file participate in type resolution.
std::vector<Diagnostic> analyze_source(const std::string& path,
                                       const std::string& source,
                                       const Options& opts,
                                       const std::string& sibling_header = {});

/// As analyze_source, but also reports the justified-suppression counts
/// the debt budget consumes.
FileAnalysis analyze_source_full(const std::string& path,
                                 const std::string& source,
                                 const Options& opts,
                                 const std::string& sibling_header = {});

/// Analyze a file on disk (loads the sibling header automatically).
std::vector<Diagnostic> analyze_file(const std::string& path,
                                     const Options& opts);
FileAnalysis analyze_file_full(const std::string& path, const Options& opts);

/// Suppression-debt budget file: '<family> <count>' lines, '#' comments.
/// Throws std::runtime_error on a malformed line. The gate is strict
/// equality in both directions — new debt AND paid-down debt must land
/// with a regenerated budget, so every change to the escape-hatch count
/// is a reviewable diff (see docs/STATIC_ANALYSIS.md).
std::map<std::string, int> parse_suppression_budget(const std::string& text);
std::string format_suppression_budget(
    const std::map<std::string, int>& counts);

/// Serialize findings as SARIF 2.1.0 (one run, rule metadata from
/// all_checks()) for CI annotation upload.
std::string sarif_report(const std::vector<Diagnostic>& findings);

/// Recursively collect .hpp/.cpp files under `root`, sorted (deterministic
/// walk order — the linter practices what it preaches).
std::vector<std::string> collect_sources(const std::string& root);

}  // namespace gridmon::lint
