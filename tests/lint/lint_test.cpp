/// Fixture self-tests for gridmon_lint. Each fixture under
/// tests/lint/fixtures/ is paired with a `<fixture>.expected` file listing
/// `line:check-id` per expected diagnostic (empty file = must be clean);
/// the tests fail with a readable diff when the analyzer drifts. A final
/// test runs the analyzer over the real src/gridmon tree and asserts the
/// zero-finding gate CI enforces.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "index.hpp"
#include "lint.hpp"

namespace fs = std::filesystem;
using gridmon::lint::Diagnostic;
using gridmon::lint::Options;

namespace {

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  EXPECT_TRUE(in) << "cannot read " << p;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// "line:check-id" pairs, sorted — column numbers are deliberately not part
/// of the contract so fixtures stay editable.
using Expectation = std::pair<int, std::string>;

std::vector<Expectation> parse_expected(const fs::path& p) {
  std::vector<Expectation> out;
  std::istringstream in(read_file(p));
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    auto colon = line.find(':');
    if (colon == std::string::npos) {
      ADD_FAILURE() << p << ": bad line '" << line << "'";
      continue;
    }
    out.emplace_back(std::stoi(line.substr(0, colon)), line.substr(colon + 1));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Expectation> actual_pairs(const std::vector<Diagnostic>& diags) {
  std::vector<Expectation> out;
  for (const Diagnostic& d : diags) out.emplace_back(d.line, d.check);
  std::sort(out.begin(), out.end());
  return out;
}

std::string render(const std::vector<Expectation>& v) {
  std::ostringstream ss;
  for (const auto& [line, check] : v) ss << "  " << line << ":" << check << "\n";
  return ss.str().empty() ? "  (none)\n" : ss.str();
}

fs::path fixture_dir() { return fs::path(GRIDMON_LINT_FIXTURE_DIR); }

void run_fixture(const std::string& name) {
  fs::path src = fixture_dir() / name;
  fs::path exp = fixture_dir() / (name + ".expected");
  ASSERT_TRUE(fs::exists(src)) << src;
  ASSERT_TRUE(fs::exists(exp)) << exp;
  SCOPED_TRACE(exp.string());
  std::vector<Expectation> expected = parse_expected(exp);
  auto actual =
      actual_pairs(gridmon::lint::analyze_file(src.string(), Options{}));
  EXPECT_EQ(actual, expected) << "fixture " << name << "\nexpected:\n"
                              << render(expected) << "actual:\n"
                              << render(actual);
}

}  // namespace

TEST(LintFixtures, DeterminismPositive) { run_fixture("determinism_pos.cpp"); }
TEST(LintFixtures, DeterminismNegative) { run_fixture("determinism_neg.cpp"); }
TEST(LintFixtures, IterationPositive) { run_fixture("iteration_pos.cpp"); }
TEST(LintFixtures, IterationNegative) { run_fixture("iteration_neg.cpp"); }
TEST(LintFixtures, CoroutinePositive) { run_fixture("coroutine_pos.cpp"); }
TEST(LintFixtures, CoroutineNegative) { run_fixture("coroutine_neg.cpp"); }
TEST(LintFixtures, Suppression) { run_fixture("suppression.cpp"); }
TEST(LintFixtures, ShardPositive) { run_fixture("shard_pos.cpp"); }
TEST(LintFixtures, ShardNegative) { run_fixture("shard_neg.cpp"); }
TEST(LintFixtures, StaleRefPositive) { run_fixture("stale_ref_pos.cpp"); }
TEST(LintFixtures, StaleRefNegative) { run_fixture("stale_ref_neg.cpp"); }
TEST(LintFixtures, UseAfterMovePositive) {
  run_fixture("use_after_move_pos.cpp");
}
TEST(LintFixtures, UseAfterMoveNegative) {
  run_fixture("use_after_move_neg.cpp");
}
TEST(LintFixtures, TaintPositive) { run_fixture("taint_pos.cpp"); }
TEST(LintFixtures, TaintNegative) { run_fixture("taint_neg.cpp"); }

// Every fixture on disk must be exercised: adding a fixture without a test
// (or an .expected without a fixture) is itself a failure.
TEST(LintFixtures, AllFixturesCovered) {
  const std::vector<std::string> covered = {
      "determinism_pos.cpp",    "determinism_neg.cpp",
      "iteration_pos.cpp",      "iteration_neg.cpp",
      "coroutine_pos.cpp",      "coroutine_neg.cpp",
      "suppression.cpp",        "shard_pos.cpp",
      "shard_neg.cpp",          "stale_ref_pos.cpp",
      "stale_ref_neg.cpp",      "use_after_move_pos.cpp",
      "use_after_move_neg.cpp", "taint_pos.cpp",
      "taint_neg.cpp"};
  for (const auto& entry : fs::directory_iterator(fixture_dir())) {
    fs::path p = entry.path();
    if (p.extension() != ".cpp") continue;
    EXPECT_NE(std::find(covered.begin(), covered.end(),
                        p.filename().string()),
              covered.end())
        << "fixture " << p.filename() << " has no test";
  }
  for (const std::string& name : covered) {
    EXPECT_TRUE(fs::exists(fixture_dir() / name)) << name;
    EXPECT_TRUE(fs::exists(fixture_dir() / (name + ".expected"))) << name;
  }
}

// The acceptance gate: seeding a determinism violation into otherwise-clean
// source must produce a finding (this is what makes the CI lint job fail on
// a regression).
TEST(LintGate, SeededViolationIsCaught) {
  const std::string clean = R"cpp(
    double now_seconds(const sim::Simulation& s) { return s.now(); }
  )cpp";
  EXPECT_TRUE(
      gridmon::lint::analyze_source("seed.cpp", clean, Options{}).empty());

  const std::string seeded = R"cpp(
    #include <chrono>
    double now_seconds() {
      return std::chrono::duration<double>(
          std::chrono::steady_clock::now().time_since_epoch()).count();
    }
  )cpp";
  auto diags = gridmon::lint::analyze_source("seed.cpp", seeded, Options{});
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].check, "determinism.wall-clock");
  EXPECT_FALSE(diags[0].suggestion.empty());
}

TEST(LintGate, BannedNamesInsideStringsAndCommentsIgnored) {
  const std::string src = R"cpp(
    // rand() and std::chrono::system_clock in a comment are fine.
    const char* kDoc = "call rand() then time(nullptr)";
    const char* kRaw = R"(std::random_device inside a raw string)";
  )cpp";
  EXPECT_TRUE(
      gridmon::lint::analyze_source("strings.cpp", src, Options{}).empty());
}

TEST(LintGate, CheckFilterRestrictsFamilies) {
  const std::string src = R"cpp(
    #include <cstdlib>
    #include <chrono>
    int f() {
      auto t = std::chrono::system_clock::now();
      (void)t;
      return rand();
    }
  )cpp";
  Options only_rng;
  only_rng.enabled_checks = {"determinism.ambient-rng"};
  auto diags = gridmon::lint::analyze_source("filter.cpp", src, only_rng);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].check, "determinism.ambient-rng");
}

TEST(LintGate, SiblingHeaderDeclarationsParticipate) {
  const std::string header = R"cpp(
    #include <unordered_map>
    struct Registry {
      std::unordered_map<int, int> load_;
      int sum() const;
    };
  )cpp";
  const std::string source = R"cpp(
    int Registry::sum() const {
      int total = 0;
      for (const auto& kv : load_) total += kv.second;
      return total;
    }
  )cpp";
  auto diags =
      gridmon::lint::analyze_source("registry.cpp", source, Options{}, header);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].check, "iteration.unordered-range-for");
}

// Pass 1 + pass 2 across a translation-unit boundary: caller.cpp is clean
// in isolation — every fact it needs lives in sinks.cpp. The fixpoint must
// carry depth-0 sink facts through one hop (stamp -> wall_now) and two
// hops (jitter -> seed_from_wall -> ambient_draw), and the unordered
// return type of snapshot() must flag the range-for at its call site.
TEST(LintCrossTU, FactsResolveAcrossFiles) {
  fs::path dir = fixture_dir() / "xtu";
  std::vector<std::string> files = {(dir / "caller.cpp").string(),
                                    (dir / "sinks.cpp").string()};
  auto index = gridmon::lint::build_project_index(files);

  const auto* wall = index.fact("wall_now");
  ASSERT_NE(wall, nullptr);
  EXPECT_EQ(wall->wall_depth, 0);
  const auto* stamp = index.fact("stamp");
  ASSERT_NE(stamp, nullptr);
  EXPECT_EQ(stamp->wall_depth, 1);
  EXPECT_NE(stamp->wall_via.find("wall_now"), std::string::npos);
  const auto* jitter = index.fact("jitter");
  ASSERT_NE(jitter, nullptr);
  EXPECT_EQ(jitter->rng_depth, 2);
  EXPECT_NE(jitter->rng_via.find("ambient_draw"), std::string::npos);
  EXPECT_EQ(index.unordered_returning.count("snapshot"), 1u);

  Options solo;
  EXPECT_TRUE(gridmon::lint::analyze_file(files[0], solo).empty())
      << "caller.cpp must be clean without the project index";
  Options project;
  project.project = &index;
  auto actual = actual_pairs(gridmon::lint::analyze_file(files[0], project));
  std::vector<Expectation> expected = {
      {8, "determinism.transitive-wall-clock"},
      {10, "determinism.transitive-ambient-rng"},
      {16, "iteration.unordered-return-leak"}};
  EXPECT_EQ(actual, expected) << "expected:\n"
                              << render(expected) << "actual:\n"
                              << render(actual);
}

// Return-taint summaries across a TU boundary: taint_caller.cpp has no
// getenv spelling of its own, so it is clean in isolation; with the
// project index the env_users()/scaled_users() summaries from
// taint_source.cpp reach its sim.spawn() sinks. seed_clean() proves the
// imported taint still dies at a re-definition — the flow sensitivity
// survives the import.
TEST(LintCrossTU, TaintFlowsAcrossFiles) {
  fs::path dir = fixture_dir() / "xtu";
  std::vector<std::string> files = {(dir / "taint_caller.cpp").string(),
                                    (dir / "taint_source.cpp").string()};
  auto index = gridmon::lint::build_project_index(files);

  EXPECT_NE(index.taint_of("env_users"), 0u);
  EXPECT_NE(index.taint_via("env_users").find("getenv"), std::string::npos);
  EXPECT_NE(index.taint_of("scaled_users"), 0u)
      << "summary fixpoint must compose env_users -> scaled_users";

  Options solo;
  EXPECT_TRUE(gridmon::lint::analyze_file(files[0], solo).empty())
      << "taint_caller.cpp must be clean without the project index";
  Options project;
  project.project = &index;
  auto actual = actual_pairs(gridmon::lint::analyze_file(files[0], project));
  std::vector<Expectation> expected = {
      {11, "determinism.tainted-sim-state"},
      {16, "determinism.tainted-sim-state"}};
  EXPECT_EQ(actual, expected) << "expected:\n"
                              << render(expected) << "actual:\n"
                              << render(actual);
}

// SARIF output: structurally 2.1.0, one rule entry per fired check id,
// results carrying the physical location CI annotates with.
TEST(LintSarif, ReportCarriesRulesAndLocations) {
  const std::string seeded = R"cpp(
    #include <chrono>
    double now_seconds() {
      return std::chrono::duration<double>(
          std::chrono::steady_clock::now().time_since_epoch()).count();
    }
  )cpp";
  auto diags = gridmon::lint::analyze_source("seed.cpp", seeded, Options{});
  ASSERT_EQ(diags.size(), 1u);
  std::string sarif = gridmon::lint::sarif_report(diags);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"name\": \"gridmon_lint\""), std::string::npos);
  EXPECT_NE(sarif.find("\"id\": \"determinism.wall-clock\""),
            std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"determinism.wall-clock\""),
            std::string::npos);
  EXPECT_NE(sarif.find("\"uri\": \"seed.cpp\""), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": " + std::to_string(diags[0].line)),
            std::string::npos);
  // Escaping: a quote and a backslash in the message must not break the
  // document (spot-check the escape sequences).
  Diagnostic hostile{"a\\b.cpp", 1, 1, "x.y", "say \"hi\"\nbye", ""};
  std::string escaped = gridmon::lint::sarif_report({hostile});
  EXPECT_NE(escaped.find("say \\\"hi\\\"\\nbye"), std::string::npos);
  EXPECT_NE(escaped.find("a\\\\b.cpp"), std::string::npos);
}

// The suppression-debt budget: the format round-trips, malformed input
// throws, and — the acceptance case — adding one justified suppression
// moves the measured family count off the checked-in budget, which the
// strict-equality gate rejects.
TEST(LintBudget, FormatRoundTrips) {
  std::map<std::string, int> counts = {
      {"coroutine", 11}, {"determinism", 9}, {"iteration", 2}};
  auto parsed = gridmon::lint::parse_suppression_budget(
      gridmon::lint::format_suppression_budget(counts));
  EXPECT_EQ(parsed, counts);
  EXPECT_TRUE(gridmon::lint::parse_suppression_budget("# only\n").empty());
}

TEST(LintBudget, MalformedLineThrows) {
  EXPECT_THROW(gridmon::lint::parse_suppression_budget("determinism many"),
               std::runtime_error);
  EXPECT_THROW(gridmon::lint::parse_suppression_budget("justaword"),
               std::runtime_error);
}

TEST(LintBudget, AddedSuppressionIsRejectedByStrictEquality) {
  const std::string with_escape_hatch = R"cpp(
    #include <chrono>
    // gridmon-lint: suppress(determinism.wall-clock) -- harness-only timer
    auto t0 = std::chrono::steady_clock::now();
  )cpp";
  auto fa = gridmon::lint::analyze_source_full("seed.cpp", with_escape_hatch,
                                               Options{});
  EXPECT_TRUE(fa.diagnostics.empty())
      << "the justified suppression must silence the finding";
  std::map<std::string, int> measured = {{"determinism", 1}};
  EXPECT_EQ(fa.suppressions_by_family, measured);
  // The committed budget says zero: the new suppression is debt the gate
  // refuses until the budget file is regenerated.
  auto budget = gridmon::lint::parse_suppression_budget("determinism 0\n");
  EXPECT_NE(budget, fa.suppressions_by_family);
}

// The rule catalogue backs --list-checks, --explain, and the SARIF rule
// metadata: every id is unique, dotted, and fully documented.
TEST(LintCatalogue, EveryCheckFullyDocumented) {
  auto checks = gridmon::lint::all_checks();
  EXPECT_EQ(checks.size(), 19u);
  std::vector<std::string> ids;
  for (const auto& c : checks) {
    ids.emplace_back(c.id);
    EXPECT_NE(ids.back().find('.'), std::string::npos) << c.id;
    EXPECT_FALSE(std::string(c.summary).empty()) << c.id;
    EXPECT_FALSE(std::string(c.contract).empty()) << c.id;
    EXPECT_FALSE(std::string(c.example).empty()) << c.id;
    EXPECT_FALSE(std::string(c.fix).empty()) << c.id;
  }
  auto sorted = ids;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end())
      << "duplicate check id";
  for (const char* required :
       {"determinism.transitive-wall-clock",
        "determinism.transitive-ambient-rng", "iteration.unordered-return-leak",
        "shard.unguarded-post-horizon", "shard.direct-deliver",
        "shard.peer-runner-write", "shard.sender-dependent-order",
        "lint.bare-suppression", "lint.unused-suppression"}) {
    EXPECT_NE(std::find(ids.begin(), ids.end(), required), ids.end())
        << required;
  }
}

// docs/STATIC_ANALYSIS.md's "Retired checks" table names each retired
// id with its runtime backstop; none of those ids may creep back into the
// catalogue, and none of the retired families may gain a new check.
TEST(LintCatalogue, RetiredChecksStayOutOfTheCatalogue) {
  const std::string doc = read_file(fs::path(GRIDMON_LINT_REPO_DIR) / "docs" /
                                    "STATIC_ANALYSIS.md");
  auto table = doc.find("## Retired checks");
  ASSERT_NE(table, std::string::npos);
  std::vector<std::string> retired;
  std::istringstream rows(doc.substr(table));
  std::string row;
  while (std::getline(rows, row)) {
    if (row.rfind("| `", 0) != 0) continue;
    auto end = row.find('`', 3);
    ASSERT_NE(end, std::string::npos) << row;
    retired.push_back(row.substr(3, end - 3));
  }
  EXPECT_EQ(retired.size(), 11u);
  for (const auto& c : gridmon::lint::all_checks()) {
    const std::string id = c.id;
    EXPECT_EQ(std::find(retired.begin(), retired.end(), id), retired.end())
        << id;
    for (const char* family :
         {"hotpath.", "store.", "resilience.", "spec.", "concurrency."}) {
      EXPECT_NE(id.rfind(family, 0), 0u) << id;
    }
  }
}

// A suppression that still names a retired check silences nothing, so
// the gate reports it as unused: a leftover marker cannot outlive its
// check unnoticed.
TEST(LintGate, SuppressionOfRetiredCheckIsUnused) {
  const std::string src = R"cpp(
    #include <vector>
    int total(const std::vector<std::vector<int>>& rows) {
      int n = 0;
      // gridmon-lint: suppress(hotpath.copy-loop) -- rows are tiny
      for (auto row : rows) n += static_cast<int>(row.size());
      return n;
    }
  )cpp";
  auto fa = gridmon::lint::analyze_source_full("retired.cpp", src, Options{});
  ASSERT_EQ(fa.diagnostics.size(), 1u);
  EXPECT_EQ(fa.diagnostics[0].check, "lint.unused-suppression");
  EXPECT_EQ(fa.diagnostics[0].line, 5);
}

// The zero-finding contract, enforced in-process so plain `ctest` catches a
// regression even when nobody runs the `lint` target: every source file in
// src/gridmon analyzes clean, and every suppression in the tree carries a
// justification (bare ones would surface as lint.bare-suppression above).
TEST(LintGate, SrcGridmonIsCleanWithEmptyBaseline) {
  fs::path root(GRIDMON_LINT_SRC_DIR);
  ASSERT_TRUE(fs::exists(root)) << root;
  auto files = gridmon::lint::collect_sources(root.string());
  ASSERT_GT(files.size(), 50u) << "src/gridmon walk looks wrong";
  EXPECT_TRUE(std::is_sorted(files.begin(), files.end()));
  std::size_t findings = 0;
  for (const std::string& f : files) {
    for (const Diagnostic& d : gridmon::lint::analyze_file(f, Options{})) {
      ADD_FAILURE() << d.file << ":" << d.line << ": " << d.message << " ["
                    << d.check << "]";
      ++findings;
    }
  }
  EXPECT_EQ(findings, 0u);
}

// The full project-mode gate, in-process: every linted tree (src/gridmon,
// bench, tools, examples) is clean under the cross-TU index, and the
// measured suppression debt matches the checked-in budget exactly — in
// both directions, so paid-down debt is surfaced too.
TEST(LintGate, LintedTreesCleanAndBudgetExact) {
  fs::path repo(GRIDMON_LINT_REPO_DIR);
  ASSERT_TRUE(fs::exists(repo)) << repo;
  std::vector<std::string> files;
  for (const char* dir :
       {"src/gridmon", "bench", "tools", "examples", "tests"}) {
    auto part = gridmon::lint::collect_sources((repo / dir).string());
    EXPECT_FALSE(part.empty()) << dir;
    files.insert(files.end(), part.begin(), part.end());
  }
  // The fixture tree is the lint suite's own positive cases — deliberate
  // violations, exercised file-by-file by AllFixturesCovered above.
  std::erase_if(files, [](const std::string& f) {
    return f.find("tests/lint/fixtures") != std::string::npos;
  });
  ASSERT_GT(files.size(), 150u) << "project walk looks wrong";

  auto index = gridmon::lint::build_project_index(files);
  Options opts;
  opts.project = &index;
  std::size_t findings = 0;
  std::map<std::string, int> measured;
  for (const std::string& f : files) {
    auto fa = gridmon::lint::analyze_file_full(f, opts);
    for (const Diagnostic& d : fa.diagnostics) {
      ADD_FAILURE() << d.file << ":" << d.line << ": " << d.message << " ["
                    << d.check << "]";
      ++findings;
    }
    for (const auto& [family, count] : fa.suppressions_by_family) {
      measured[family] += count;
    }
  }
  EXPECT_EQ(findings, 0u);

  auto budget = gridmon::lint::parse_suppression_budget(
      read_file(repo / "tools" / "gridmon_lint" / "suppression_budget.txt"));
  EXPECT_EQ(measured, budget)
      << "suppression debt drifted from tools/gridmon_lint/"
         "suppression_budget.txt; regenerate with --write-suppression-budget";
}
