/// \file main.cpp
/// CLI driver for gridmon_lint. Exit codes: 0 clean, 1 findings (or budget
/// mismatch), 2 usage or I/O error. See docs/STATIC_ANALYSIS.md for the
/// rule catalogue and the two-pass project mode.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "index.hpp"
#include "lint.hpp"

namespace {

using gridmon::lint::Diagnostic;
using gridmon::lint::Options;

int usage(std::ostream& os, int code) {
  os << "usage: gridmon_lint [options] [file-or-dir...]\n"
        "\n"
        "gridmon-specific determinism & coroutine-safety analyzer.\n"
        "\n"
        "  --exclude <substr>        drop paths containing <substr>\n"
        "                            (repeatable, so a dir walk can skip\n"
        "                            its fixture trees)\n"
        "  --checks <a,b,...>        run only checks with these id prefixes\n"
        "  --project                 two-pass mode: index every input file\n"
        "                            (cross-TU call graph), then run the\n"
        "                            interprocedural checks too\n"
        "  --sarif <file>            also write findings as SARIF 2.1.0\n"
        "  --suppression-budget <f>  enforce the per-family suppression\n"
        "                            debt budget (strict equality)\n"
        "  --write-suppression-budget <f>  regenerate the budget file\n"
        "  --explain <check-id>      print a rule's contract, a violating\n"
        "                            example, and the idiomatic fix\n"
        "  --list-checks             print the rule catalogue\n"
        "  -q, --quiet               summary only\n"
        "  -h, --help                this text\n";
  return code;
}

int explain(const std::string& id) {
  for (const auto& c : gridmon::lint::all_checks()) {
    if (id != c.id) continue;
    std::cout << c.id << "\n  " << c.summary << "\n\ncontract:\n  "
              << c.contract << "\n\nexample:\n";
    std::istringstream ex(c.example);
    std::string line;
    while (std::getline(ex, line)) std::cout << "    " << line << "\n";
    std::cout << "\nfix:\n  " << c.fix << "\n";
    return 0;
  }
  std::cerr << "gridmon_lint: unknown check id '" << id
            << "' (see --list-checks)\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  std::vector<std::string> inputs;
  std::vector<std::string> excludes;
  std::string sarif_path, budget_path, write_budget;
  bool quiet = false, project = false;

  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto need_value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "gridmon_lint: " << flag << " needs a value\n";
        std::exit(usage(std::cerr, 2));
      }
      return argv[++i];
    };
    if (a == "-h" || a == "--help") return usage(std::cout, 0);
    if (a == "--list-checks") {
      for (const auto& c : gridmon::lint::all_checks()) {
        std::cout << c.id << "\n    " << c.summary << "\n";
      }
      return 0;
    }
    if (a == "--explain") return explain(need_value("--explain"));
    if (a == "--exclude") {
      excludes.push_back(need_value("--exclude"));
    } else if (a == "--checks") {
      std::stringstream ss(need_value("--checks"));
      std::string item;
      while (std::getline(ss, item, ',')) {
        if (!item.empty()) opts.enabled_checks.push_back(item);
      }
    } else if (a == "--project") {
      project = true;
    } else if (a == "--sarif") {
      sarif_path = need_value("--sarif");
    } else if (a == "--suppression-budget") {
      budget_path = need_value("--suppression-budget");
    } else if (a == "--write-suppression-budget") {
      write_budget = need_value("--write-suppression-budget");
    } else if (a == "-q" || a == "--quiet") {
      quiet = true;
    } else if (!a.empty() && a[0] == '-') {
      std::cerr << "gridmon_lint: unknown option " << a << "\n";
      return usage(std::cerr, 2);
    } else {
      inputs.push_back(a);
    }
  }

  // Resolve the file set: explicit files + dir walks.
  std::vector<std::string> files;
  try {
    for (const std::string& in : inputs) {
      std::error_code ec;
      if (std::filesystem::is_directory(in, ec)) {
        for (auto& f : gridmon::lint::collect_sources(in)) {
          files.push_back(std::move(f));
        }
      } else {
        files.push_back(in);
      }
    }
    std::sort(files.begin(), files.end());
    files.erase(std::unique(files.begin(), files.end()), files.end());
  } catch (const std::exception& e) {
    std::cerr << "gridmon_lint: " << e.what() << "\n";
    return 2;
  }
  if (!excludes.empty()) {
    std::erase_if(files, [&](const std::string& f) {
      for (const std::string& s : excludes) {
        if (f.find(s) != std::string::npos) return true;
      }
      return false;
    });
  }
  if (files.empty()) {
    std::cerr << "gridmon_lint: no input files\n";
    return usage(std::cerr, 2);
  }

  // Pass 1 (project mode): index every input, resolve the call graph.
  gridmon::lint::ProjectIndex index;
  if (project) {
    index = gridmon::lint::build_project_index(files);
    opts.project = &index;
  }

  std::vector<Diagnostic> findings;
  std::map<std::string, int> suppression_counts;
  int analyzed = 0;
  for (const std::string& f : files) {
    try {
      auto analysis = gridmon::lint::analyze_file_full(f, opts);
      ++analyzed;
      for (Diagnostic& d : analysis.diagnostics) {
        findings.push_back(std::move(d));
      }
      for (const auto& [family, count] : analysis.suppressions_by_family) {
        suppression_counts[family] += count;
      }
    } catch (const std::exception& e) {
      std::cerr << "gridmon_lint: " << e.what() << "\n";
      return 2;
    }
  }

  if (!write_budget.empty()) {
    std::ofstream out(write_budget);
    if (!out) {
      std::cerr << "gridmon_lint: cannot write " << write_budget << "\n";
      return 2;
    }
    out << gridmon::lint::format_suppression_budget(suppression_counts);
    std::cout << "wrote suppression budget ("
              << suppression_counts.size() << " families) to "
              << write_budget << "\n";
    return 0;
  }

  bool budget_failed = false;
  if (!budget_path.empty()) {
    std::ifstream in(budget_path);
    if (!in) {
      std::cerr << "gridmon_lint: cannot read budget " << budget_path
                << "\n";
      return 2;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    std::map<std::string, int> budget;
    try {
      budget = gridmon::lint::parse_suppression_budget(ss.str());
    } catch (const std::exception& e) {
      std::cerr << "gridmon_lint: " << budget_path << ": " << e.what()
                << "\n";
      return 2;
    }
    // Strict equality both ways: new debt must be budgeted, paid-down
    // debt must shrink the budget — either drift is a failure until the
    // file is regenerated, so the diff review sees it.
    std::set<std::string> families;
    for (const auto& [f, c] : budget) families.insert(f);
    for (const auto& [f, c] : suppression_counts) families.insert(f);
    for (const std::string& fam : families) {
      auto bit = budget.find(fam);
      auto ait = suppression_counts.find(fam);
      int budgeted = bit == budget.end() ? 0 : bit->second;
      int actual = ait == suppression_counts.end() ? 0 : ait->second;
      if (budgeted == actual) continue;
      budget_failed = true;
      std::cout << "gridmon_lint: suppression budget mismatch: family '"
                << fam << "' has " << actual << " justified suppression"
                << (actual == 1 ? "" : "s") << " but the budget says "
                << budgeted << "\n";
    }
    if (budget_failed) {
      std::cout << "gridmon_lint: if the change in debt is intentional, "
                   "regenerate with --write-suppression-budget "
                << budget_path << "\n";
    }
  }

  if (!sarif_path.empty()) {
    std::ofstream out(sarif_path);
    if (!out) {
      std::cerr << "gridmon_lint: cannot write " << sarif_path << "\n";
      return 2;
    }
    out << gridmon::lint::sarif_report(findings);
  }

  if (!quiet) {
    for (const Diagnostic& d : findings) {
      std::cout << d.file << ":" << d.line << ":" << d.col << ": error: "
                << d.message << " [" << d.check << "]\n";
      for (const auto& step : d.path) {
        std::cout << "    note: "
                  << (step.file.empty() ? d.file : step.file) << ":"
                  << step.line << ":" << step.col << ": " << step.note
                  << "\n";
      }
      if (!d.suggestion.empty()) {
        std::cout << "    fix: " << d.suggestion << "\n";
      }
    }
  }
  std::cout << "gridmon_lint: " << analyzed << " files, " << findings.size()
            << " finding" << (findings.size() == 1 ? "" : "s") << "\n";
  return (findings.empty() && !budget_failed) ? 0 : 1;
}
