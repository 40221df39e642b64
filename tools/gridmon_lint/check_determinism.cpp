#include "checks.hpp"

namespace gridmon::lint {
namespace {

bool is_ident(const Token& t, const char* s) {
  return t.kind == TokKind::Ident && t.text == s;
}

/// Banned std::chrono clocks: every one of them reads the machine, not the
/// simulation.
const char* kClocks[] = {"system_clock", "steady_clock",
                         "high_resolution_clock"};

/// Banned members of namespace std (std::rand, std::time, ...). getenv is
/// deliberately absent: reading the environment is not a determinism sink
/// in itself — determinism.tainted-sim-state (check_taint.cpp) flags env
/// values that *flow into* simulated state, which is the actual contract.
const char* kStdBanned[] = {"random_device", "rand", "srand", "time",
                            "clock"};

/// Banned unqualified C calls. Flagged only in call position with no
/// object/scope qualifier, so a method named e.g. `random()` on a gridmon
/// class does not trip the check when invoked through an object.
const char* kBareCalls[] = {"rand",      "srand",        "drand48",
                            "lrand48",   "random",       "gettimeofday",
                            "clock_gettime", "localtime", "gmtime",
                            "time"};

}  // namespace

void check_determinism(const std::string& path, const Model& m,
                       std::vector<Diagnostic>& out) {
  const auto& t = m.toks;
  int n = static_cast<int>(t.size());
  for (int i = 0; i < n; ++i) {
    // std :: chrono :: <clock>
    if (is_ident(t[i], "std") && i + 4 < n && t[i + 1].text == "::" &&
        is_ident(t[i + 2], "chrono") && t[i + 3].text == "::") {
      for (const char* clk : kClocks) {
        if (is_ident(t[i + 4], clk)) {
          out.push_back({path, t[i].line, t[i].col, "determinism.wall-clock",
                         std::string("std::chrono::") + clk +
                             " reads the machine clock; simulated time must "
                             "come from sim::Simulation::now()",
                         "use sim::Simulation::now() (SimTime seconds)"});
        }
      }
      continue;
    }
    // std :: <banned>
    if (is_ident(t[i], "std") && i + 2 < n && t[i + 1].text == "::") {
      for (const char* name : kStdBanned) {
        if (!is_ident(t[i + 2], name)) continue;
        bool rng = std::string(name) == "random_device" ||
                   std::string(name) == "rand" || std::string(name) == "srand";
        out.push_back(
            {path, t[i].line, t[i].col,
             rng ? "determinism.ambient-rng" : "determinism.wall-clock",
             "std::" + std::string(name) +
                 " is nondeterministic ambient state; a gridmon run must be "
                 "a pure function of its seed",
             rng ? "use the explicitly seeded sim::Rng (fork() per stream)"
                 : "use sim::Simulation::now() (SimTime seconds)"});
      }
      continue;
    }
    // Unqualified C calls: ident '(' not preceded by . -> :: or a type name.
    if (t[i].kind == TokKind::Ident && i + 1 < n && t[i + 1].text == "(") {
      bool qualified =
          i > 0 && (t[i - 1].text == "." || t[i - 1].text == "->" ||
                    t[i - 1].text == "::");
      // A preceding identifier means this is a declaration
      // ("std::time_t time(...)"), not a call — unless it is a keyword
      // like `return` that introduces an expression.
      bool declared = i > 0 && t[i - 1].kind == TokKind::Ident &&
                      !call_context_keyword(t[i - 1].text);
      if (qualified || declared) continue;
      for (const char* name : kBareCalls) {
        if (t[i].text != name) continue;
        bool rng = t[i].text.find("rand") != std::string::npos;
        out.push_back(
            {path, t[i].line, t[i].col,
             rng ? "determinism.ambient-rng" : "determinism.wall-clock",
             t[i].text +
                 "() draws on ambient machine state (wall clock / libc "
                 "PRNG); banned in simulation code",
             rng ? "use the explicitly seeded sim::Rng (fork() per stream)"
                 : "use sim::Simulation::now() (SimTime seconds)"});
      }
    }
  }
}

}  // namespace gridmon::lint
