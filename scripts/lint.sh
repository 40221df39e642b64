#!/usr/bin/env bash
# Static-analysis driver: runs gridmon_lint in project (cross-TU) mode over
# every linted tree, then clang-tidy (when a binary exists) over the compile
# database. This is exactly what the CI `lint` job executes; run it locally
# before pushing.
#
#   scripts/lint.sh               lint src/gridmon, bench, tools, examples,
#                                 tests (minus the intentional-violation
#                                 fixture tree) with zero allowed findings
#                                 and the checked-in suppression-debt budget;
#                                 emit SARIF to ${BUILD_DIR}/gridmon_lint.sarif
#   scripts/lint.sh --verify-gate additionally prove the gate FAILS on one
#                                 seeded violation per check family that the
#                                 project analyzer owns (direct determinism,
#                                 cross-TU transitive, unordered iteration,
#                                 shard, by-reference coroutine capture, and
#                                 the flow-sensitive coroutine-lifetime /
#                                 use-after-move / tainted-sim-state rules)
#                                 and on an unbudgeted suppression (CI runs
#                                 this so a silently-broken analyzer cannot
#                                 pass)
#
# The project sweep is also held to a fixed wall-clock ceiling: a cold run
# over the whole tree finishes in well under a second, so a run that needs
# longer than the ceiling means the analyzer grew a pathological pass, and
# that is a gate failure too — lint latency is part of the contract.
#
# Exit codes: 0 clean, 1 findings (or a broken gate), 2 infrastructure error.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
LINT_RUNTIME_CEILING_S=5
VERIFY_GATE=0
if [[ "${1:-}" == "--verify-gate" ]]; then
  VERIFY_GATE=1
fi

if [[ ! -f "${BUILD_DIR}/CMakeCache.txt" ]]; then
  echo "== configure (${BUILD_DIR}) =="
  cmake -B "${BUILD_DIR}" -S .
fi
echo "== build gridmon_lint =="
cmake --build "${BUILD_DIR}" --target gridmon_lint -j"$(nproc)"

LINT_BIN="${BUILD_DIR}/tools/gridmon_lint"
BUDGET="tools/gridmon_lint/suppression_budget.txt"
SARIF_OUT="${BUILD_DIR}/gridmon_lint.sarif"
LINT_SCOPE=(src/gridmon bench tools examples tests)
# tests/lint/fixtures holds deliberate violations (the lint suite's own
# positive cases); everything else under tests/ is gated like src.
LINT_EXCLUDE=(--exclude tests/lint/fixtures)

echo "== gridmon_lint (project mode, zero findings, budgeted debt) =="
START_S=${SECONDS}
"${LINT_BIN}" --project \
  "${LINT_SCOPE[@]}" \
  "${LINT_EXCLUDE[@]}" \
  --suppression-budget "${BUDGET}" \
  --sarif "${SARIF_OUT}"
ELAPSED_S=$((SECONDS - START_S))
echo "lint wall clock: ${ELAPSED_S}s (ceiling ${LINT_RUNTIME_CEILING_S}s)"
if (( ELAPSED_S > LINT_RUNTIME_CEILING_S )); then
  echo "LINT TOO SLOW: ${ELAPSED_S}s > ${LINT_RUNTIME_CEILING_S}s" >&2
  exit 1
fi

# clang-tidy is optional tooling: the reference build container has no
# clang at all, so its absence is a warning, not a failure. CI installs it.
if command -v clang-tidy >/dev/null 2>&1; then
  echo "== clang-tidy ($(clang-tidy --version | head -n1)) =="
  mapfile -t TIDY_FILES < <(find src/gridmon -name '*.cpp' | sort)
  if command -v run-clang-tidy >/dev/null 2>&1; then
    run-clang-tidy -p "${BUILD_DIR}" -quiet "src/gridmon/.*\.cpp$"
  else
    clang-tidy -p "${BUILD_DIR}" --quiet "${TIDY_FILES[@]}"
  fi
else
  echo "== clang-tidy: not installed; skipping (gridmon_lint still gates) =="
fi

if [[ "${VERIFY_GATE}" == "1" ]]; then
  echo "== verify-gate: each seeded violation must fail =="
  SEED_DIR="$(mktemp -d)"
  trap 'rm -rf "${SEED_DIR}"' EXIT

  # One seed per family the project analyzer owns. Each case is a separate
  # scratch tree so a finding from one cannot mask a broken check in
  # another; the transitive cases need two TUs by construction.
  mkdir -p "${SEED_DIR}/direct" "${SEED_DIR}/xtu" "${SEED_DIR}/iter" \
    "${SEED_DIR}/shard" "${SEED_DIR}/refcap" "${SEED_DIR}/stale" \
    "${SEED_DIR}/move" "${SEED_DIR}/taint" "${SEED_DIR}/taintxtu" \
    "${SEED_DIR}/drained"

  cat > "${SEED_DIR}/direct/seeded.cpp" <<'EOF'
#include <chrono>
// Deliberately nondeterministic: the gate must reject this file.
double wall_now() {
  return std::chrono::duration<double>(
      std::chrono::steady_clock::now().time_since_epoch()).count();
}
EOF

  cat > "${SEED_DIR}/xtu/sink.cpp" <<'EOF'
#include <chrono>
double wall_now() {
  return std::chrono::duration<double>(
      std::chrono::steady_clock::now().time_since_epoch()).count();
}
EOF
  cat > "${SEED_DIR}/xtu/caller.cpp" <<'EOF'
// Clean in isolation: only the cross-TU pass can reject this file.
double stamp() { return wall_now(); }
EOF

  cat > "${SEED_DIR}/iter/seeded.cpp" <<'EOF'
#include <unordered_map>
struct Sink { void emit(int); };
struct Registry {
  std::unordered_map<int, int> rows_;
  Sink out_;
  // Hash-bucket order leaks into the emitted row order.
  void dump() {
    for (const auto& kv : rows_) out_.emit(kv.first);
  }
};
EOF

  cat > "${SEED_DIR}/shard/seeded.cpp" <<'EOF'
struct ShardGroup { void post(int); };
// post() with no lookahead/horizon term in scope: lookahead violation.
void send(ShardGroup& group, int msg) { group.post(msg); }
EOF

  cat > "${SEED_DIR}/refcap/seeded.cpp" <<'EOF'
struct Sim { void spawn(Task<void>); };
struct Gate { bool ready() const; };
// A by-reference capture in a coroutine lambda dangles once kick() returns.
void kick(Sim& sim, Gate& gate) {
  int hits = 0;
  sim.spawn([&]() -> Task<void> {
    co_await gate;
    ++hits;
  }());
}
EOF

  cat > "${SEED_DIR}/stale/seeded.cpp" <<'EOF'
#include <map>
struct Backend { Task<int> query(int); };
struct Servlet {
  std::map<int, int> sessions_;
  Backend be_;
  // Iterator into a shared container used after a suspension point.
  Task<void> handle(int id) {
    auto it = sessions_.find(id);
    co_await be_.query(it->second);
    it->second += 1;
  }
};
EOF

  cat > "${SEED_DIR}/move/seeded.cpp" <<'EOF'
#include <string>
void sink(std::string s);
// Read of a moved-from object on the path after the move.
void seeded() {
  std::string row = "x";
  sink(std::move(row));
  int n = static_cast<int>(row.size());
  (void)n;
}
EOF

  cat > "${SEED_DIR}/taint/seeded.cpp" <<'EOF'
#include <cstdlib>
struct Sim { void spawn(int); };
// An environment value flowing into sim state (spawn argument).
void seeded(Sim& sim) {
  const char* e = std::getenv("USERS");
  int users = std::atoi(e);
  sim.spawn(users);
}
EOF

  cat > "${SEED_DIR}/taintxtu/source.cpp" <<'EOF'
#include <cstdlib>
// Returns a tainted (environment-derived) value.
int env_users() { return std::atoi(std::getenv("USERS")); }
EOF
  cat > "${SEED_DIR}/taintxtu/sinker.cpp" <<'EOF'
struct Sim { void spawn(int); };
// Clean in isolation: only the cross-TU taint summary can reject this.
void seeded(Sim& sim) { sim.spawn(env_users()); }
EOF

  # Negative control for the flow-sensitive refinement: a detach-spawn
  # whose every path drains the simulation before the referent can die
  # must NOT be flagged (this is exactly the pattern the retired
  # hand-written suppressions covered).
  cat > "${SEED_DIR}/drained/clean.cpp" <<'EOF'
struct Sim { void spawn(Task<void>); void run(); };
Task<void> probe(Sim& sim, int& hits) { ++hits; co_return; }
void harness(Sim& sim) {
  int hits = 0;
  sim.spawn(probe(sim, hits));
  sim.run();
}
EOF

  check_rejected() {
    local label="$1"; shift
    if "${LINT_BIN}" "$@" > /dev/null 2>&1; then
      echo "GATE BROKEN: seeded ${label} violation passed the linter" >&2
      exit 1
    fi
    echo "gate ok: seeded ${label} violation rejected"
  }

  check_rejected "determinism.wall-clock" "${SEED_DIR}/direct"
  check_rejected "determinism.transitive-wall-clock (cross-TU)" \
    --project "${SEED_DIR}/xtu"
  check_rejected "iteration.unordered-range-for" "${SEED_DIR}/iter"
  check_rejected "shard.unguarded-post-horizon" "${SEED_DIR}/shard"
  check_rejected "coroutine.ref-capture" "${SEED_DIR}/refcap"
  check_rejected "coroutine.stale-ref-across-suspend" "${SEED_DIR}/stale"
  check_rejected "coroutine.use-after-move" "${SEED_DIR}/move"
  check_rejected "determinism.tainted-sim-state" "${SEED_DIR}/taint"
  check_rejected "determinism.tainted-sim-state (cross-TU)" \
    --project "${SEED_DIR}/taintxtu"

  # The drained detach-spawn must stay clean: the flow-sensitive engine
  # replaced the hand-written "sim.run() drains" suppressions, so a
  # regression here would silently re-grow the suppression budget.
  if ! "${LINT_BIN}" "${SEED_DIR}/drained" > /dev/null 2>&1; then
    echo "GATE BROKEN: drained detach-spawn flagged despite sim.run()" >&2
    exit 1
  fi
  echo "gate ok: drained detach-spawn stays clean"

  # The caller alone (no sink TU in scope) must stay clean, or the
  # transitive case above proved nothing about cross-TU resolution.
  if ! "${LINT_BIN}" --project "${SEED_DIR}/xtu/caller.cpp" \
      > /dev/null 2>&1; then
    echo "GATE BROKEN: transitive caller flagged without its sink TU" >&2
    exit 1
  fi
  echo "gate ok: transitive caller clean without its sink TU"

  # An added suppression without a budget regeneration must fail even
  # though the file itself analyzes clean.
  cat > "${SEED_DIR}/direct/suppressed.cpp" <<'EOF'
#include <chrono>
// gridmon-lint: suppress(determinism.wall-clock) -- seeded debt probe
double wall_now2() {
  return std::chrono::duration<double>(
      std::chrono::steady_clock::now().time_since_epoch()).count();
}
EOF
  check_rejected "unbudgeted suppression" \
    "${SEED_DIR}/direct/suppressed.cpp" --suppression-budget "${BUDGET}"
fi

echo "lint: all gates passed"
