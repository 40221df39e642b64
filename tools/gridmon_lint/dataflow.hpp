#pragma once

/// \file dataflow.hpp
/// A small worklist framework over per-function CFGs (cfg.hpp) and the
/// bitset taint lattice the flow-sensitive checks build on.
///
/// The solver is generic over the state and its join. The taint checks'
/// states are maps from variable name to a small value joined with bitwise
/// OR (VarBits). The lattice is a finite-height powerset over the
/// identifiers that occur in one function body, so the worklist loop
/// terminates without any widening.
///
/// Variable events are extracted purely from token shape: an identifier is
/// a *definition* when followed by `=` (assignment or initialised
/// declaration), a *def+use* when adjacent to `++`/`--` or followed by a
/// compound assignment, and a *use* otherwise. Member-qualified
/// identifiers (preceded by `.`/`->`/`::`) and call names (followed by
/// `(`) are not variable events; `x` in `x.field = v` is a use of `x`,
/// because mutating a member does not rebind the variable.

#include <map>
#include <string>
#include <vector>

#include "cfg.hpp"
#include "model.hpp"

namespace gridmon::lint {

// ---------------------------------------------------------------------------
// Variable events.

enum class VarEventKind { Def, Use, DefUse };

struct VarEvent {
  int tok = 0;  // token index of the identifier
  std::string name;
  VarEventKind kind = VarEventKind::Use;
};

/// Events for every identifier token in [begin, end), in token order.
/// Identifiers inside nested-lambda bodies are demoted to plain uses (a
/// by-reference capture reads the outer binding; an inner `=` rebinds a
/// different scope's view and must not kill outer facts).
std::vector<VarEvent> var_events(const Model& m, int begin, int end);

// ---------------------------------------------------------------------------
// Generic forward solver.

/// var -> bitset; absent means bottom (0). Join is per-var bitwise OR.
using VarBits = std::map<std::string, unsigned>;

/// OR `src` into `dst`; true when `dst` changed.
bool join_bits(VarBits& dst, const VarBits& src);

/// Forward worklist fixpoint over node-entry states of any `State` whose
/// default value is bottom. `join(dst, src)` merges `src` into `dst` and
/// returns true when `dst` changed. `transfer(node_id, state)` mutates the
/// node-entry state in place into the node-exit state; it must be monotone
/// in the join's lattice (only add facts, or overwrite with values
/// independent of the input — a strong kill like `moved -> 0` on rebind is
/// fine because it is a function of the node, not of the incoming facts).
/// Returns the entry state of every node.
template <typename State, typename Transfer>
std::vector<State> solve_forward(const Cfg& cfg,
                                 bool (*join)(State&, const State&),
                                 Transfer transfer) {
  std::vector<State> in(cfg.nodes.size());
  // Seed every node, not just entry: with all-bottom initial states a join
  // never reports a change, so entry-only seeding would starve the loop
  // before any node's own transfer had run even once.
  std::vector<char> queued(cfg.nodes.size(), 1);
  std::vector<int> work;
  for (int n = static_cast<int>(cfg.nodes.size()) - 1; n >= 0; --n) {
    work.push_back(n);
  }
  while (!work.empty()) {
    int n = work.back();
    work.pop_back();
    queued[n] = 0;
    State out = in[n];
    transfer(n, out);
    for (int s : cfg.nodes[n].succ) {
      if (join(in[s], out) && !queued[s]) {
        queued[s] = 1;
        work.push_back(s);
      }
    }
  }
  return in;
}

// ---------------------------------------------------------------------------
// The taint instance.

/// Taint lattice bits carried through VarBits by the determinism checks.
/// Sources: getenv (Env), wall clocks (Clock), unseeded RNG (Rng).
constexpr unsigned kTaintEnv = 1u;
constexpr unsigned kTaintClock = 2u;
constexpr unsigned kTaintRng = 4u;

/// Human label for a taint bitset ("environment", "wall-clock", ... or a
/// "+"-joined combination), for diagnostics and witness steps.
std::string taint_label(unsigned bits);

}  // namespace gridmon::lint
