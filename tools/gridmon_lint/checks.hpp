#pragma once

/// \file checks.hpp
/// The gridmon check families. Each takes the structural model and
/// appends raw diagnostics; suppression filtering happens afterwards in
/// analyze_source so a suppression can silence any family uniformly.

#include <vector>

#include "index.hpp"
#include "lint.hpp"
#include "model.hpp"

namespace gridmon::lint {

/// determinism.*: wall clocks and ambient PRNGs are banned in simulation
/// code — time must come from sim::Simulation::now(), randomness from the
/// seeded sim::Rng.
void check_determinism(const std::string& path, const Model& m,
                       std::vector<Diagnostic>& out);

/// iteration.*: iterating an unordered container (range-for, .begin()
/// loops, equal_range scans) exposes hash-bucket order, which is
/// implementation-defined and must never feed scheduling or output.
void check_iteration(const std::string& path, const Model& m,
                     std::vector<Diagnostic>& out);

/// coroutine.*: lifetime traps specific to coroutines — by-reference
/// lambda captures, `this` captured into a coroutine frame, and locals or
/// temporaries passed by reference into detach-spawned coroutines.
void check_coroutine(const std::string& path, const Model& m,
                     std::vector<Diagnostic>& out);

/// shard.*: the sharded engine's determinism contract — mailbox-only
/// cross-shard influence, lookahead-respecting deliver_at, merge order a
/// pure function of (deliver_at, uid, seq). Runs only in files that touch
/// the shard engine; the engine's own implementation is exempt by path.
void check_shard(const std::string& path, const Model& m,
                 std::vector<Diagnostic>& out);

/// coroutine.stale-ref-across-suspend / coroutine.use-after-move: the
/// flow-sensitive lifetime rules. Built on the per-function CFG
/// (cfg.hpp) with suspension points as explicit nodes: an
/// iterator/reference/pointer derived from a non-local container and used
/// after a suspension has crossed a point where any other frame may have
/// mutated the container; a moved-from variable used before rebinding is
/// a plain dataflow bug the structural layer could not see.
void check_lifetime(const std::string& path, const Model& m,
                    std::vector<Diagnostic>& out);

/// determinism.tainted-sim-state: taint analysis from nondeterminism
/// sources (getenv, wall clocks, ambient RNGs) to simulation state
/// (spawn/schedule/delay/seed arguments, ScenarioSpec fields). Replaces
/// the coarse "getenv anywhere is a sink" rule: a harness reading an env
/// switch that never flows into sim state is clean without a suppression.
/// `project` (optional) supplies cross-TU taint summaries.
void check_taint(const std::string& path, const Model& m,
                 const ProjectIndex* project, std::vector<Diagnostic>& out);

/// Pass-1 hook: fill `out`'s taint summary (taint_return/taint_label/
/// return_calls/sink_params/param_calls) from a flow analysis of `f`'s
/// body. Lives in check_taint.cpp so the summary and the check can never
/// disagree about what a source or a sink is.
void extract_taint_facts(const Model& m, const Func& f, IndexedFunc& out);

}  // namespace gridmon::lint
