#pragma once

/// \file bench.hpp
/// Shared declarations of the benchmark program gridmon_bench. Every run
/// executes in a forked child; the child reports a RunRecord back to the
/// parent, which aggregates the runs of a workload into its metrics.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace gridmon::hawkeye {
class Manager;
}
namespace gridmon::ldap {
class Dit;
}

namespace perf {

using Clock = std::chrono::steady_clock;

// The window of BENCH_scale.json (30 s warm-up + 60 s measured), so its
// history carries over, cut into slices of one simulated second.
inline constexpr int kWarmupSlices = 30;
inline constexpr int kSlices = 90;

/// The workload names in benchmark order.
const std::vector<std::string>& workload_names();

/// The span kinds (trace::kind_name) whose stage.<kind>.* metrics the
/// traced run reports; together they cover every kind the four workloads
/// produce except think time.
inline constexpr const char* kStageKinds[] = {
    "query",        "pool_wait",     "backoff",        "client_tool",
    "connect",      "request_send",  "response_send",  "cpu",
    "cache_validate", "ldap_search", "classad_eval",   "cache_refresh",
    "fetch",        "merge"};

/// One host-time span of the benchmark itself (Chrome "X" event).
struct HostSpan {
  std::string name;
  double ts_us = 0;   // since the benchmark's epoch
  double dur_us = 0;
};

/// Collects the benchmark's own host-time spans around calls into the
/// simulator. Times are relative to `epoch`, shared by parent and children
/// (fork keeps the steady clock), so spans of every run line up.
class HostTimer {
 public:
  explicit HostTimer(Clock::time_point epoch) : epoch_(epoch) {}

  /// Run `fn`, record it as span `name`, return its host seconds.
  template <typename Fn>
  double time(const std::string& name, Fn&& fn) {
    auto t0 = Clock::now();
    fn();
    auto t1 = Clock::now();
    spans.push_back(HostSpan{name, micros(t0), micros(t1) - micros(t0)});
    return std::chrono::duration<double>(t1 - t0).count();
  }

  std::vector<HostSpan> spans;

 private:
  double micros(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  }
  Clock::time_point epoch_;
};

/// What one child run reports: named scalars, the host milliseconds of
/// each simulated second (timed runs only) and the host spans.
struct RunRecord {
  std::map<std::string, double> values;
  std::vector<double> slice_ms;
  std::vector<HostSpan> spans;
  std::string error;  // non-empty: the run failed
};

/// One untraced run, driven in 1-second slices of simulated time.
RunRecord timed_run(const std::string& workload, std::uint64_t seed,
                    Clock::time_point epoch);

/// One traced run (single run(until) calls, collector on for the measured
/// window) followed by the replay ledger on the run's live data.
/// `queue_depth` sizes the kernel replay; `trace_dir` non-empty also
/// writes the simulated-time span file there.
RunRecord traced_run(const std::string& workload, std::uint64_t seed,
                     Clock::time_point epoch, std::size_t queue_depth,
                     const std::string& trace_dir);

// ---- replay ledger (ledger.cpp) ----

/// Host nanoseconds per Simulation::schedule event with `depth` pending
/// self-rescheduling callbacks.
double replay_event_ns(std::size_t depth, std::uint64_t seed,
                       HostTimer& timer);

struct LdapCost {
  double parse_us = 0;   // Filter::parse of the query's filter text
  double search_us = 0;  // Dit::search from o=grid, subtree scope
  double entries = 0;    // entries the search examines
};
LdapCost ldap_cost(const gridmon::ldap::Dit& dit, const std::string& filter,
                   HostTimer& timer);

struct ClassAdCost {
  // Run the modules, build one Startd ad from their fragments and render
  // it: the agent's side of an advertisement. The Manager's insert and
  // WAL append are not replayed.
  double build_ad_us = 0;
  double scan_us = 0;       // parse the constraint and scan every ad
};
ClassAdCost classad_cost(const gridmon::hawkeye::Manager& manager,
                         int machines, int modules,
                         const std::string& constraint, HostTimer& timer);

}  // namespace perf
