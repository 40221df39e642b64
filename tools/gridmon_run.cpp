/// gridmon_run — declarative experiment runner.
///
///   $ gridmon_run my_experiment.ini [--csv FILE] [--trace FILE]
///                 [--quick] [--seed N] [--users N]
///
/// Reads an INI scenario description (see core/scenario_spec.hpp), runs
/// one core::Deployment per user count of the sweep, and prints the four
/// study metrics per sweep point (plus the robustness metrics when a
/// [faults] section is present).

#include <fstream>
#include <iostream>
#include <sstream>
#include <utility>

#include "bench_common.hpp"

using namespace gridmon;
using namespace gridmon::bench;
using namespace gridmon::core;

// A spec the builder or the scenario factory rejects is a config error
// (exit 2), whichever sweep point finds it.
int main(int argc, char** argv) try {
  BenchOptions opt =
      parse_options(argc, argv, /*allow_positional=*/true, "SCENARIO.ini");
  if (opt.positional.size() != 1) {
    std::cerr << "usage: " << argv[0]
              << " SCENARIO.ini [--csv FILE] [--trace FILE] [--quick]"
                 " [--seed N] [--users N]\n";
    return 2;
  }
  std::ifstream in(opt.positional.front());
  if (!in) {
    std::cerr << "cannot open " << opt.positional.front() << "\n";
    return 2;
  }

  std::stringstream buffer;
  buffer << in.rdbuf();
  // CLI overrides re-enter the builder so they get the same validation as
  // the file's own keys.
  SpecBuilder overrides(parse_scenario_spec(buffer.str()));
  if (opt.users > 0) overrides.users({opt.users});
  const ScenarioSpec spec = opt.apply(std::move(overrides)).build();

  bool sharded = spec.engine.sharded();
  std::cout << "service: " << spec.service_name()
            << ", collectors: " << spec.collectors
            << ", clients: " << (spec.lucky_clients ? "lucky" : "uc")
            << ", window: " << spec.warmup << "+" << spec.duration << "s";
  if (sharded) {
    std::cout << ", engine: sharded (" << spec.engine.shards << " shards)";
  }
  std::cout << "\n\n";
  if (sharded && !opt.trace_path.empty()) {
    std::cerr << "note: tracing is not supported by the sharded engine; "
                 "ignoring --trace\n";
  }

  bool with_faults = !spec.faults.empty();
  bool with_store = spec.store.enabled();
  bool with_resilience = spec.resilience.enabled;
  metrics::Table table(spec.service_name());
  std::vector<std::string> cols{"users",  "throughput (q/s)", "response (s)",
                                "load1",  "cpu %",            "refused/s"};
  if (with_faults) {
    cols.insert(cols.end(), {"avail", "err/s", "stale", "recovery (s)",
                             "recovered (s)"});
  }
  if (with_store) {
    cols.insert(cols.end(), {"store", "wal (B)", "flushes", "snapshots",
                             "replayed", "replay (s)"});
  }
  if (with_resilience) {
    cols.insert(cols.end(), {"goodput (q/s)", "shed/s", "retry_amp"});
  }
  table.set_columns(cols);
  // Metric columns flow through the shared MetricsReport serializer;
  // only the store::Log stats (not part of the metrics row) append as
  // tool-specific columns.
  unsigned csv_groups = kMetricCore;
  if (with_faults) csv_groups |= kMetricHealth | kMetricRecovery;
  if (with_resilience) csv_groups |= kMetricResilience;
  if (sharded) csv_groups |= kMetricEngine;
  std::ofstream csv;
  if (!opt.csv_path.empty()) {
    csv.open(opt.csv_path);
    const std::vector<std::string> header_prefix{"service"};
    csv << csv_header(csv_groups, header_prefix);
    if (with_store) {
      csv << ",store_mode,wal_bytes,flushes,snapshots,replayed,replay_s";
    }
    csv << "\n";
  }

  // Tracing records the first sweep point only: the causal structure is
  // the same at every load and the file stays small.
  std::vector<trace::SeriesTrace> traces;
  for (int n : spec.users) {
    Deployment d(spec, n, !opt.trace_path.empty() && traces.empty());
    SweepPoint p = d.measure(n);
    if (d.traced()) {
      traces.push_back(trace::SeriesTrace{
          spec.service_name() + " n=" + std::to_string(n), d.take_trace()});
    }
    std::vector<std::string> row{
        std::to_string(n),          metrics::Table::num(p.throughput),
        metrics::Table::num(p.response), metrics::Table::num(p.load1, 3),
        metrics::Table::num(p.cpu, 1),   metrics::Table::num(p.refused)};
    if (with_faults) {
      row.push_back(metrics::Table::num(p.availability, 3));
      row.push_back(metrics::Table::num(p.error_rate, 3));
      row.push_back(metrics::Table::num(p.stale_frac, 3));
      row.push_back(metrics::Table::num(p.recovery, 1));
      row.push_back(metrics::Table::num(p.recovery_complete, 1));
    }
    const store::Log* log = with_store ? d.scenario().store_log() : nullptr;
    if (with_store) {
      if (log != nullptr) {
        row.insert(row.end(),
                   {store::mode_name(log->config().mode),
                    metrics::Table::num(log->stats().wal_bytes, 0),
                    std::to_string(log->stats().flushes),
                    std::to_string(log->stats().snapshots),
                    std::to_string(log->stats().replayed_records),
                    metrics::Table::num(log->stats().last_replay_seconds, 3)});
      } else {
        row.insert(row.end(), {"-", "-", "-", "-", "-", "-"});
      }
    }
    if (with_resilience) {
      row.push_back(metrics::Table::num(p.goodput));
      row.push_back(metrics::Table::num(p.shed_rate));
      row.push_back(metrics::Table::num(p.retry_amp, 3));
    }
    table.add_row(row);
    if (csv.is_open()) {
      const std::vector<std::string> prefix{spec.service_name()};
      write_csv_row(csv, p, csv_groups, prefix);
      if (with_store) {
        if (log != nullptr) {
          csv << ',' << store::mode_name(log->config().mode) << ','
              << log->stats().wal_bytes << ',' << log->stats().flushes << ','
              << log->stats().snapshots << ','
              << log->stats().replayed_records << ','
              << log->stats().last_replay_seconds;
        } else {
          csv << ",-,-,-,-,-,-";
        }
      }
      csv << '\n';
    }
    std::cout << "  done: " << n << " users\n";
  }

  std::cout << "\n";
  table.print_text(std::cout);
  emit_trace(opt, traces);
  return 0;
} catch (const ConfigError& e) {
  std::cerr << "config error: " << e.what() << "\n";
  return 2;
}
