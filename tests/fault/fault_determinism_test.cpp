/// Fault runs are as deterministic as fault-free ones: the same seed and
/// the same FaultPlan must reproduce the metrics CSV and the trace file
/// byte for byte — the property that makes a fault sweep a regression
/// artifact rather than a flaky demo.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "gridmon/core/experiment.hpp"
#include "gridmon/core/scenario_spec.hpp"
#include "gridmon/core/scenarios.hpp"
#include "gridmon/fault/injector.hpp"
#include "gridmon/trace/chrome_export.hpp"

namespace gridmon {
namespace {

struct FaultRun {
  std::string csv;
  std::string trace_json;
  std::uint64_t errors = 0;
  std::size_t injected = 0;
};

/// Cached GRIS under a blackhole crash, a WAN partition, and a slowed
/// server host, measured by a deadline-bound workload with tracing on.
FaultRun run_faulted_gris(std::uint64_t seed) {
  core::TestbedConfig tc;
  tc.seed = seed;
  core::Testbed tb(tc);
  core::ScenarioSpec spec;
  spec.service = core::ServiceKind::Gris;
  spec.collectors = 5;
  auto scenario = core::make_scenario(tb, spec);
  trace::Collector collector(tb.sim(), tb.config().seed);
  core::WorkloadConfig wc;
  wc.query_deadline = 20;
  wc.max_attempts = 3;
  core::UserWorkload workload(tb, scenario->query_fn(), wc);
  scenario->instrument(collector);
  workload.enable_tracing(collector);

  fault::Injector injector(tb.sim(), &tb.network());
  scenario->register_faults(injector);
  injector.add_host("lucky7", tb.host("lucky7"));
  injector.set_trace(&collector);
  fault::FaultPlan plan;
  plan.crash("server", 40, 70, /*blackhole=*/true);
  plan.partition("anl", "uc", 90, 110);
  plan.slow_host("lucky7", 120, 140, 0.5);
  injector.arm(plan);

  workload.spawn_users(5, tb.uc_names());
  tb.sampler().start();
  core::MeasureConfig mc;
  mc.warmup = 10;
  mc.duration = 150;
  mc.recovery_mark = 70;
  mc.collector = &collector;
  core::SweepPoint p = core::measure(tb, workload, "lucky7", 5, mc);

  FaultRun out;
  std::ostringstream csv;
  csv.precision(17);
  csv << p.x << ',' << p.throughput << ',' << p.response << ','
      << p.availability << ',' << p.error_rate << ',' << p.stale_frac << ','
      << p.recovery << ',' << workload.refused_attempts() << ','
      << workload.counters().timeouts << ',' << workload.counters().failures
      << ',' << workload.counters().abandoned << '\n';
  out.csv = csv.str();
  out.errors = workload.error_count();
  out.injected = injector.injected();

  std::vector<trace::SeriesTrace> series;
  series.push_back(trace::SeriesTrace{"fault", collector.take()});
  std::ostringstream os;
  trace::write_chrome_trace(os, series);
  out.trace_json = os.str();
  return out;
}

TEST(FaultDeterminismTest, SameSeedSamePlanSameBytes) {
  FaultRun a = run_faulted_gris(42);
  FaultRun b = run_faulted_gris(42);
  // The plan actually fired and actually hurt — this is not a vacuous
  // comparison of two idle runs.
  EXPECT_EQ(a.injected, 6u);
  EXPECT_GT(a.errors, 0u);
  ASSERT_FALSE(a.trace_json.empty());
  EXPECT_EQ(a.csv, b.csv);
  EXPECT_EQ(a.trace_json, b.trace_json);
}

TEST(FaultDeterminismTest, DifferentSeedDiverges) {
  FaultRun a = run_faulted_gris(42);
  FaultRun b = run_faulted_gris(43);
  EXPECT_NE(a.trace_json, b.trace_json);
}

}  // namespace
}  // namespace gridmon
