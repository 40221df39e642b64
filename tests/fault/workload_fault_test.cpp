/// The UserWorkload under faults: end-to-end query deadlines, retry caps,
/// error accounting, stale-read measurement, and recovery timing — plus
/// the guarantee that the fault machinery is inert when unused.

#include <gtest/gtest.h>

#include "gridmon/core/adapters.hpp"
#include "gridmon/core/experiment.hpp"
#include "gridmon/core/scenarios.hpp"
#include "gridmon/core/testbed.hpp"
#include "gridmon/core/workload.hpp"
#include "gridmon/fault/injector.hpp"
#include "gridmon/mds/gris.hpp"

namespace gridmon {
namespace {

struct GrisRig {
  core::Testbed tb;
  mds::Gris gris;

  explicit GrisRig(int provider_count = 3, double provider_ttl = 30)
      : gris(tb.network(), tb.host("lucky7"), tb.nic("lucky7"),
             "lucky7.mcs.anl.gov", providers(provider_count, provider_ttl)) {}

  static std::vector<mds::ProviderSpec> providers(int count, double ttl) {
    auto specs = core::default_providers(count);
    for (auto& s : specs) s.cache_ttl = ttl;
    return specs;
  }
};

/// Window metrics of the whole run's log over [t0, t1]; a `mark` >= 0
/// also reports the first success at or after it as `recovery`.
core::MetricsReport window(GrisRig& rig, const core::UserWorkload& w,
                           double t0, double t1, double mark = -1) {
  core::MeasureConfig mc;
  mc.recovery_mark = mark;
  return core::window_report(rig.tb, "lucky7", 0, w.completions(), {},
                             w.counters(), t0, t1, mc);
}

TEST(WorkloadFaultTest, FaultFreeRunWithDeadlineHasNoErrors) {
  GrisRig rig;
  core::WorkloadConfig wc;
  wc.query_deadline = 20;
  wc.max_attempts = 3;
  core::UserWorkload w(rig.tb, core::query_gris(rig.gris), wc);
  w.spawn_users(3, rig.tb.uc_names());
  rig.tb.sim().run(120);

  EXPECT_GT(w.completions().size(), 10u);
  EXPECT_EQ(w.error_count(), 0u);
  EXPECT_EQ(w.counters().abandoned, 0u);
  EXPECT_DOUBLE_EQ(window(rig, w, 0, 120).stale_frac, 0.0);
  rig.tb.sim().shutdown();
}

/// A blackholed server swallows SYNs: attempts stall until the client's
/// own query deadline abandons them, and service resumes after restart.
TEST(WorkloadFaultTest, DeadlineAbandonsQueriesDuringBlackholeCrash) {
  GrisRig rig;
  core::WorkloadConfig wc;
  wc.query_deadline = 15;
  wc.max_attempts = 3;
  core::UserWorkload w(rig.tb, core::query_gris(rig.gris), wc);

  fault::Injector inj(rig.tb.sim(), &rig.tb.network());
  inj.add_service("server", rig.gris);
  fault::FaultPlan plan;
  plan.crash("server", 40, 100, /*blackhole=*/true);
  inj.arm(plan);

  w.spawn_users(3, rig.tb.uc_names());
  rig.tb.sim().run(220);

  EXPECT_GT(w.counters().abandoned, 0u);
  EXPECT_GT(w.error_count(), 0u);
  // Nobody finished a query inside the blackhole window...
  EXPECT_DOUBLE_EQ(window(rig, w, 60, 100).throughput, 0.0);
  // ...and the first success after the restart bounds time-to-recovery.
  double recovery = window(rig, w, 0, 220, 100).recovery;
  EXPECT_GE(recovery, 0.0);
  EXPECT_LT(recovery, 60.0);
  rig.tb.sim().shutdown();
}

/// A refuse-mode crash fails fast: attempts bounce, the retry schedule
/// backs off, and the retry cap converts persistent refusal into
/// abandoned (counted) queries rather than unbounded retries.
TEST(WorkloadFaultTest, RefuseCrashCountsRefusalsAndCapsRetries) {
  GrisRig rig;
  core::WorkloadConfig wc;
  wc.query_deadline = 60;
  wc.max_attempts = 2;
  core::UserWorkload w(rig.tb, core::query_gris(rig.gris), wc);

  fault::Injector inj(rig.tb.sim(), &rig.tb.network());
  inj.add_service("server", rig.gris);
  fault::FaultPlan plan;
  plan.crash("server", 40, 120, /*blackhole=*/false);
  inj.arm(plan);

  w.spawn_users(3, rig.tb.uc_names());
  rig.tb.sim().run(240);

  EXPECT_GT(w.refused_attempts(), 0u);
  EXPECT_GT(w.counters().abandoned, 0u);
  EXPECT_GE(window(rig, w, 0, 240, 120).recovery, 0.0);
  rig.tb.sim().shutdown();
}

/// A hung provider script behind a warm cache: the GRIS waits out the
/// exec timeout once, then keeps serving the expired entry from its
/// negative cache — clients see stale data, not errors. (With enough
/// providers the serial exec timeouts would outlast the client deadline
/// and the worker pool instead; one provider keeps the hang inside it.)
TEST(WorkloadFaultTest, CollectorOutageYieldsStaleReadsNotErrors) {
  GrisRig rig(/*provider_count=*/1, /*provider_ttl=*/10);
  core::WorkloadConfig wc;
  wc.query_deadline = 25;
  wc.max_attempts = 5;
  core::UserWorkload w(rig.tb, core::query_gris(rig.gris), wc);

  fault::Injector inj(rig.tb.sim(), &rig.tb.network());
  inj.add_service("server", rig.gris);
  fault::FaultPlan plan;
  plan.collector_outage("server", 60, 140);
  inj.arm(plan);

  w.spawn_users(3, rig.tb.uc_names());
  rig.tb.sim().run(220);

  // The outage is fully masked: stale answers, zero errors.
  EXPECT_GT(window(rig, w, 70, 140).stale_frac, 0.0);
  EXPECT_EQ(w.error_count(), 0u);
  EXPECT_EQ(w.counters().abandoned, 0u);
  // Before the outage and well after it, answers are fresh again.
  EXPECT_DOUBLE_EQ(window(rig, w, 0, 60).stale_frac, 0.0);
  EXPECT_DOUBLE_EQ(window(rig, w, 180, 220).stale_frac, 0.0);
  rig.tb.sim().shutdown();
}

}  // namespace
}  // namespace gridmon
