#include "gridmon/core/experiment.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "gridmon/core/adapters.hpp"
#include "gridmon/core/scenarios.hpp"

namespace gridmon::core {
namespace {

TEST(ReplicateTest, RealExperimentSeedsAgreeClosely) {
  auto run_one = [](std::uint64_t seed) {
    TestbedConfig tc;
    tc.seed = seed;
    Testbed tb(tc);
    GrisScenario scenario(tb, 10, true);
    UserWorkload w(tb, query_gris(*scenario.gris));
    w.spawn_users(50, tb.uc_names());
    tb.sampler().start();
    MeasureConfig mc;
    mc.warmup = 30;
    mc.duration = 90;
    return measure(tb, w, "lucky7", 50, mc);
  };
  std::vector<double> tput;
  for (std::uint64_t seed : {11, 22, 33}) {
    tput.push_back(run_one(seed).throughput);
  }
  double mean = (tput[0] + tput[1] + tput[2]) / 3;
  double ss = 0;
  for (double t : tput) ss += (t - mean) * (t - mean);
  double stddev = std::sqrt(ss / 3);  // population stddev
  EXPECT_GT(mean, 8.0);
  // Different seeds perturb only think-time phases: spread is tiny.
  EXPECT_LT(stddev, 0.15 * mean);
}

TEST(MeasureTest, RefusedRateReported) {
  Testbed tb;
  // A 1-deep, very slow server refuses nearly everything.
  mds::GrisConfig config;
  config.backlog = 1;
  config.cache_serve_latency = 30.0;
  Testbed* tbp = &tb;
  GrisScenario scenario(tb, 2, true);
  scenario.gris = std::make_unique<mds::Gris>(
      tb.network(), tb.host("lucky7"), tb.nic("lucky7"), "slow",
      default_providers(2), config);
  UserWorkload w(*tbp, query_gris(*scenario.gris));
  w.spawn_users(30, tb.uc_names());
  tb.sampler().start();
  MeasureConfig mc;
  mc.warmup = 30;
  mc.duration = 120;
  SweepPoint p = measure(tb, w, "lucky7", 30, mc);
  EXPECT_GT(p.refused, 0.1);
}

}  // namespace
}  // namespace gridmon::core
