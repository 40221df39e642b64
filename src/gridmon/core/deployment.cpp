#include "gridmon/core/deployment.hpp"

#include <algorithm>
#include <utility>

namespace gridmon::core {

TestbedConfig testbed_for(int users, std::uint64_t seed) {
  TestbedConfig tc;
  tc.seed = seed;
  tc.uc_clients = std::max(tc.uc_clients,
                           (users + kUcUsersPerHost - 1) / kUcUsersPerHost);
  if (users > 100000) {
    tc.wan_bandwidth_bytes = 1e6 * tc.uc_clients;
    tc.lan_bandwidth_bytes = 1.25e9;
  }
  return tc;
}

Deployment::Deployment(const ScenarioSpec& spec, int users, bool traced,
                       WorkloadConfig client)
    : spec_(spec),
      testbed_(testbed_for(users, spec.seed)),
      scenario_(make_scenario(testbed_, spec_)),
      collector_(testbed_.sim(), spec.seed),
      injector_(testbed_.sim(), &testbed_.network()) {
  scenario_->prefill();
  if (spec_.lucky_clients) client.max_users_per_host = kLuckyUsersPerHost;
  if (spec_.query_deadline > 0) client.query_deadline = spec_.query_deadline;
  if (spec_.max_attempts > 0) client.max_attempts = spec_.max_attempts;
  if (spec_.resilience.enabled) client.resilience = spec_.resilience.client;
  // Both engines: a fault touches only the physics shard's Simulation.
  if (!spec_.faults.empty()) {
    scenario_->register_faults(injector_);
    for (const auto* pool : {&testbed_.lucky_names(), &testbed_.uc_names()}) {
      for (const auto& name : *pool) {
        injector_.add_host(name, testbed_.host(name));
      }
    }
    injector_.arm(spec_.faults);
  }

  if (spec_.engine.sharded()) {
    FrontierConfig fc;
    fc.shards = spec_.engine.shards;
    fc.lookahead = spec_.engine.lookahead;
    fc.client = std::move(client);
    fc.admission_port = scenario_->server_port();
    fc.server_host = spec_.server_host();
    frontier_ = std::make_unique<FrontierWorkload>(
        testbed_, scenario_->query_fn(), std::move(fc));
    frontier_->spawn_users(users);
  } else {
    workload_ = std::make_unique<UserWorkload>(testbed_, scenario_->query_fn(),
                                               std::move(client));
    traced_ = traced;
    if (traced_) {
      scenario_->instrument(collector_);
      instrument_host(testbed_, collector_, spec_.server_host());
      workload_->enable_tracing(collector_);
      injector_.set_trace(&collector_);
    }
    workload_->spawn_users(users, spec_.lucky_clients ? testbed_.lucky_names()
                                                      : testbed_.uc_names());
  }
  testbed_.sampler().start();
}

MetricsReport Deployment::measure(double x) {
  MeasureConfig mc;
  mc.warmup = spec_.warmup;
  mc.duration = spec_.duration;
  if (traced_) mc.collector = &collector_;
  if (!spec_.faults.empty()) {
    // Recovery is measured from the last scheduled fault event.
    double last = 0;
    for (const auto& ev : spec_.faults.events()) last = std::max(last, ev.at);
    mc.recovery_mark = last;
    mc.recovered_at = [this] { return scenario_->recovered_at(); };
  }
  if (spec_.resilience.enabled) {
    mc.port = scenario_->server_port();
    mc.goodput_deadline = spec_.goodput_deadline;
  }
  const std::string server = spec_.server_host();
  if (!frontier_) return core::measure(testbed_, *workload_, server, x, mc);
  MetricsReport p = core::measure(testbed_, *frontier_, server, x, mc);
  p.shards = static_cast<double>(frontier_->shards());
  return p;
}

}  // namespace gridmon::core
