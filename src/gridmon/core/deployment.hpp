#pragma once

/// \file deployment.hpp
/// One sweep point of the paper's protocol (§3.1), from a validated
/// ScenarioSpec and a user count to a MetricsReport. The closed-loop
/// benches, gridmon_run and ext_scale all run their points through
/// here, so one spec is one experiment whichever tool runs it.

#include <cstdint>
#include <memory>

#include "gridmon/core/experiment.hpp"
#include "gridmon/core/frontier.hpp"
#include "gridmon/core/scenario_spec.hpp"
#include "gridmon/core/scenarios.hpp"
#include "gridmon/fault/injector.hpp"

namespace gridmon::core {

/// The testbed sizing rule: the paper's 20 UC client machines, more when
/// `users` do not fit at kUcUsersPerHost each. Past 100k users the WAN
/// keeps 1 MB/s per client machine and every NIC gets 10 GbE: the
/// paper's 20 MB/s path and 100 Mbps NICs, sized for ~20 client
/// machines, would wedge, and the point would measure the pipe.
TestbedConfig testbed_for(int users, std::uint64_t seed);

class Deployment {
 public:
  /// Size the testbed, build and prefill `spec`'s scenario, map the
  /// spec's client keys over `client` (which carries what a spec cannot
  /// express: think time, retry ladder, client CPU), spawn `users` on
  /// the engine `spec.engine` selects, and arm `spec.faults`. `traced`
  /// wires a collector for the measured span (legacy engine only).
  /// Throws ConfigError when `spec` fails validation.
  Deployment(const ScenarioSpec& spec, int users, bool traced = false,
             WorkloadConfig client = {});
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  /// Run the spec's window through core::measure on either engine, with
  /// one MeasureConfig (fault recovery, shed and goodput probes); `x`
  /// labels the report. Call once.
  MetricsReport measure(double x);

  bool traced() const noexcept { return traced_; }
  trace::TraceData take_trace() { return collector_.take(); }
  Scenario& scenario() noexcept { return *scenario_; }
  /// The engine's users: exactly one of the two is non-null.
  UserWorkload* workload() noexcept { return workload_.get(); }
  FrontierWorkload* frontier() noexcept { return frontier_.get(); }

 private:
  ScenarioSpec spec_;
  Testbed testbed_;
  std::unique_ptr<Scenario> scenario_;
  // Declared before the workloads: their clients point into both until
  // the workload destructors shut the simulation down.
  trace::Collector collector_;
  fault::Injector injector_;
  std::unique_ptr<UserWorkload> workload_;
  std::unique_ptr<FrontierWorkload> frontier_;
  bool traced_ = false;
};

}  // namespace gridmon::core
