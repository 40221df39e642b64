#pragma once

/// \file sampler.hpp
/// Ganglia-style metric collector: polls registered gauges on a fixed
/// interval (5 s in the paper) and appends to named time series.

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "gridmon/metrics/time_series.hpp"
#include "gridmon/sim/simulation.hpp"
#include "gridmon/sim/task.hpp"

namespace gridmon::metrics {

class Sampler {
 public:
  using Gauge = std::function<double()>;

  Sampler(sim::Simulation& sim, double interval_seconds = 5.0)
      : sim_(sim), interval_(interval_seconds) {}
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  /// Register a gauge; it is polled every interval once start() runs.
  /// Gauges registered under one name record into one shared series.
  void add_gauge(const std::string& name, Gauge gauge) {
    TimeSeries& series = series_.try_emplace(name, name).first->second;
    gauges_.push_back(Polled{&series, std::move(gauge)});
  }

  /// Begin sampling (spawns the polling process). Samples are taken at
  /// t = start + k*interval for k = 1, 2, ...
  void start() { sim_.spawn(poll_loop(*this)); }

  const TimeSeries& series(const std::string& name) const {
    static const TimeSeries kEmpty;
    auto it = series_.find(name);
    return it == series_.end() ? kEmpty : it->second;
  }

  bool has_series(const std::string& name) const {
    return series_.contains(name);
  }

  double interval() const noexcept { return interval_; }

 private:
  static sim::Task<void> poll_loop(Sampler& self) {
    for (;;) {
      co_await self.sim_.delay(self.interval_);
      double now = self.sim_.now();
      for (Polled& p : self.gauges_) p.series->record(now, p.gauge());
    }
  }

  /// A gauge and the series it records into (map nodes never move).
  struct Polled {
    TimeSeries* series;
    Gauge gauge;
  };

  sim::Simulation& sim_;
  double interval_;
  std::vector<Polled> gauges_;
  std::map<std::string, TimeSeries> series_;
};

}  // namespace gridmon::metrics
