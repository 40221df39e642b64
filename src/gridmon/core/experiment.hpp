#pragma once

/// \file experiment.hpp
/// Measurement protocol shared by every experiment: warm up, measure for
/// a fixed span (10 minutes in the paper), and report the four metrics of
/// §3.2 — throughput, response time, CPU load and load1 — for the machine
/// hosting the service under test.

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "gridmon/core/metrics_report.hpp"
#include "gridmon/core/testbed.hpp"
#include "gridmon/core/workload.hpp"
#include "gridmon/metrics/report.hpp"

namespace gridmon::net {
class ServerPort;
}

namespace gridmon::core {

struct MeasureConfig {
  double warmup = 120.0;
  double duration = 600.0;  // the paper's 10-minute span
  /// When set, span/counter collection is switched on for exactly the
  /// measured span: enabled once warmup ends, disabled when the duration
  /// expires. Null (the default) leaves tracing untouched.
  trace::Collector* collector = nullptr;
  /// When >= 0 (absolute sim time, typically a fault window's end), the
  /// SweepPoint's `recovery` reports the delay from this mark to the
  /// first successful query completion at or after it.
  double recovery_mark = -1;
  /// Optional probe polled once at the end of the window: the absolute
  /// sim time the crashed service's *state* re-converged to its pre-crash
  /// size (Scenario::recovered_at), or -1 if it never did. Feeds the
  /// SweepPoint's `recovery_complete`. The first-successful-query mark
  /// above dates service *reachability*; a soft-state service answers
  /// long before its contents are back, which is exactly the gap the two
  /// columns expose.
  std::function<double()> recovered_at;
  /// The service's listen port when a resilience policy is active: its
  /// shed counter is deltaed over the window into `shed_rate`. Null (the
  /// default) reports zero.
  const net::ServerPort* port = nullptr;
  /// Response-time bound for a completion to count toward goodput. 0 (the
  /// default) counts every completion, making goodput == throughput.
  double goodput_deadline = 0;
};

/// One sweep point of a figure. The historical name for the typed
/// metrics row; see metrics_report.hpp for the fields and the schema
/// that drives CSV/JSON emission.
using SweepPoint = MetricsReport;

/// Run the clock through warmup+duration and collect a SweepPoint for
/// either engine's `workload` (a UserWorkload's closed users, open
/// arrivals, or both; or a FrontierWorkload) with host metrics from
/// `server_host`. `events` counts the simulator events of both spans.
template <typename Engine>
SweepPoint measure(Testbed& testbed, Engine& workload,
                   const std::string& server_host, double x,
                   MeasureConfig config = {});

/// The one window computation every engine reports through: the
/// completions logged in [t0, t1] and the client counters' change from
/// `before` to `after` become the study metrics, with load1/CPU from
/// `server_host`'s sampler series. Rates divide by t1 - t0. `config`
/// supplies the goodput deadline and the recovery probes; `shed_rate`,
/// `events` and `shards` are left to the caller.
SweepPoint window_report(Testbed& testbed, const std::string& server_host,
                         double x, std::span<const Completion> completions,
                         const ClientCounters& before,
                         const ClientCounters& after, double t0, double t1,
                         const MeasureConfig& config = {});

/// A figure = one metric across sweep points for several series.
struct Series {
  std::string name;
  std::vector<SweepPoint> points;
};

/// Print the paper-style figure tables (one table per metric:
/// throughput, response time, load1, CPU) for a set of series sharing the
/// same x values. `first_figure` is the paper's figure number of the
/// throughput plot (e.g. 5 prints Figures 5-8).
void print_figures(std::ostream& os, int first_figure,
                   const std::string& subject, const std::string& x_label,
                   const std::vector<Series>& series);

}  // namespace gridmon::core
