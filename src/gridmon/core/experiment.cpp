#include "gridmon/core/experiment.hpp"

#include <algorithm>
#include <map>
#include <ostream>

#include "gridmon/core/frontier.hpp"
#include "gridmon/net/server_port.hpp"

namespace gridmon::core {

template <typename Engine>
SweepPoint measure(Testbed& testbed, Engine& workload,
                   const std::string& server_host, double x,
                   MeasureConfig config) {
  // The sharded engine's group clock starts behind a prefilled testbed.
  double start = std::max(workload.now(), testbed.sim().now());
  std::size_t events = workload.run(start + config.warmup);
  double t0 = workload.now();
  ClientCounters before = workload.counters();
  std::uint64_t shed_before =
      config.port != nullptr ? config.port->total_shed() : 0;
  if (config.collector != nullptr) config.collector->set_enabled(true);
  events += workload.run(t0 + config.duration);
  if (config.collector != nullptr) config.collector->set_enabled(false);
  double t1 = workload.now();

  SweepPoint p = window_report(testbed, server_host, x, workload.completions(),
                               before, workload.counters(), t0, t1, config);
  if (config.port != nullptr && t1 > t0) {
    p.shed_rate =
        static_cast<double>(config.port->total_shed() - shed_before) /
        (t1 - t0);
  }
  p.events = static_cast<double>(events);
  return p;
}

template SweepPoint measure(Testbed&, UserWorkload&, const std::string&,
                            double, MeasureConfig);
template SweepPoint measure(Testbed&, FrontierWorkload&, const std::string&,
                            double, MeasureConfig);

SweepPoint window_report(Testbed& testbed, const std::string& server_host,
                         double x, std::span<const Completion> completions,
                         const ClientCounters& before,
                         const ClientCounters& after, double t0, double t1,
                         const MeasureConfig& config) {
  // One pass in log order (time order for both engines), so the float
  // sums are reproducible byte for byte.
  std::size_t completed = 0;
  std::size_t stale = 0;
  std::size_t timely = 0;
  double response_sum = 0;
  double first_success = -1;
  for (const Completion& c : completions) {
    if (config.recovery_mark >= 0 && c.t >= config.recovery_mark &&
        (first_success < 0 || c.t < first_success)) {
      first_success = c.t;
    }
    if (c.t < t0 || c.t > t1) continue;
    ++completed;
    response_sum += c.response_time;
    if (c.stale) ++stale;
    if (config.goodput_deadline <= 0 ||
        c.response_time <= config.goodput_deadline) {
      ++timely;
    }
  }
  const double span = t1 - t0;
  auto per_sec = [span](double n) { return span > 0 ? n / span : 0; };
  auto n = static_cast<double>(completed);
  auto abandoned = static_cast<double>(after.abandoned - before.abandoned);
  auto queries = static_cast<double>(after.queries - before.queries);

  SweepPoint p;
  p.x = x;
  p.throughput = per_sec(n);
  p.response = completed > 0 ? response_sum / n : 0;
  p.load1 = testbed.sampler().series(server_host + ".load1").mean_over(t0, t1);
  p.cpu = testbed.sampler().series(server_host + ".cpu_pct").mean_over(t0, t1);
  p.refused = per_sec(static_cast<double>(after.refused - before.refused));
  p.availability = n + abandoned > 0 ? n / (n + abandoned) : 1.0;
  p.error_rate =
      per_sec(static_cast<double>(after.errors() - before.errors()));
  p.stale_frac = completed > 0 ? static_cast<double>(stale) / n : 0;
  p.goodput = per_sec(static_cast<double>(timely));
  p.retry_amp =
      queries > 0
          ? static_cast<double>(after.attempts - before.attempts) / queries
          : 0;
  if (config.recovery_mark >= 0) {
    p.recovery =
        first_success >= 0 ? first_success - config.recovery_mark : -1;
    if (config.recovered_at) {
      double rc = config.recovered_at();
      // Replay can finish inside the fault window (restart happens at the
      // mark); clamp so "already recovered" reads as 0, not negative.
      p.recovery_complete =
          rc >= 0 ? std::max(0.0, rc - config.recovery_mark) : -1;
    } else {
      p.recovery_complete = -1;
    }
  }
  return p;
}

void print_figures(std::ostream& os, int first_figure,
                   const std::string& subject, const std::string& x_label,
                   const std::vector<Series>& series) {
  struct Metric {
    const char* title;
    double SweepPoint::* field;
    int precision;
  };
  const Metric metrics[] = {
      {"Throughput (queries/sec)", &SweepPoint::throughput, 2},
      {"Response Time (sec)", &SweepPoint::response, 2},
      {"Load1", &SweepPoint::load1, 3},
      {"CPU Load (%)", &SweepPoint::cpu, 1},
  };

  // Collect the union of x values, sorted.
  std::map<double, bool> xs;
  for (const auto& s : series) {
    for (const auto& p : s.points) xs[p.x] = true;
  }

  int figure_index = 0;
  for (const auto& m : metrics) {
    metrics::Table table("Figure " +
                         std::to_string(first_figure + figure_index) + ": " +
                         subject + " " + m.title + " vs. " + x_label);
    std::vector<std::string> cols{x_label};
    for (const auto& s : series) cols.push_back(s.name);
    table.set_columns(cols);
    for (const auto& [x, unused] : xs) {
      std::vector<std::string> row{metrics::Table::num(x, 0)};
      for (const auto& s : series) {
        double v = -1;
        for (const auto& p : s.points) {
          if (p.x == x) {
            v = p.*(m.field);
            break;
          }
        }
        row.push_back(metrics::Table::num(v, m.precision));
      }
      table.add_row(row);
    }
    table.print_text(os);
    os << '\n';
    ++figure_index;
  }
}

}  // namespace gridmon::core
