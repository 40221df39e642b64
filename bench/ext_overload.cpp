/// Extension: overload resilience under open-loop load. The paper's
/// closed-loop users self-throttle, so its servers degrade gracefully by
/// construction; arrival-driven clients do not, and §3's refused-
/// connection behavior turns into a retry storm the moment offered load
/// (plus retries) crosses capacity. This bench measures what the
/// resilience layer (docs/RESILIENCE.md) buys on the GRIS deployment:
///
///   Phase A  arrival-rate sweep through saturation, mechanisms off vs
///            on (retry budgets + breaker client-side; EDF queue +
///            deadline shedding + serve-stale server-side). Baseline
///            goodput collapses past the knee while the resilient series
///            holds near its pre-saturation peak.
///   Phase B  collector-outage-then-heal retry storm at a fixed rate.
///            Without budgets the retry backlog keeps effective load
///            above capacity after the heal (a metastable failure: the
///            outage ends, the outage's load does not); with budgets the
///            amplification is bounded and goodput re-converges. Reports
///            time-to-recovery (-1 = never re-converged).
///   Phase C  wall-clock floor of one resilient storm run, so CI can
///            keep an events-per-second floor on the queueing hot path.
///
/// Emits BENCH_overload.json.
///
///   $ ./bench/ext_overload            # full sweep + storm
///   $ ./bench/ext_overload --quick    # CI smoke (short spans)

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "gridmon/fault/injector.hpp"

using namespace gridmon;
using namespace gridmon::bench;
using namespace gridmon::core;

namespace {

constexpr double kDeadline = 25.0;  // a completion later than this is waste

/// The GRIS-cache deployment every phase runs against. `resilient`
/// switches the whole overload-control layer on.
ScenarioSpec build_spec(bool resilient) {
  SpecBuilder b;  // GRIS with cache, 10 providers, server lucky7
  // Fatten the providers (200 entries each) so the search walk costs real
  // CPU per query: the server's knee lands near 6 q/s and the sweep can
  // cross it with seconds of simulated time instead of hours.
  b.provider_entries(200);
  // The paper's slapd default (512) lets half a thousand admitted queries
  // rot in the worker queue where no client-visible signal exists; a tight
  // backlog turns overload into refusals (baseline) or a policed wait
  // queue (resilient) at the port, where the mechanisms under test live.
  b.gris_backlog(8);
  b.goodput_deadline(kDeadline);
  if (resilient) {
    resilience::Config r;
    r.enabled = true;
    r.client.enabled = true;
    r.server.enabled = true;
    r.server.discipline = resilience::QueueDiscipline::DeadlineEdf;
    r.server.deadline_budget = 15.0;
    r.server.serve_stale = true;
    b.resilience(std::move(r));
  }
  return b.build();
}

/// Retry behavior of the open-loop clients: deep enough to make an
/// outage-driven storm, identical for both series so only the budget /
/// breaker / shedding mechanisms differ.
WorkloadConfig open_clients(const ScenarioSpec& spec) {
  // Patient one-shot scripts: sixty retries spread over ~8 minutes (the
  // schedule's last entry repeats), so an outage's whole arrival cohort
  // is still hammering the server long after it heals. This is the fuel
  // of the metastable storm; both series get the same schedule and only
  // the budget/breaker/shedding differ.
  WorkloadConfig wc;
  wc.max_attempts = 61;
  wc.retry_schedule = {2, 4, 8};
  if (spec.resilience.enabled) wc.resilience = spec.resilience.client;
  return wc;
}

struct OverPoint {
  std::string series;
  MetricsReport m;                // x = offered arrival rate
  std::uint64_t outstanding = 0;  // queue still growing at window end?
};

/// Phase A: one fault-free open-loop point at a fixed arrival rate.
OverPoint run_rate_point(const BenchOptions& opt, const std::string& series,
                         const ScenarioSpec& spec, double rate) {
  TestbedConfig tc;
  tc.seed = opt.seed_for(spec);
  Testbed tb(tc);
  auto scenario = make_scenario(tb, spec);
  scenario->prefill();
  UserWorkload w(tb, scenario->query_fn(), open_clients(spec));
  w.start_arrivals(rate, tb.uc_names());
  tb.sampler().start();

  MeasureConfig mc = opt.measure();
  mc.port = scenario->server_port();
  mc.goodput_deadline = kDeadline;
  OverPoint p{series, measure(tb, w, spec.server_host(), rate, mc),
              w.outstanding()};
  std::cout << "  [" << series << "] rate=" << metrics::Table::num(rate, 0)
            << " tput=" << metrics::Table::num(p.m.throughput)
            << " goodput=" << metrics::Table::num(p.m.goodput)
            << " amp=" << metrics::Table::num(p.m.retry_amp, 2)
            << " shed/s=" << metrics::Table::num(p.m.shed_rate)
            << " outstanding=" << p.outstanding << "\n";
  return p;
}

struct StormResult {
  std::string series;
  double pre_goodput = 0;      // mean goodput before the outage
  double post_goodput = 0;     // mean goodput over the final buckets
  double recovery_s = -1;      // heal -> goodput back to 80% of pre; -1 never
  double peak_amp = 0;         // worst per-bucket attempts/arrivals
  std::uint64_t suppressed = 0;  // retries the budget refused to fund
  std::uint64_t fast_fails = 0;  // attempts the breaker refused to send
  std::size_t events = 0;        // engine events (phase C reads this)
  double wall = 0;               // wall-clock seconds (phase C)
};

/// Phase B: fixed-rate stream, server outage [t_fault, t_heal), long
/// post-heal window. Goodput and amplification are tracked per bucket so
/// the run reports when (whether) the storm dissipated.
StormResult run_storm(const BenchOptions& opt, const std::string& series,
                      const ScenarioSpec& spec, double rate) {
  const double warmup = opt.quick ? 30 : 60;
  const double pre = opt.quick ? 90 : 180;     // steady window before fault
  const double outage = opt.quick ? 90 : 120;
  const double post = opt.quick ? 360 : 900;   // watch for re-convergence
  const double bucket = 15.0;

  TestbedConfig tc;
  tc.seed = opt.seed_for(spec);
  Testbed tb(tc);
  auto scenario = make_scenario(tb, spec);
  scenario->prefill();
  UserWorkload w(tb, scenario->query_fn(), open_clients(spec));
  fault::Injector injector(tb.sim(), &tb.network());
  scenario->register_faults(injector);
  double t_fault = tb.sim().now() + warmup + pre;
  double t_heal = t_fault + outage;
  fault::FaultPlan plan;
  plan.crash("server", t_fault, t_heal);
  injector.arm(plan);
  w.start_arrivals(rate, tb.uc_names());
  tb.sampler().start();

  tb.sim().run(tb.sim().now() + warmup);
  double t0 = tb.sim().now();
  double t_end = t_heal + post;
  // Per-bucket arrival/attempt counters (retry amplification over time).
  std::vector<double> amp;
  // gridmon-lint: suppress(determinism.wall-clock) -- measures the real
  // cost of running the simulator; never feeds sim state
  auto t1 = std::chrono::steady_clock::now();
  std::size_t events = 0;
  {
    std::uint64_t arr0 = w.total_queries();
    std::uint64_t att0 = w.total_attempts();
    for (double t = t0; t < t_end; t += bucket) {
      events += tb.sim().run(std::min(t + bucket, t_end));
      std::uint64_t arr1 = w.total_queries();
      std::uint64_t att1 = w.total_attempts();
      amp.push_back(arr1 > arr0 ? static_cast<double>(att1 - att0) /
                                      static_cast<double>(arr1 - arr0)
                                : 0);
      arr0 = arr1;
      att0 = att1;
    }
  }
  // gridmon-lint: suppress(determinism.wall-clock) -- measures the real
  // cost of running the simulator; never feeds sim state
  auto t2 = std::chrono::steady_clock::now();

  StormResult r;
  r.series = series;
  r.events = events;
  r.wall = std::chrono::duration<double>(t2 - t1).count();
  r.pre_goodput = w.goodput(t0, t_fault, kDeadline);
  double tail = std::max(t_heal, t_end - 300.0);
  r.post_goodput = w.goodput(tail, t_end, kDeadline);
  for (double a : amp) r.peak_amp = std::max(r.peak_amp, a);
  // Recovery: first post-heal point from which goodput *sustains* 80% of
  // the pre-outage level for four consecutive buckets — the storm's retry
  // waves make single buckets spike, and one lucky bucket is not
  // re-convergence.
  const int need = 4;
  int streak = 0;
  for (double t = t_heal; t + bucket <= t_end; t += bucket) {
    streak = w.goodput(t, t + bucket, kDeadline) >= 0.8 * r.pre_goodput
                 ? streak + 1
                 : 0;
    if (streak == need) {
      r.recovery_s = t + bucket - t_heal - (need - 1) * bucket;
      break;
    }
  }
  r.suppressed = w.resilience_policy().budget().suppressed();
  r.fast_fails = w.resilience_policy().breaker().fast_fails();
  std::cout << "  [" << series << "] pre="
            << metrics::Table::num(r.pre_goodput)
            << " post=" << metrics::Table::num(r.post_goodput)
            << " recovery="
            << (r.recovery_s < 0
                    ? std::string("never")
                    : metrics::Table::num(r.recovery_s, 1) + "s")
            << " peak_amp=" << metrics::Table::num(r.peak_amp, 2)
            << " suppressed=" << r.suppressed
            << " fast_fails=" << r.fast_fails << "\n";
  return r;
}

void write_json(const std::string& path, bool quick,
                const std::vector<OverPoint>& points,
                const StormResult& base, const StormResult& res,
                double events_per_sec) {
  std::ofstream out(path);
  out.precision(6);
  out << "{\n"
      << "  \"bench\": \"ext_overload\",\n"
      << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
      << "  \"floor_point\": {\"series\": \"resilient storm\", \"events\": "
      << res.events << ", \"wall_clock_s\": " << res.wall
      << ", \"events_per_sec\": " << events_per_sec << "},\n"
      << "  \"storm\": {\n"
      << "    \"baseline\": {\"pre_goodput\": " << base.pre_goodput
      << ", \"post_goodput\": " << base.post_goodput
      << ", \"recovery_s\": " << base.recovery_s
      << ", \"peak_retry_amp\": " << base.peak_amp << "},\n"
      << "    \"resilient\": {\"pre_goodput\": " << res.pre_goodput
      << ", \"post_goodput\": " << res.post_goodput
      << ", \"recovery_s\": " << res.recovery_s
      << ", \"peak_retry_amp\": " << res.peak_amp
      << ", \"suppressed_retries\": " << res.suppressed
      << ", \"breaker_fast_fails\": " << res.fast_fails << "}\n"
      << "  },\n"
      << "  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const OverPoint& p = points[i];
    out << "    {\"series\": \"" << p.series << "\", \"rate\": " << p.m.x
        << ", \"throughput\": " << p.m.throughput
        << ", \"goodput\": " << p.m.goodput
        << ", \"response\": " << p.m.response
        << ", \"retry_amp\": " << p.m.retry_amp
        << ", \"shed_rate\": " << p.m.shed_rate
        << ", \"outstanding\": " << p.outstanding << "}"
        << (i + 1 < points.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "wrote " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions opt = parse_options(argc, argv);
  // With 200-entry providers the GRIS-cache knee sits near 2 q/s; sweep
  // arrival rates from well under to well past it.
  std::vector<double> rates{0.5, 1, 1.5, 2, 3, 4, 6, 8};
  if (opt.quick) rates = {1, 2, 6};

  std::cout << "Phase A: open-loop arrival sweep, mechanisms off vs on\n";
  std::vector<OverPoint> points;
  for (bool resilient : {false, true}) {
    ScenarioSpec spec = build_spec(resilient);
    std::string series = resilient ? "resilient" : "baseline";
    for (double rate : rates) {
      points.push_back(run_rate_point(opt, series, spec, rate));
    }
  }

  std::cout << "\nPhase B: collector outage + heal (retry storm)\n";
  const double storm_rate = 1.6;  // ~0.9x the knee: healthy but tight
  StormResult base =
      run_storm(opt, "baseline", build_spec(false), storm_rate);
  StormResult res =
      run_storm(opt, "resilient", build_spec(true), storm_rate);

  std::cout << "\nPhase C: engine floor (resilient storm wall-clock)\n";
  double events_per_sec =
      res.wall > 0 ? static_cast<double>(res.events) / res.wall : 0;
  std::cout << "  events=" << res.events << " wall="
            << metrics::Table::num(res.wall, 3)
            << "s ev/s=" << metrics::Table::num(events_per_sec, 0) << "\n";

  std::cout << "\n";
  metrics::Table table("Open-loop overload: baseline vs resilient");
  table.set_columns({"series", "rate (q/s)", "tput (q/s)", "goodput (q/s)",
                     "resp (s)", "retry_amp", "shed/s", "outstanding"});
  for (const OverPoint& p : points) {
    table.add_row({p.series, metrics::Table::num(p.m.x, 0),
                   metrics::Table::num(p.m.throughput),
                   metrics::Table::num(p.m.goodput),
                   metrics::Table::num(p.m.response),
                   metrics::Table::num(p.m.retry_amp, 2),
                   metrics::Table::num(p.m.shed_rate),
                   std::to_string(p.outstanding)});
  }
  table.print_text(std::cout);
  std::cout << "\nStorm: baseline recovery="
            << (base.recovery_s < 0
                    ? std::string("never")
                    : metrics::Table::num(base.recovery_s, 1) + "s")
            << ", resilient recovery="
            << (res.recovery_s < 0
                    ? std::string("never")
                    : metrics::Table::num(res.recovery_s, 1) + "s")
            << "\n";

  if (!opt.csv_path.empty()) {
    // The open-loop points serialize through the shared MetricsReport
    // schema (x = offered rate); `outstanding` appends as a bench column.
    std::ofstream csv(opt.csv_path);
    const unsigned groups = core::kMetricCore | core::kMetricResilience;
    const std::vector<std::string> header_prefix{"bench", "series"};
    csv << core::csv_header(groups, header_prefix) << ",outstanding\n";
    for (const OverPoint& p : points) {
      const std::vector<std::string> prefix{"ext_overload", p.series};
      core::write_csv_row(csv, p.m, groups, prefix);
      csv << ',' << p.outstanding << '\n';
    }
    std::cout << "wrote " << opt.csv_path << "\n";
  }
  write_json("BENCH_overload.json", opt.quick, points, base, res,
             events_per_sec);
  return 0;
}
