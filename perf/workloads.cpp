/// The four benchmark workloads and the runs gridmon_bench forks for them.
/// Everything here goes through the simulator's public API only: the
/// benchmark stands where a user of the library stands.

#include <algorithm>
#include <cstring>
#include <fstream>
#include <memory>
#include <stdexcept>

#include "bench.hpp"
#include "gridmon/core/frontier.hpp"
#include "gridmon/core/scenario_spec.hpp"
#include "gridmon/core/scenarios.hpp"
#include "gridmon/core/workload.hpp"
#include "gridmon/trace/breakdown.hpp"
#include "gridmon/trace/chrome_export.hpp"
#include "gridmon/trace/timeline.hpp"

namespace perf {
namespace {

using namespace gridmon;

// Timed runs advance the window one slice at a time; traced runs use two
// plain run(until) calls, which doubles as the check that slicing does
// not change the model's outputs.
constexpr int kShards = 8;

enum class Engine { Legacy, Sharded };

struct Def {
  std::string name;
  core::ScenarioSpec spec;
  int users = 0;
  Engine engine = Engine::Legacy;
  /// Filter text of the workload's LDAP search (the GRIS's "all" filter,
  /// the GIIS "query part" filter); empty when queries search no DIT.
  std::string ldap_filter;
};

const std::vector<Def>& defs() {
  static const std::vector<Def> kDefs = [] {
    using core::ScenarioSpec;
    using core::ServiceKind;
    const ScenarioSpec gris =
        ScenarioSpec::build().service(ServiceKind::Gris).build();
    store::StoreConfig wal;
    wal.mode = store::DurabilityMode::Wal;
    return std::vector<Def>{
        {"gris_legacy_100k", gris, 100000, Engine::Legacy,
         "(objectclass=MdsDevice)"},
        {"gris_sharded_1m", gris, 1000000, Engine::Sharded,
         "(objectclass=MdsDevice)"},
        {"giis_hier_600",
         ScenarioSpec::build()
             .service(ServiceKind::Hierarchy)
             .gris_count(200)
             .two_level(true)
             .cachettl(45)
             .build(),
         600, Engine::Legacy, "(Mds-provider-name=ip0)"},
        {"hawkeye_ads_5k",
         ScenarioSpec::build()
             .service(ServiceKind::ManagerAggregate)
             .collectors(11)
             .machines(5000)
             .store(wal)
             .build(),
         10, Engine::Legacy, ""},
    };
  }();
  return kDefs;
}

const Def& find_def(const std::string& name) {
  for (const Def& d : defs()) {
    if (d.name == name) return d;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

/// The testbed ext_scale sizes for a user count: the paper's 50 users per
/// client host, and past 100k users a network that grows with the
/// population so the point measures the engine, not a wedged pipe.
/// A copy of ext_scale::testbed_for, which is not public API; keep the two
/// in step, or the GRIS workloads stop reproducing BENCH_scale.json.
core::TestbedConfig testbed_config(int users, std::uint64_t seed) {
  core::TestbedConfig tc;
  tc.seed = seed;
  tc.uc_clients = std::max(20, (users + 49) / 50);
  if (users > 100000) {
    tc.wan_bandwidth_bytes = 1e6 * tc.uc_clients;
    tc.lan_bandwidth_bytes = 1.25e9;
  }
  return tc;
}

struct Counters {
  double queries = 0;
  double attempts = 0;
  double refused = 0;
  double errors = 0;
  double fast_refused = 0;
  double shard_msgs = 0;
  double port_admitted = 0;
  double port_refused = 0;
  double giis_registrations = 0;
  double ads_received = 0;
  double ads_dropped = 0;
  double wal_bytes = 0;
  double flushes = 0;
};

/// One completed query, in the engine's canonical completion order.
struct Done {
  double t;
  double response;
};

/// A live workload: testbed, deployment, and the user population on the
/// workload's engine. Construction is the timed set-up.
class Deployment {
 public:
  Deployment(const Def& def, std::uint64_t seed, HostTimer& timer,
             bool traced)
      : def_(def) {
    setup_[0] = timer.time("setup.testbed", [&] {
      tb_ = std::make_unique<core::Testbed>(testbed_config(def.users, seed));
    });
    setup_[1] = timer.time("setup.scenario", [&] {
      scenario_ = core::make_scenario(*tb_, def.spec);
    });
    setup_[2] = timer.time("setup.prefill", [&] { scenario_->prefill(); });
    setup_[3] = timer.time("setup.spawn", [&] { spawn(traced); });
  }

  const double* setup() const { return setup_; }
  core::Testbed& testbed() { return *tb_; }
  trace::Collector* collector() { return collector_.get(); }

  std::size_t run(double until) {
    return legacy_ ? tb_->sim().run(until) : sharded_->run(until);
  }
  double now() const {
    return legacy_ ? tb_->sim().now() : sharded_->now();
  }
  std::size_t live_tasks() { return tb_->sim().live_task_count(); }

  Counters counters() {
    Counters c;
    if (legacy_) {
      c.queries = static_cast<double>(legacy_->total_queries());
      c.attempts = static_cast<double>(legacy_->total_attempts());
      c.refused = static_cast<double>(legacy_->refused_attempts());
      c.errors = static_cast<double>(legacy_->error_count());
    } else {
      c.queries = static_cast<double>(sharded_->total_queries());
      c.attempts = static_cast<double>(sharded_->total_attempts());
      c.refused = static_cast<double>(sharded_->refused_attempts());
      c.errors = static_cast<double>(sharded_->error_count());
      c.fast_refused = static_cast<double>(sharded_->fast_refused());
      c.shard_msgs = static_cast<double>(sharded_->messages_delivered());
    }
    for (const net::ServerPort* p : server_ports()) {
      c.port_admitted += static_cast<double>(p->total_admitted());
      c.port_refused += static_cast<double>(p->total_refused());
    }
    if (auto* h = hierarchy()) {
      c.giis_registrations =
          static_cast<double>(h->root->registrations_processed());
      for (auto& mid : h->mids) {
        c.giis_registrations +=
            static_cast<double>(mid->registrations_processed());
      }
    }
    if (const hawkeye::Manager* m = manager()) {
      c.ads_received = static_cast<double>(m->ads_received());
      c.ads_dropped = static_cast<double>(m->ads_dropped());
    }
    if (const store::Log* log = scenario_->store_log()) {
      c.wal_bytes = log->stats().wal_bytes;
      c.flushes = static_cast<double>(log->stats().flushes);
    }
    return c;
  }

  double giis_entries() {
    double n = 0;
    if (auto* h = hierarchy()) {
      n = static_cast<double>(h->root->entry_count());
      for (auto& mid : h->mids) n += static_cast<double>(mid->entry_count());
    }
    return n;
  }

  std::vector<Done> completions() {
    std::vector<Done> out;
    if (legacy_) {
      for (const core::Completion& c : legacy_->completions()) {
        out.push_back(Done{c.t, c.response_time});
      }
    } else {
      for (const core::FrontierCompletion& c :
           sharded_->merged_completions()) {
        out.push_back(Done{c.t, c.response_time});
      }
    }
    return out;
  }

  /// The DIT the workload's queries search: the GRIS's own, or for the
  /// hierarchy the union of the GRIS that register with the first site
  /// GIIS (the site servers' DITs are not public). Null without LDAP.
  const ldap::Dit* search_dit() {
    if (def_.spec.service == core::ServiceKind::Gris) {
      return &static_cast<core::GrisScenario&>(*scenario_).gris->dit();
    }
    auto* h = hierarchy();
    if (h == nullptr) return nullptr;
    if (!site_union_) {
      std::vector<const ldap::Entry*> entries;
      for (std::size_t i = 0; i < h->gris.size(); i += h->mids.size()) {
        const ldap::Dit& dit = h->gris[i]->dit();
        for (const std::string& dn : dit.dns()) {
          if (const ldap::Entry* e = dit.find(ldap::Dn::parse(dn))) {
            entries.push_back(e);
          }
        }
      }
      // Parents before children.
      std::stable_sort(entries.begin(), entries.end(),
                       [](const ldap::Entry* a, const ldap::Entry* b) {
                         return a->dn().depth() < b->dn().depth();
                       });
      site_union_ = std::make_unique<ldap::Dit>();
      for (const ldap::Entry* e : entries) site_union_->add(*e);
    }
    return site_union_.get();
  }

  const hawkeye::Manager* manager() {
    if (def_.spec.service != core::ServiceKind::ManagerAggregate) {
      return nullptr;
    }
    return static_cast<core::ManagerAggregationScenario&>(*scenario_)
        .manager.get();
  }

 private:
  void spawn(bool traced) {
    const std::string server = def_.spec.server_host();
    if (traced) {
      collector_ =
          std::make_unique<trace::Collector>(tb_->sim(), tb_->config().seed);
      scenario_->instrument(*collector_);
      core::instrument_host(*tb_, *collector_, server);
    }
    if (def_.engine == Engine::Legacy) {
      legacy_ = std::make_unique<core::UserWorkload>(*tb_,
                                                     scenario_->query_fn());
      if (collector_) legacy_->enable_tracing(*collector_);
      legacy_->spawn_users(def_.users, tb_->uc_names());
    } else {
      // One simulation thread: nothing depends on the host's scheduler.
      core::FrontierConfig fc;
      fc.shards = kShards;
      fc.threads = 0;
      fc.admission_port = scenario_->server_port();
      fc.server_host = server;
      sharded_ = std::make_unique<core::FrontierWorkload>(
          *tb_, scenario_->query_fn(), fc);
      sharded_->spawn_users(def_.users);
    }
    tb_->sampler().start();
  }

  core::HierarchyScenario* hierarchy() {
    if (def_.spec.service != core::ServiceKind::Hierarchy) return nullptr;
    return &static_cast<core::HierarchyScenario&>(*scenario_);
  }

  /// The listen ports user queries hit: the site GIISes for the routed
  /// hierarchy, else the scenario's service under test.
  std::vector<const net::ServerPort*> server_ports() {
    if (auto* h = hierarchy(); h != nullptr && !h->mids.empty()) {
      std::vector<const net::ServerPort*> ports;
      for (auto& mid : h->mids) ports.push_back(&mid->port());
      return ports;
    }
    return {scenario_->server_port()};
  }

  const Def& def_;
  double setup_[4] = {0, 0, 0, 0};
  // Declaration order is destruction order reversed: the workloads shut
  // the simulation down (destroying user coroutines) before the
  // collector and the deployment they reference go away.
  std::unique_ptr<core::Testbed> tb_;
  std::unique_ptr<core::Scenario> scenario_;
  std::unique_ptr<trace::Collector> collector_;
  std::unique_ptr<core::UserWorkload> legacy_;
  std::unique_ptr<core::FrontierWorkload> sharded_;
  std::unique_ptr<ldap::Dit> site_union_;
};

struct Window {
  double t0 = 0;
  double t1 = 0;
  Counters start;  // at the beginning of the 90 s
  Counters c0;     // at the end of the warm-up
  Counters c1;     // at the end of the measured window
  double events = 0;         // all 90 s
  double events_window = 0;  // the measured 60 s
  double live_peak = 0;
  double run_s = 0;     // host seconds for all 90 s
  double window_s = 0;  // host seconds for the measured 60 s
  std::vector<double> slice_ms;
};

Window drive(Deployment& d, HostTimer& timer, bool sliced) {
  Window w;
  const double start = d.now();
  w.start = d.counters();
  trace::Collector* col = d.collector();
  auto step = [&](const std::string& name, double until, bool measured) {
    std::size_t events = 0;
    double s = timer.time(name, [&] { events = d.run(until); });
    w.events += static_cast<double>(events);
    w.run_s += s;
    if (measured) {
      w.events_window += static_cast<double>(events);
      w.window_s += s;
    }
    w.live_peak = std::max(w.live_peak, static_cast<double>(d.live_tasks()));
    return s;
  };
  auto begin_window = [&] {
    w.t0 = d.now();
    w.c0 = d.counters();
    if (col != nullptr) col->set_enabled(true);
  };
  if (sliced) {
    for (int k = 1; k <= kSlices; ++k) {
      double s = step("slice " + std::to_string(k), start + k,
                      k > kWarmupSlices);
      w.slice_ms.push_back(s * 1e3);
      if (k == kWarmupSlices) begin_window();
    }
  } else {
    step("warmup", start + kWarmupSlices, false);
    begin_window();
    step("window", w.t0 + (kSlices - kWarmupSlices), true);
  }
  if (col != nullptr) col->set_enabled(false);
  w.t1 = d.now();
  w.c1 = d.counters();
  return w;
}

/// FNV-1a over raw bytes.
void fnv(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
}

/// The model's outputs for the measured window, and their digest: the
/// core MetricsReport fields (x, throughput, response, load1, cpu,
/// refused/s) plus the completion count, hashed bit for bit.
void record_outputs(RunRecord& r, const Def& def, Deployment& d,
                    const Window& w) {
  std::vector<double> resp;
  double sum = 0;
  for (const Done& c : d.completions()) {
    if (c.t >= w.t0 && c.t <= w.t1) {
      resp.push_back(c.response);
      sum += c.response;
    }
  }
  const double span = w.t1 - w.t0;
  const auto n = static_cast<double>(resp.size());
  const std::string server = def.spec.server_host();
  core::MetricsReport m;
  m.x = def.users;
  m.throughput = span > 0 ? n / span : 0;
  m.response = n > 0 ? sum / n : 0;
  m.load1 = d.testbed().sampler().series(server + ".load1").mean_over(w.t0,
                                                                      w.t1);
  m.cpu = d.testbed().sampler().series(server + ".cpu_pct").mean_over(w.t0,
                                                                      w.t1);
  m.refused = span > 0 ? (w.c1.refused - w.c0.refused) / span : 0;

  std::uint64_t h = 0xcbf29ce484222325ull;
  for (double v : {m.x, m.throughput, m.response, m.load1, m.cpu, m.refused}) {
    fnv(h, &v, sizeof v);
  }
  const auto completed = static_cast<std::uint64_t>(resp.size());
  fnv(h, &completed, sizeof completed);

  auto& v = r.values;
  v["model.tput_qps"] = m.throughput;
  v["model.resp_p50_s"] = trace::percentile(resp, 0.50);
  v["model.resp_p99_s"] = trace::percentile(resp, 0.99);
  v["model.refused_per_s"] = m.refused;
  // 48 bits, so the digest survives a round trip through a JSON double.
  v["model.digest"] = static_cast<double>(h >> 16);
  v["host.server_cpu_pct"] = m.cpu;
  v["host.server_load1"] = m.load1;
  v["core.completions"] = n;
}

void record_run(RunRecord& r, const Def& def, Deployment& d,
                const Window& w) {
  auto& v = r.values;
  const double* setup = d.setup();
  v["core.setup_testbed_s"] = setup[0];
  v["core.setup_scenario_s"] = setup[1];
  v["core.setup_prefill_s"] = setup[2];
  v["core.setup_spawn_s"] = setup[3];
  v["setup_s"] = setup[0] + setup[1] + setup[2] + setup[3];
  v["wall_s"] = w.run_s;
  v["window_s"] = w.window_s;
  v["sim.events"] = w.events;
  v["sim.events_window"] = w.events_window;
  v["sim.live_tasks_peak"] = w.live_peak;
  v["sim.shard_msgs"] = w.c1.shard_msgs - w.start.shard_msgs;
  v["core.fast_refused"] = w.c1.fast_refused - w.start.fast_refused;
  v["core.queries"] = w.c1.queries - w.c0.queries;
  v["core.attempts"] = w.c1.attempts - w.c0.attempts;
  v["core.errors"] = w.c1.errors - w.c0.errors;
  v["net.port_admitted"] = w.c1.port_admitted - w.c0.port_admitted;
  v["net.port_refused"] = w.c1.port_refused - w.c0.port_refused;
  v["mds.giis_registrations"] =
      w.c1.giis_registrations - w.c0.giis_registrations;
  v["mds.giis_entries"] = d.giis_entries();
  v["hawkeye.ads_received"] = w.c1.ads_received - w.c0.ads_received;
  v["hawkeye.ads_dropped"] = w.c1.ads_dropped - w.c0.ads_dropped;
  v["store.wal_bytes"] = w.c1.wal_bytes - w.c0.wal_bytes;
  v["store.flushes"] = w.c1.flushes - w.c0.flushes;
  record_outputs(r, def, d, w);
}

void record_trace(RunRecord& r, const Def& def, const Window& w,
                  const trace::SeriesTrace& st) {
  auto& v = r.values;
  v["trace.spans"] = static_cast<double>(st.data.spans.size());
  v["trace.counter_samples"] = static_cast<double>(st.data.counters.size());
  trace::SeriesBreakdown b = trace::compute_breakdown(st);
  for (const char* kind : kStageKinds) {
    const std::string key = std::string("stage.") + kind;
    v[key + ".count"] = 0;
    v[key + ".self_share"] = 0;
    v[key + ".p50_ms"] = 0;
    for (const trace::KindStats& ks : b.kinds) {
      if (std::strcmp(trace::kind_name(ks.kind), kind) != 0) continue;
      v[key + ".count"] = static_cast<double>(ks.count);
      v[key + ".self_share"] = ks.share;
      v[key + ".p50_ms"] = ks.incl_p50 * 1e3;
    }
  }
  const std::string server = def.spec.server_host();
  const double span = w.t1 - w.t0;
  auto mean_active = [&](const std::string& track) {
    return span > 0 ? trace::integrate_active(st.data, track, w.t0, w.t1) /
                          span
                    : 0;
  };
  v["host.server_runq_mean"] = mean_active(server + ".cpu");
  v["net.server_nic_flows_mean"] =
      mean_active(server + ".nic_tx") + mean_active(server + ".nic_rx");
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> names;
    for (const Def& d : defs()) names.push_back(d.name);
    return names;
  }();
  return kNames;
}

RunRecord timed_run(const std::string& workload, std::uint64_t seed,
                    Clock::time_point epoch) {
  const Def& def = find_def(workload);
  HostTimer timer(epoch);
  RunRecord r;
  Deployment d(def, seed, timer, false);
  Window w = drive(d, timer, true);
  record_run(r, def, d, w);
  r.slice_ms = std::move(w.slice_ms);
  r.spans = std::move(timer.spans);
  return r;
}

RunRecord traced_run(const std::string& workload, std::uint64_t seed,
                     Clock::time_point epoch, std::size_t queue_depth,
                     const std::string& trace_dir) {
  const Def& def = find_def(workload);
  HostTimer timer(epoch);
  RunRecord r;
  Deployment d(def, seed, timer, true);
  Window w = drive(d, timer, false);
  record_run(r, def, d, w);

  trace::SeriesTrace st{def.name, d.collector()->take()};
  timer.time("trace.breakdown", [&] { record_trace(r, def, w, st); });
  if (!trace_dir.empty()) {
    const std::string path = trace_dir + "/" + def.name + ".sim_trace.json";
    std::ofstream out(path, std::ios::binary);
    trace::write_chrome_trace(out, {st});
    if (!out) throw std::runtime_error("cannot write " + path);
  }
  st = {};

  auto& v = r.values;
  v["sim.replay_event_ns"] = replay_event_ns(queue_depth, seed, timer);
  LdapCost ldap;
  if (const ldap::Dit* dit = d.search_dit()) {
    ldap = ldap_cost(*dit, def.ldap_filter, timer);
  }
  v["ldap.filter_parse_us"] = ldap.parse_us;
  v["ldap.search_us"] = ldap.search_us;
  v["ldap.search_entries"] = ldap.entries;
  ClassAdCost classad;
  if (const hawkeye::Manager* m = d.manager()) {
    classad = classad_cost(*m, def.spec.machines, def.spec.collectors,
                           def.spec.constraint, timer);
  }
  v["classad.build_ad_us"] = classad.build_ad_us;
  v["classad.scan_us"] = classad.scan_us;
  r.spans = std::move(timer.spans);
  return r;
}

}  // namespace perf
