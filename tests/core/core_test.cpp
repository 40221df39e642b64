#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "gridmon/core/adapters.hpp"
#include "gridmon/core/deployment.hpp"
#include "gridmon/core/experiment.hpp"
#include "gridmon/core/mapping.hpp"
#include "gridmon/core/scenario_spec.hpp"
#include "gridmon/core/scenarios.hpp"
#include "gridmon/core/testbed.hpp"
#include "gridmon/core/workload.hpp"
#include "gridmon/sim/resource.hpp"
#include "gridmon/trace/collector.hpp"

namespace gridmon::core {
namespace {

/// The window metrics of `w`'s completion log and counters over [t0, t1]
/// (counters taken from the start of the run).
SweepPoint window(Testbed& tb, const UserWorkload& w, double t0, double t1) {
  return window_report(tb, "", 0, w.completions(), {}, w.counters(), t0, t1);
}

TEST(MappingTest, MatchesPaperTable1) {
  const auto& table = component_mapping();
  ASSERT_EQ(table.size(), 4u);
  EXPECT_EQ(table[0].mds, "Information Provider");
  EXPECT_EQ(table[0].rgma, "Producer");
  EXPECT_EQ(table[0].hawkeye, "Module");
  EXPECT_EQ(table[1].mds, "GRIS");
  EXPECT_EQ(table[1].rgma, "ProducerServlet");
  EXPECT_EQ(table[1].hawkeye, "Agent");
  EXPECT_EQ(table[2].rgma, "None");
  EXPECT_EQ(table[3].mds, "GIIS");
  EXPECT_EQ(table[3].rgma, "Registry");
  EXPECT_EQ(table[3].hawkeye, "Manager");
  EXPECT_EQ(role_name(Role::DirectoryServer), "Directory Server");
}

TEST(TestbedTest, PaperTopology) {
  Testbed tb;
  EXPECT_EQ(tb.lucky_names().size(), 7u);  // lucky0,1,3..7 — no lucky2
  EXPECT_EQ(tb.uc_names().size(), 20u);
  EXPECT_EQ(tb.host("lucky0").cpu().cores(), 2);
  EXPECT_DOUBLE_EQ(tb.host("lucky0").cpu().speed_factor(), 1.133);
  EXPECT_EQ(tb.host("uc01").cpu().cores(), 1);
  // 15 fast + 5 slow UC clients.
  int fast = 0, slow = 0;
  for (const auto& name : tb.uc_names()) {
    double mhz = tb.host(name).cpu().speed_factor() * 1000;
    if (mhz > 1000) ++fast;
    else ++slow;
  }
  EXPECT_EQ(fast, 15);
  EXPECT_EQ(slow, 5);
  // Cross-site latency is WAN, intra-site is LAN.
  EXPECT_GT(tb.network().latency(tb.nic("uc01"), tb.nic("lucky0")), 0.001);
  EXPECT_LT(tb.network().latency(tb.nic("lucky0"), tb.nic("lucky1")), 0.001);
}

TEST(TestbedTest, NoLucky2) {
  Testbed tb;
  EXPECT_THROW(tb.host("lucky2"), std::invalid_argument);
}

// The one sizing rule behind every sweep point (core::Deployment).
// perf/workloads.cpp holds a copy of this rule that must match it, or
// the perf GRIS workloads stop measuring the testbed the benches do.
TEST(TestbedTest, SizingRule) {
  struct Row {
    int users;
    int uc_clients;
    double wan;
    double lan;
  };
  const Row rows[] = {
      {1, 20, 20e6, 12.5e6},
      {1000, 20, 20e6, 12.5e6},
      {1001, 21, 20e6, 12.5e6},
      {100000, 2000, 20e6, 12.5e6},
      {100001, 2001, 2001e6, 1.25e9},
  };
  for (const Row& r : rows) {
    TestbedConfig tc = testbed_for(r.users, 7);
    EXPECT_EQ(tc.uc_clients, r.uc_clients) << r.users;
    EXPECT_DOUBLE_EQ(tc.wan_bandwidth_bytes, r.wan) << r.users;
    EXPECT_DOUBLE_EQ(tc.lan_bandwidth_bytes, r.lan) << r.users;
    EXPECT_EQ(tc.seed, 7u);
  }
}

TEST(WorkloadTest, SpawnCapsUsersPerHost) {
  Testbed tb;
  TracedQueryFn noop = [](net::Interface&,
                          trace::Ctx) -> sim::Task<QueryAttempt> {
    co_return QueryAttempt{true, 100};
  };
  UserWorkload w(tb, noop);
  EXPECT_THROW(w.spawn_users(51, {"uc01"}), std::invalid_argument);
  w.spawn_users(50, {"uc01"});
  EXPECT_EQ(w.users(), 50);
}

TEST(WorkloadTest, ThinkTimePacesQueries) {
  Testbed tb;
  // Instant service: each user completes ~1 query per think period.
  TracedQueryFn instant = [](net::Interface&,
                             trace::Ctx) -> sim::Task<QueryAttempt> {
    co_return QueryAttempt{true, 0};
  };
  WorkloadConfig config;
  config.client_cpu_per_query = 0;
  UserWorkload w(tb, instant, config);
  w.spawn_users(10, {"uc01", "uc02"});
  tb.sim().run(101.0);
  // 10 users x ~1 query/s for 100 s.
  EXPECT_NEAR(window(tb, w, 1.0, 101.0).throughput, 10.0, 1.0);
  EXPECT_LT(window(tb, w, 0, 101.0).response, 0.01);
}

TEST(WorkloadTest, ResponseTimeIncludesServiceDelay) {
  Testbed tb;
  TracedQueryFn slow = [&tb](net::Interface&,
                             trace::Ctx) -> sim::Task<QueryAttempt> {
    co_await tb.sim().delay(3.0);
    co_return QueryAttempt{true, 0};
  };
  WorkloadConfig config;
  config.client_cpu_per_query = 0;
  UserWorkload w(tb, slow, config);
  w.spawn_users(5, {"uc01"});
  tb.sim().run(50.0);
  EXPECT_NEAR(window(tb, w, 0, 50.0).response, 3.0, 0.01);
  // Each user cycles every ~4 s.
  EXPECT_NEAR(window(tb, w, 4.0, 48.0).throughput, 5.0 / 4.0, 0.3);
}

TEST(WorkloadTest, RefusalsTriggerBackoffAndRetry) {
  Testbed tb;
  int attempts = 0;
  // Refuse the first two attempts of every query.
  TracedQueryFn flaky = [&attempts](net::Interface&,
                                    trace::Ctx) -> sim::Task<QueryAttempt> {
    ++attempts;
    co_return QueryAttempt{attempts % 3 == 0, 0};
  };
  WorkloadConfig config;
  config.client_cpu_per_query = 0;
  UserWorkload w(tb, flaky, config);
  w.spawn_users(1, {"uc01"});
  tb.sim().run(60.0);
  EXPECT_GT(w.refused_attempts(), 2u);
  ASSERT_FALSE(w.completions().empty());
  // SYN retransmit schedule: 3 s then 6 s before the third attempt lands.
  EXPECT_GE(w.completions()[0].response_time, 8.0);  // 3 s + 6 s SYN retries
}

TEST(MeasureTest, CollectsAllFourMetrics) {
  Testbed tb;
  GrisScenario scenario(tb, 10, true);
  UserWorkload w(tb, query_gris(*scenario.gris));
  w.spawn_users(10, tb.uc_names());
  tb.sampler().start();
  MeasureConfig mc;
  mc.warmup = 60;
  mc.duration = 120;
  SweepPoint p = measure(tb, w, "lucky7", 10, mc);
  EXPECT_EQ(p.x, 10);
  EXPECT_GT(p.throughput, 0.5);
  EXPECT_GT(p.response, 1.0);   // client tool + cache validation latency
  EXPECT_LT(p.response, 10.0);
  EXPECT_GE(p.cpu, 0.0);
}

/// One fault-free open-arrival point on the GRIS-cache deployment, shaped
/// like ext_access_patterns' open series at 450 equivalent users, with
/// its window metrics, counters and completion log at round-trip
/// precision.
std::string open_gris_digest() {
  ScenarioSpec spec;
  Testbed tb;
  auto scenario = make_scenario(tb, spec);
  WorkloadConfig wc;
  wc.max_attempts = 4;
  UserWorkload w(tb, scenario->query_fn(), wc);
  w.start_arrivals(450 / 4.3, tb.uc_names());
  tb.sampler().start();
  MeasureConfig mc;
  mc.warmup = 30;
  mc.duration = 120;
  SweepPoint p = measure(tb, w, spec.server_host(), 450, mc);
  std::ostringstream out;
  out.precision(17);
  out << p.throughput << ' ' << p.response << ' ' << p.load1 << ' ' << p.cpu
      << " queries=" << w.total_queries()
      << " attempts=" << w.total_attempts()
      << " abandoned=" << w.counters().abandoned
      << " completions=" << w.completions().size() << '\n';
  for (const Completion& c : w.completions()) {
    out << c.t << ' ' << c.response_time << ' ' << c.bytes << ' ' << c.stale
        << '\n';
  }
  return out.str();
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Recorded bytes of the open GRIS point: the metrics and counters line
/// verbatim, the completion log by size and FNV-1a hash.
TEST(OpenArrivalsTest, GrisPointMatchesRecordedGolden) {
  std::string d = open_gris_digest();
  EXPECT_EQ(d.substr(0, d.find('\n') + 1),
            "105.36666666666666 3.2919824274180862 0.56285939466847001 "
            "50.595798764337303 queries=15686 attempts=15686 abandoned=0 "
            "completions=15339\n");
  EXPECT_EQ(d.size(), 702495u);
  EXPECT_EQ(fnv1a(d), 13596893439669326865ull);
}

TEST(OpenArrivalsTest, ArrivalRateIsHonored) {
  Testbed tb;
  TracedQueryFn instant = [](net::Interface&,
                             trace::Ctx) -> sim::Task<QueryAttempt> {
    co_return QueryAttempt{true, 0};
  };
  UserWorkload w(tb, instant);
  w.start_arrivals(20.0, tb.uc_names());
  tb.sim().run(200.0);
  EXPECT_NEAR(static_cast<double>(w.total_queries()) / 200.0, 20.0, 2.0);
  EXPECT_NEAR(window(tb, w, 0, 200).throughput, 20.0, 2.0);
}

TEST(OpenArrivalsTest, ResponseTimeMeasured) {
  Testbed tb;
  TracedQueryFn slow = [&tb](net::Interface&,
                             trace::Ctx) -> sim::Task<QueryAttempt> {
    co_await tb.sim().delay(2.0);
    co_return QueryAttempt{true, 0};
  };
  UserWorkload w(tb, slow);
  w.start_arrivals(3.0, tb.uc_names());
  tb.sim().run(100.0);
  EXPECT_NEAR(window(tb, w, 0, 100).response, 2.0, 0.01);
  // Open loop: ~6 queries outstanding on average never throttles arrivals.
  EXPECT_GT(w.total_queries(), 250u);
}

TEST(OpenArrivalsTest, GivesUpAfterMaxAttempts) {
  Testbed tb;
  TracedQueryFn always_refused = [](net::Interface&,
                                    trace::Ctx) -> sim::Task<QueryAttempt> {
    co_return QueryAttempt{false, 0};
  };
  WorkloadConfig config;
  config.max_attempts = 3;
  config.retry_schedule = {0.5};
  UserWorkload w(tb, always_refused, config);
  w.start_arrivals(1.0, tb.uc_names());
  tb.sim().run(60.0);
  EXPECT_GT(w.counters().abandoned, 30u);
  EXPECT_TRUE(w.completions().empty());
  // At the cutoff at most the newest arrival can still be mid-retry.
  EXPECT_LE(w.outstanding(), 1u);
}

TEST(OpenArrivalsTest, OverloadGrowsOutstandingQueue) {
  // Offered load ~3x a single-threaded server's capacity: the in-flight
  // count must grow roughly linearly with time (no self-throttling).
  Testbed tb;
  sim::Resource server(tb.sim(), 1);
  TracedQueryFn one_at_a_time = [&](net::Interface&,
                                    trace::Ctx) -> sim::Task<QueryAttempt> {
    auto lease = co_await server.acquire();
    co_await tb.sim().delay(1.0);
    co_return QueryAttempt{true, 0};
  };
  UserWorkload w(tb, one_at_a_time);
  w.start_arrivals(3.0, tb.uc_names());
  tb.sim().run(60.0);
  std::uint64_t at60 = w.outstanding();
  tb.sim().run(120.0);
  std::uint64_t at120 = w.outstanding();
  EXPECT_GT(at60, 60u);          // ~2 excess arrivals/s pile up
  EXPECT_GT(at120, at60 + 60);   // and keep piling
}

/// An admitted query the service fails is an error, not a completion:
/// the open loop once broke out of its retry loop on `admitted` alone.
TEST(OpenArrivalsTest, FailedAnswersAreNotCompletions) {
  Testbed tb;
  TracedQueryFn broken = [](net::Interface&,
                            trace::Ctx) -> sim::Task<QueryAttempt> {
    QueryAttempt a;
    a.admitted = true;
    a.failed = true;
    co_return a;
  };
  WorkloadConfig config;
  config.max_attempts = 2;
  config.retry_schedule = {0.5};
  UserWorkload w(tb, broken, config);
  w.start_arrivals(2.0, tb.uc_names());
  tb.sim().run(60.0);
  EXPECT_GT(w.total_queries(), 60u);
  EXPECT_TRUE(w.completions().empty());
  EXPECT_EQ(w.counters().failures, w.total_attempts());
  EXPECT_EQ(w.refused_attempts(), 0u);
  // Every query is abandoned after its second failure, or still retrying.
  EXPECT_EQ(w.counters().abandoned + w.outstanding(), w.total_queries());
  EXPECT_LE(w.outstanding(), 2u);
}

/// Open arrivals are traced like closed-loop users: one root Query span
/// per arrival, a Backoff span under it for every retry wait.
TEST(OpenArrivalsTest, TracesOneQueryRootPerArrival) {
  Testbed tb;
  trace::Collector collector(tb.sim(), tb.config().seed);
  collector.set_enabled(true);
  int calls = 0;
  // Refuse every other attempt, so some arrivals retry.
  TracedQueryFn flaky = [&calls](net::Interface&,
                                 trace::Ctx) -> sim::Task<QueryAttempt> {
    co_return QueryAttempt{++calls % 2 == 0, 0};
  };
  UserWorkload w(tb, flaky);
  w.enable_tracing(collector);
  w.start_arrivals(5.0, tb.uc_names());
  tb.sim().run(30.0);
  std::uint64_t roots = 0;
  std::uint64_t backoffs = 0;
  for (const trace::SpanRecord& s : collector.spans()) {
    if (s.kind == trace::SpanKind::Query && s.parent == 0) ++roots;
    if (s.kind == trace::SpanKind::Backoff) {
      ++backoffs;
      EXPECT_NE(s.parent, 0u);
    }
  }
  EXPECT_GT(w.total_queries(), 100u);
  EXPECT_EQ(roots, w.total_queries());
  EXPECT_GT(w.refused_attempts(), 0u);
  EXPECT_EQ(backoffs, w.refused_attempts());
}

TEST(PrintFiguresTest, RendersAllMetricTables) {
  Series s;
  s.name = "MDS GRIS (cache)";
  s.points.push_back(SweepPoint{10, 2.3, 3.4, 0.2, 11});
  s.points.push_back(SweepPoint{100, 23.0, 3.5, 0.9, 40});
  std::ostringstream os;
  print_figures(os, 5, "Information Server", "No. of Users", {s});
  std::string out = os.str();
  EXPECT_NE(out.find("Figure 5"), std::string::npos);
  EXPECT_NE(out.find("Figure 8"), std::string::npos);
  EXPECT_NE(out.find("Throughput"), std::string::npos);
  EXPECT_NE(out.find("MDS GRIS (cache)"), std::string::npos);
  EXPECT_NE(out.find("CPU Load"), std::string::npos);
}

TEST(ScenarioTest, RgmaMediatedRouting) {
  Testbed tb;
  RgmaScenario scenario(tb, 10, RgmaScenario::Consumers::PerLuckyNode);
  EXPECT_EQ(scenario.consumer_servlets.size(), 7u);
  UserWorkload w(tb, scenario.mediated_query());
  w.spawn_users(7, tb.lucky_names());
  tb.sim().run(120.0);
  EXPECT_GT(w.completions().size(), 0u);
}

TEST(ScenarioTest, GiisPrefillWarmsCache) {
  Testbed tb;
  GiisScenario scenario(tb, 3, 10);
  scenario.prefill();
  EXPECT_GT(scenario.giis->entry_count(), 3u * 40u);
}

// ---- AttemptTask: the attempt path's owning awaitable ----

/// Await one attempt of `fn` and count the coroutine frames it
/// allocates. The count is taken inside this coroutine, so its
/// own frame is not in it.
sim::Task<void> count_attempt_frames(const TracedQueryFn& fn,
                                     net::Interface& nic, QueryAttempt* out,
                                     std::uint64_t* frames) {
  const auto& pool = sim::detail::frame_pool().stats();
  std::uint64_t before = pool.allocations;
  *out = co_await fn(nic, trace::Ctx{});
  *frames = pool.allocations - before;
}

sim::Task<void> await_attempt(AttemptTask task, QueryAttempt* out) {
  *out = co_await task;
}

/// Every client-facing service, each on its own Lucky node, with the
/// same listen backlog.
struct AllServices {
  Testbed tb;
  mds::Gris gris;
  mds::Giis giis;
  hawkeye::Agent agent;
  hawkeye::Manager manager;
  rgma::Registry registry;
  rgma::ProducerServlet producer;
  rgma::ConsumerServlet consumer;

  template <typename Config>
  static Config with_backlog(int backlog) {
    Config c;
    c.backlog = backlog;
    return c;
  }

  explicit AllServices(int backlog)
      : gris(tb.network(), tb.host("lucky7"), tb.nic("lucky7"), "lucky7",
             default_providers(1), with_backlog<mds::GrisConfig>(backlog)),
        giis(tb.network(), tb.host("lucky6"), tb.nic("lucky6"), "giis",
             with_backlog<mds::GiisConfig>(backlog)),
        agent(tb.network(), tb.host("lucky5"), tb.nic("lucky5"), "lucky5",
              hawkeye::default_modules(),
              with_backlog<hawkeye::AgentConfig>(backlog)),
        manager(tb.network(), tb.host("lucky4"), tb.nic("lucky4"),
                with_backlog<hawkeye::ManagerConfig>(backlog)),
        registry(tb.network(), tb.host("lucky3"), tb.nic("lucky3"),
                 with_backlog<rgma::RegistryConfig>(backlog)),
        producer(tb.network(), tb.host("lucky1"), tb.nic("lucky1"), "ps1",
                 with_backlog<rgma::ProducerServletConfig>(backlog)),
        consumer(tb.network(), tb.host("lucky0"), tb.nic("lucky0"), "cs0",
                 registry,
                 with_backlog<rgma::ConsumerServletConfig>(backlog)) {
    producer.add_producer("p1", "cpu");
    consumer.add_producer_servlet(producer);
  }
};

/// A client entry point, bound through its core adapter where it has
/// one (so the adapter is pinned too), and the frames one admitted
/// attempt of it allocates.
struct EntryPoint {
  const char* name;
  std::uint64_t admitted_frames;
  std::function<TracedQueryFn(AllServices&)> bind;
};

TracedQueryFn call(AttemptTask (*fn)(AllServices&, net::Interface&,
                                     trace::Ctx),
                   AllServices& s) {
  return [fn, &s](net::Interface& c, trace::Ctx x) { return fn(s, c, x); };
}

const std::vector<EntryPoint>& entry_points() {
  using S = AllServices;
  using I = net::Interface;
  using C = trace::Ctx;
  static const std::vector<EntryPoint> kEntries = {
      {"Gris::query", 5, [](S& s) { return query_gris(s.gris); }},
      {"Gris::search", 5,
       [](S& s) {
         return call(+[](S& s, I& c, C x) -> AttemptTask {
           return s.gris.search(c, mds::SearchRequest{}, x);
         }, s);
       }},
      {"Gris::fetch", 5,
       [](S& s) {
         return call(+[](S& s, I& c, C x) -> AttemptTask {
           return s.gris.fetch(c, x);
         }, s);
       }},
      {"Giis::search", 4,
       [](S& s) {
         return call(+[](S& s, I& c, C x) -> AttemptTask {
           return s.giis.search(c, mds::SearchRequest{}, x);
         }, s);
       }},
      {"Giis::fetch", 4,
       [](S& s) {
         return call(+[](S& s, I& c, C x) -> AttemptTask {
           return s.giis.fetch(c, x);
         }, s);
       }},
      {"Agent::query", 3, [](S& s) { return query_agent(s.agent); }},
      {"Agent::query_module", 1,
       [](S& s) {
         return call(+[](S& s, I& c, C x) -> AttemptTask {
           return s.agent.query_module(c, "cpu", x);
         }, s);
       }},
      {"Manager::query_status", 1,
       [](S& s) { return query_manager_status(s.manager); }},
      {"Manager::query_dump", 1,
       [](S& s) { return query_manager_dump(s.manager); }},
      {"Manager::query_constraint", 1,
       [](S& s) { return query_manager_constraint(s.manager, "true"); }},
      {"Manager::lookup_agent", 1,
       [](S& s) {
         return call(+[](S& s, I& c, C x) -> AttemptTask {
           return s.manager.lookup_agent(c, "lucky5", nullptr, x);
         }, s);
       }},
      {"ConsumerServlet::query", 3,
       [](S& s) { return query_consumer_servlet(s.consumer, "cpu"); }},
      {"Registry::client_query", 2,
       [](S& s) { return query_registry(s.registry, "cpu"); }},
      {"ProducerServlet::client_query", 2,
       [](S& s) { return query_producer_servlet(s.producer, "cpu"); }},
      {"ProducerServlet::select", 2,
       [](S& s) {
         return call(+[](S& s, I& c, C x) -> AttemptTask {
           return s.producer.select(c, "cpu", "", x);
         }, s);
       }},
      {"query_giis", 4, [](S& s) { return query_giis(s.giis); }},
  };
  return kEntries;
}

/// Frames one attempt of `entry` from uc01 allocates against fresh
/// services with the given listen backlog.
std::uint64_t attempt_frames(const EntryPoint& entry, int backlog,
                             QueryAttempt* attempt) {
  AllServices s(backlog);
  TracedQueryFn fn = entry.bind(s);
  std::uint64_t frames = 0;
  s.tb.sim().spawn(count_attempt_frames(fn, s.tb.nic("uc01"), attempt,
                                        &frames));
  s.tb.sim().run();
  return frames;
}

// A refused attempt allocates the entry point's own frame and nothing
// else: no adapter frame, no admitted-half frame, and none for the client
// tool, the connect, its two SYN legs, a request leg or the admission,
// which run in a net::Dial inside that frame. Counts only; frame sizes
// are the compiler's business.
TEST(AttemptTaskTest, RefusedAttemptAllocatesOneFrameAtEveryEntryPoint) {
  for (const EntryPoint& entry : entry_points()) {
    QueryAttempt attempt;
    EXPECT_EQ(attempt_frames(entry, 0, &attempt), 1u) << entry.name;
    EXPECT_TRUE(attempt.refused()) << entry.name;
  }
}

TEST(AttemptTaskTest, RefusedGrisAttemptAllocatesOneFrame) {
  QueryAttempt attempt;
  EXPECT_EQ(attempt_frames(entry_points()[0], 0, &attempt), 1u);
  EXPECT_TRUE(attempt.refused());
}

// An admitted attempt adds the entry point's admitted half, where it has
// one, and the coroutines of its service pipeline: for a GRIS query,
// serve_filter, refresh (one cache miss, one provider fork) and the CPU
// charges. The request and response legs take no frame. A new frame on
// any admitted path moves its pin.
TEST(AttemptTaskTest, AdmittedAttemptFrameCountAtEveryEntryPoint) {
  for (const EntryPoint& entry : entry_points()) {
    QueryAttempt attempt;
    EXPECT_EQ(attempt_frames(entry, 512, &attempt), entry.admitted_frames)
        << entry.name;
    EXPECT_TRUE(attempt.ok()) << entry.name;
  }
}

sim::Task<mds::MdsReply> throwing_service() {
  throw std::runtime_error("service broke");
  co_return mds::MdsReply{};  // unreachable; makes this a coroutine
}

sim::Task<void> await_catching(AttemptTask task, bool* caught) {
  try {
    (void)co_await task;
  } catch (const std::runtime_error&) {
    *caught = true;
  }
}

TEST(AttemptTaskTest, RethrowsServiceException) {
  Testbed tb;
  bool caught = false;
  tb.sim().spawn(await_catching(throwing_service(), &caught));
  tb.sim().run();
  EXPECT_TRUE(caught);
}

sim::Task<mds::MdsReply> mds_reply() {
  mds::MdsReply r;
  r.admitted = true;
  r.entries = 3;
  r.response_bytes = 1234;
  r.stale = true;
  co_return r;
}

TEST(AttemptTaskTest, DestroyedUnawaitedFreesServiceFrame) {
  const auto& pool = sim::detail::frame_pool().stats();
  std::size_t live = pool.live_bytes;
  {
    AttemptTask task = mds_reply();
    EXPECT_GT(pool.live_bytes, live);
  }
  EXPECT_EQ(pool.live_bytes, live);
}

sim::Task<hawkeye::HawkeyeReply> hawkeye_reply() {
  hawkeye::HawkeyeReply r;
  r.admitted = true;
  r.machines = 9;
  r.response_bytes = 55;
  r.failed = true;
  co_return r;
}

sim::Task<rgma::RgmaReply> rgma_reply() {
  rgma::RgmaReply r;
  r.rows = 4;
  r.response_bytes = 8;
  r.timed_out = true;
  co_return r;
}

TEST(AttemptTaskTest, ViewMapsEveryServiceReply) {
  Testbed tb;
  QueryAttempt mds, hawkeye, rgma;
  tb.sim().spawn(await_attempt(mds_reply(), &mds));
  tb.sim().spawn(await_attempt(hawkeye_reply(), &hawkeye));
  tb.sim().spawn(await_attempt(rgma_reply(), &rgma));
  tb.sim().run();
  auto fields = [](const QueryAttempt& a) {
    return std::tuple(a.admitted, a.response_bytes, a.timed_out, a.failed,
                      a.stale);
  };
  EXPECT_EQ(fields(mds), std::tuple(true, 1234.0, false, false, true));
  EXPECT_EQ(fields(hawkeye), std::tuple(true, 55.0, false, true, false));
  EXPECT_EQ(fields(rgma), std::tuple(false, 8.0, true, false, false));
}

TEST(AttemptTaskTest, TaskOfQueryAttemptStillWorks) {
  Testbed tb;
  // Coroutine lambdas as TracedQueryFns, awaited directly and through a
  // UserWorkload: both return sim::Task<QueryAttempt>.
  TracedQueryFn traced = [](net::Interface&,
                            trace::Ctx) -> sim::Task<QueryAttempt> {
    co_return QueryAttempt{true, 42, false, false, true};
  };
  QueryAttempt a;
  std::uint64_t frames = 0;
  tb.sim().spawn(count_attempt_frames(traced, tb.nic("uc01"), &a, &frames));
  TracedQueryFn plain = [](net::Interface&,
                           trace::Ctx) -> sim::Task<QueryAttempt> {
    co_return QueryAttempt{true, 7};
  };
  UserWorkload w(tb, plain);
  w.spawn_users(1, {"uc01"});
  tb.sim().run(10.0);
  EXPECT_TRUE(a.ok());
  EXPECT_TRUE(a.stale);
  EXPECT_DOUBLE_EQ(a.response_bytes, 42);
  EXPECT_EQ(frames, 1u);
  ASSERT_FALSE(w.completions().empty());
  EXPECT_DOUBLE_EQ(w.completions().front().bytes, 7);
}

}  // namespace
}  // namespace gridmon::core
