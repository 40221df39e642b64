/// Scheduling goldens for the client side of every service exchange.
///
/// Each case runs one traced attempt of one service entry point from a
/// UChicago client against a server on the Lucky LAN, under one of six
/// outcomes: admitted and answered, refused by a full listen queue
/// (backlog 0), a connect that times out across a partitioned WAN, a
/// blackholed service whose admission times out, a request leg that
/// times out (the WAN goes down as the request starts), and a response
/// leg that times out (the WAN goes down as the response starts and
/// never heals). It records the reply, the number of events popped until
/// the attempt completed, a digest of every pop time, and the attempt's
/// spans and instants in open order with their kinds, labels and times.
/// The expected records in exchange_golden.txt were recorded before the
/// client tool, connect and admission stages moved into one shared
/// awaitable, and the response-timeout records before the response leg
/// joined it; any reimplementation must reproduce them byte for byte.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "gridmon/core/scenarios.hpp"
#include "gridmon/core/testbed.hpp"
#include "gridmon/core/workload.hpp"
#include "gridmon/hawkeye/agent.hpp"
#include "gridmon/hawkeye/manager.hpp"
#include "gridmon/hawkeye/module.hpp"
#include "gridmon/mds/giis.hpp"
#include "gridmon/mds/gris.hpp"
#include "gridmon/rgma/consumer_servlet.hpp"
#include "gridmon/rgma/producer_servlet.hpp"
#include "gridmon/rgma/registry.hpp"
#include "gridmon/trace/collector.hpp"

namespace gridmon::core {
namespace {

enum class Outcome {
  Ok,
  Refused,
  ConnectTimeout,
  AdmitTimeout,
  RequestTimeout,
  ResponseTimeout
};

const char* outcome_name(Outcome o) {
  switch (o) {
    case Outcome::Ok:
      return "ok";
    case Outcome::Refused:
      return "refused";
    case Outcome::ConnectTimeout:
      return "connect-timeout";
    case Outcome::AdmitTimeout:
      return "admit-timeout";
    case Outcome::RequestTimeout:
      return "request-timeout";
    case Outcome::ResponseTimeout:
      return "response-timeout";
  }
  return "?";
}

/// Every client-facing service, each on its own Lucky node.
struct Services {
  Testbed tb;
  trace::Collector col{tb.sim(), 42};
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

  explicit Services(int backlog)
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
                 registry, with_backlog<rgma::ConsumerServletConfig>(backlog)) {
    producer.add_producer("p1", "cpu");
    consumer.add_producer_servlet(producer);
    col.set_enabled(true);
  }
  // Attempts stop mid-run: free the frames left behind while the
  // services they point into are still alive.
  ~Services() { tb.sim().shutdown(); }
};

struct Entry {
  const char* name;
  std::function<net::ServerPort&(Services&)> port;
  std::function<AttemptTask(Services&, net::Interface&, trace::Ctx)> call;
};

const std::vector<Entry>& entries() {
  using S = Services;
  using I = net::Interface;
  using C = trace::Ctx;
  static const std::vector<Entry> kEntries = {
      {"Gris::query", [](S& s) -> net::ServerPort& { return s.gris.port(); },
       [](S& s, I& c, C x) -> AttemptTask { return s.gris.query(c, {}, x); }},
      {"Gris::search", [](S& s) -> net::ServerPort& { return s.gris.port(); },
       [](S& s, I& c, C x) -> AttemptTask {
         return s.gris.search(c, mds::SearchRequest{}, x);
       }},
      {"Gris::fetch", [](S& s) -> net::ServerPort& { return s.gris.port(); },
       [](S& s, I& c, C x) -> AttemptTask { return s.gris.fetch(c, x); }},
      {"Giis::search", [](S& s) -> net::ServerPort& { return s.giis.port(); },
       [](S& s, I& c, C x) -> AttemptTask {
         return s.giis.search(c, mds::SearchRequest{}, x);
       }},
      {"Giis::fetch", [](S& s) -> net::ServerPort& { return s.giis.port(); },
       [](S& s, I& c, C x) -> AttemptTask { return s.giis.fetch(c, x); }},
      {"Agent::query", [](S& s) -> net::ServerPort& { return s.agent.port(); },
       [](S& s, I& c, C x) -> AttemptTask { return s.agent.query(c, x); }},
      {"Agent::query_module",
       [](S& s) -> net::ServerPort& { return s.agent.port(); },
       [](S& s, I& c, C x) -> AttemptTask {
         return s.agent.query_module(c, hawkeye::default_modules()[0].name,
                                     x);
       }},
      {"Manager::query_status",
       [](S& s) -> net::ServerPort& { return s.manager.port(); },
       [](S& s, I& c, C x) -> AttemptTask {
         return s.manager.query_status(c, x);
       }},
      {"Manager::query_dump",
       [](S& s) -> net::ServerPort& { return s.manager.port(); },
       [](S& s, I& c, C x) -> AttemptTask {
         return s.manager.query_dump(c, x);
       }},
      {"Manager::query_constraint",
       [](S& s) -> net::ServerPort& { return s.manager.port(); },
       [](S& s, I& c, C x) -> AttemptTask {
         return s.manager.query_constraint(c, "CpuLoad > 50", x);
       }},
      {"Manager::lookup_agent",
       [](S& s) -> net::ServerPort& { return s.manager.port(); },
       [](S& s, I& c, C x) -> AttemptTask {
         return s.manager.lookup_agent(c, "lucky5", nullptr, x);
       }},
      {"ConsumerServlet::query",
       [](S& s) -> net::ServerPort& { return s.consumer.port(); },
       [](S& s, I& c, C x) -> AttemptTask {
         return s.consumer.query(c, "cpu", "", x);
       }},
      {"Registry::client_query",
       [](S& s) -> net::ServerPort& { return s.registry.port(); },
       [](S& s, I& c, C x) -> AttemptTask {
         return s.registry.client_query(c, "cpu", x);
       }},
      {"ProducerServlet::client_query",
       [](S& s) -> net::ServerPort& { return s.producer.port(); },
       [](S& s, I& c, C x) -> AttemptTask {
         return s.producer.client_query(c, "cpu", "", x);
       }},
      {"ProducerServlet::select",
       [](S& s) -> net::ServerPort& { return s.producer.port(); },
       [](S& s, I& c, C x) -> AttemptTask {
         return s.producer.select(c, "cpu", "", x);
       }},
  };
  return kEntries;
}

sim::Task<void> register_producer(rgma::Registry& registry,
                                  net::Interface& from) {
  // A named argument: GCC 12 destroys a braced temporary in a co_await
  // operand twice.
  rgma::ProducerInfo info{"p1", "cpu", "ps1", ""};
  co_await registry.register_producer(from, std::move(info));
}

sim::Task<void> attempt(AttemptTask task, QueryAttempt* out, bool* done) {
  *out = co_await task;
  *done = true;
}

void fold(std::uint64_t& hash, double d) {
  std::uint64_t bits;
  static_assert(sizeof bits == sizeof d);
  __builtin_memcpy(&bits, &d, sizeof d);
  for (int i = 0; i < 8; ++i) {
    hash ^= (bits >> (8 * i)) & 0xff;
    hash *= 0x100000001b3ull;
  }
}

/// When the client-facing request and response legs start in the
/// admitted run (negative: not seen).
struct LegStarts {
  double request = -1;   // the first RequestSend
  double response = -1;  // the last ResponseSend
};

/// Run one attempt of `entry` under `outcome`; `at` holds when the legs
/// start in the admitted run (the partition time of a request- or
/// response-leg timeout). Returns the record; `seen` (if not null)
/// receives this run's leg starts.
std::string play(const Entry& entry, Outcome outcome, const LegStarts& at,
                 LegStarts* seen = nullptr) {
  Services s(outcome == Outcome::Refused ? 0 : 512);
  sim::Simulation& sim = s.tb.sim();
  net::Network& net = s.tb.network();
  if (outcome == Outcome::ConnectTimeout) net.set_wan_down("anl", "uc", true);
  if (outcome == Outcome::AdmitTimeout) entry.port(s).crash(true);
  if (outcome == Outcome::RequestTimeout ||
      outcome == Outcome::ResponseTimeout) {
    double down_at =
        outcome == Outcome::RequestTimeout ? at.request : at.response;
    sim.schedule(down_at, [&net] { net.set_wan_down("anl", "uc", true); });
  }
  sim.spawn(register_producer(s.registry, s.tb.nic("lucky1")));
  QueryAttempt reply;
  bool done = false;
  sim.spawn(attempt(entry.call(s, s.tb.nic("uc01"), s.col.new_trace()),
                    &reply, &done));
  std::uint64_t pops = 0xcbf29ce484222325ull;
  std::size_t events = 0;
  while (!done && sim.run_events(1) == 1) {
    ++events;
    fold(pops, sim.now());
  }
  char line[160];
  std::string out;
  std::snprintf(line, sizeof line, "[%s %s]\n", entry.name,
                outcome_name(outcome));
  out += line;
  std::snprintf(line, sizeof line,
                "done=%d t=%a admitted=%d timed_out=%d failed=%d bytes=%g "
                "events=%zu pops=%016llx\n",
                done ? 1 : 0, sim.now(), reply.admitted ? 1 : 0,
                reply.timed_out ? 1 : 0, reply.failed ? 1 : 0,
                reply.response_bytes, events,
                static_cast<unsigned long long>(pops));
  out += line;
  for (const trace::SpanRecord& r : s.col.spans()) {
    if (seen != nullptr && seen->request < 0 &&
        r.kind == trace::SpanKind::RequestSend) {
      seen->request = r.start;
    }
    if (seen != nullptr && r.kind == trace::SpanKind::ResponseSend) {
      seen->response = r.start;
    }
    std::snprintf(line, sizeof line, "  %u<%u %s '%s' %a..%a %g\n", r.seq,
                  r.parent, trace::kind_name(r.kind),
                  s.col.name(r.name_id).c_str(), r.start, r.end, r.arg);
    out += line;
  }
  return out;
}

/// The six outcome records of one entry point.
std::string record(const Entry& entry) {
  LegStarts at;
  std::string out = play(entry, Outcome::Ok, {}, &at);
  for (Outcome o : {Outcome::Refused, Outcome::ConnectTimeout,
                    Outcome::AdmitTimeout, Outcome::RequestTimeout,
                    Outcome::ResponseTimeout}) {
    out += play(entry, o, at);
  }
  return out;
}

/// The recorded section of `entry` in exchange_golden.txt.
std::string golden(const Entry& entry) {
  std::ifstream in(GRIDMON_EXCHANGE_GOLDEN);
  std::stringstream all;
  all << in.rdbuf();
  std::string text = all.str();
  std::string head = std::string("[") + entry.name + " ok]\n";
  std::size_t begin = text.find(head);
  if (begin == std::string::npos) return {};
  std::size_t end = text.find("\n\n", begin);
  return text.substr(begin, end == std::string::npos ? std::string::npos
                                                     : end + 1 - begin);
}

class ExchangeGoldenTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ExchangeGoldenTest, MatchesRecording) {
  const Entry& entry = entries()[GetParam()];
  std::string got = record(entry);
  std::string want = golden(entry);
  if (got != want) {
    std::ofstream("exchange_golden_actual.txt", std::ios::app) << got << "\n";
  }
  EXPECT_EQ(got, want) << "record appended to exchange_golden_actual.txt";
}

INSTANTIATE_TEST_SUITE_P(
    EntryPoints, ExchangeGoldenTest,
    ::testing::Range<std::size_t>(0, entries().size()),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      std::string name = entries()[info.param].name;
      std::string out;
      for (std::size_t i = 0; i < name.size(); ++i) {
        if (name[i] != ':') out += name[i];
        else if (name[i + 1] == ':') out += '_';
      }
      return out;
    });

}  // namespace
}  // namespace gridmon::core
