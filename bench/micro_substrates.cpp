/// Micro-benchmarks (google-benchmark) for the substrate engines: ClassAd
/// parse/eval/matchmaking and Startd ad integration, LDAP filter
/// evaluation and DIT search, SQL parse/execute, the discrete-event
/// kernel's event throughput, and the sharded engine's mailbox exchange.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "gridmon/classad/classad.hpp"
#include "gridmon/classad/matchmaker.hpp"
#include "gridmon/classad/parser.hpp"
#include "gridmon/hawkeye/module.hpp"
#include "gridmon/ldap/dit.hpp"
#include "gridmon/rdbms/database.hpp"
#include "gridmon/sim/ps_server.hpp"
#include "gridmon/sim/shard.hpp"
#include "gridmon/sim/simulation.hpp"
#include "gridmon/sim/task.hpp"

namespace {

using namespace gridmon;

// ---- ClassAd ----

void BM_ClassAdParseExpression(benchmark::State& state) {
  for (auto _ : state) {
    auto e = classad::parse_expression(
        "TARGET.Memory >= MY.MinMemory && TARGET.OpSys == \"LINUX\" && "
        "(CpuLoad < 0.5 || KeyboardIdle > 15 * 60)");
    benchmark::DoNotOptimize(e);
  }
}
BENCHMARK(BM_ClassAdParseExpression);

void BM_ClassAdEvaluate(benchmark::State& state) {
  classad::ClassAd machine;
  machine.insert("Memory", static_cast<std::int64_t>(512));
  machine.insert("OpSys", "LINUX");
  machine.insert("CpuLoad", 0.25);
  machine.insert("KeyboardIdle", static_cast<std::int64_t>(3600));
  auto e = classad::parse_expression(
      "Memory >= 256 && OpSys == \"LINUX\" && "
      "(CpuLoad < 0.5 || KeyboardIdle > 15 * 60)");
  for (auto _ : state) {
    auto v = machine.evaluate_expr(*e);
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_ClassAdEvaluate);

void BM_ClassAdMatchmakingScan(benchmark::State& state) {
  std::vector<classad::ClassAd> ads;
  for (int i = 0; i < state.range(0); ++i) {
    classad::ClassAd ad;
    ad.insert("Name", "machine" + std::to_string(i));
    ad.insert("CpuLoad", 0.01 * i);
    ad.insert("Memory", static_cast<std::int64_t>(128 + i));
    ads.push_back(std::move(ad));
  }
  std::vector<const classad::ClassAd*> ptrs;
  for (auto& ad : ads) ptrs.push_back(&ad);
  auto constraint = classad::parse_expression("CpuLoad > 100000");
  for (auto _ : state) {
    auto hits = classad::scan(ptrs, *constraint);
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ClassAdMatchmakingScan)->Arg(100)->Arg(1000);

// One Hawkeye advertise beat on the agent side: run the 11 default
// modules, integrate their fragments into a Startd ad, render it.
void BM_StartdAdBuild(benchmark::State& state) {
  const auto specs = hawkeye::scaled_modules(11);
  std::uint64_t sequence = 0;
  for (auto _ : state) {
    ++sequence;
    std::vector<classad::ClassAd> parts;
    parts.reserve(specs.size());
    for (const auto& spec : specs) {
      parts.push_back(hawkeye::run_module(spec, sequence, 42.5));
    }
    classad::ClassAd ad =
        hawkeye::build_startd_ad("lucky4.mcs.anl.gov", std::move(parts));
    auto text = ad.to_string();
    benchmark::DoNotOptimize(text);
  }
}
BENCHMARK(BM_StartdAdBuild);

// Fill an ad with N distinct attributes, then replace each once.
void BM_ClassAdInsert(benchmark::State& state) {
  std::vector<std::string> names;
  for (int i = 0; i < state.range(0); ++i) {
    names.push_back("module" + std::to_string(i % 11) + "_attr" +
                    std::to_string(i));
  }
  for (auto _ : state) {
    classad::ClassAd ad;
    for (const auto& name : names) ad.insert(name, std::int64_t{1});
    for (const auto& name : names) ad.insert(name, std::int64_t{2});
    benchmark::DoNotOptimize(ad);
  }
  state.SetItemsProcessed(state.iterations() * 2 * state.range(0));
}
BENCHMARK(BM_ClassAdInsert)->Arg(16)->Arg(128);

// ---- LDAP ----

ldap::Dit build_dit(int hosts, int devices_per_host) {
  ldap::Dit dit;
  ldap::Entry root(ldap::Dn::parse("o=grid"));
  root.add("objectclass", "organization");
  dit.add(std::move(root));
  for (int h = 0; h < hosts; ++h) {
    std::string host_dn =
        "Mds-Host-hn=host" + std::to_string(h) + ", o=grid";
    ldap::Entry he(ldap::Dn::parse(host_dn));
    he.add("objectclass", "MdsHost");
    dit.add(std::move(he));
    for (int d = 0; d < devices_per_host; ++d) {
      ldap::Entry de(ldap::Dn::parse("Mds-Device-name=dev" +
                                     std::to_string(d) + ", " + host_dn));
      de.add("objectclass", "MdsDevice");
      de.add("Mds-Device-name", "dev" + std::to_string(d));
      dit.add(std::move(de));
    }
  }
  return dit;
}

void BM_LdapFilterParse(benchmark::State& state) {
  for (auto _ : state) {
    auto f = ldap::Filter::parse(
        "(&(objectclass=MdsDevice)(|(Mds-Device-name=dev1*)"
        "(!(Mds-Device-name=dev2))))");
    benchmark::DoNotOptimize(f);
  }
}
BENCHMARK(BM_LdapFilterParse);

// A full walk per iteration: the two filters alternate, so the Dit's memo of
// the previous search never answers (each matches one device per host).
void BM_LdapSubtreeSearch(benchmark::State& state) {
  auto dit = build_dit(static_cast<int>(state.range(0)), 10);
  const ldap::FilterPtr filters[] = {
      ldap::Filter::parse("(Mds-Device-name=dev3)"),
      ldap::Filter::parse("(Mds-Device-name=dev4)")};
  auto base = ldap::Dn::parse("o=grid");
  std::size_t i = 0;
  for (auto _ : state) {
    auto r = dit.search(base, ldap::Scope::Subtree, *filters[i++ & 1]);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 10);
}
BENCHMARK(BM_LdapSubtreeSearch)->Arg(10)->Arg(100);

// The memo hit: the same search over an unchanged tree, as a GIIS answers
// between cache refreshes. Items are searches, not entries.
void BM_LdapSubtreeSearchRepeat(benchmark::State& state) {
  auto dit = build_dit(static_cast<int>(state.range(0)), 10);
  auto filter = ldap::Filter::parse("(Mds-Device-name=dev3)");
  auto base = ldap::Dn::parse("o=grid");
  for (auto _ : state) {
    auto r = dit.search(base, ldap::Scope::Subtree, *filter);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LdapSubtreeSearchRepeat)->Arg(100);

// The GIIS cache-refresh merge: drop one registrant's 42-entry slice from a
// ~1,400-entry aggregate tree and add it back, parents first.
void BM_DitMergeSlice(benchmark::State& state) {
  auto dit = build_dit(33, 41);
  const auto suffix = ldap::Dn::parse("Mds-Host-hn=host16, o=grid");
  auto slice = dit.search(suffix, ldap::Scope::Subtree,
                          *ldap::Filter::match_all())
                   .entries;
  std::stable_sort(slice.begin(), slice.end(),
                   [](const ldap::Entry& a, const ldap::Entry& b) {
                     return a.dn().depth() < b.dn().depth();
                   });
  for (auto _ : state) {
    benchmark::DoNotOptimize(dit.remove_subtree(suffix));
    for (const auto& e : slice) dit.add(e);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(slice.size()));
}
BENCHMARK(BM_DitMergeSlice);

// ---- SQL ----

void BM_SqlParse(benchmark::State& state) {
  for (auto _ : state) {
    auto stmt = rdbms::sql_parse(
        "SELECT host, value FROM cpuload WHERE site = 'anl' AND value > 0.5 "
        "ORDER BY value DESC LIMIT 10");
    benchmark::DoNotOptimize(stmt);
  }
}
BENCHMARK(BM_SqlParse);

void BM_SqlSelectScan(benchmark::State& state) {
  rdbms::Database db;
  db.execute("CREATE TABLE cpuload (host TEXT, site TEXT, value REAL)");
  for (int i = 0; i < state.range(0); ++i) {
    db.execute("INSERT INTO cpuload VALUES ('host" + std::to_string(i) +
               "', 'anl', " + std::to_string(0.001 * i) + ")");
  }
  for (auto _ : state) {
    auto r = db.execute("SELECT host FROM cpuload WHERE value > 0.25");
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SqlSelectScan)->Arg(100)->Arg(1000);

void BM_SqlIndexedLookup(benchmark::State& state) {
  rdbms::Database db;
  db.execute("CREATE TABLE t (k TEXT, v REAL)");
  for (int i = 0; i < 1000; ++i) {
    db.execute("INSERT INTO t VALUES ('key" + std::to_string(i) + "', " +
               std::to_string(i) + ")");
  }
  db.execute("CREATE INDEX ON t (k)");
  auto& table = db.table("t");
  auto key = rdbms::Value::text("key500");
  for (auto _ : state) {
    auto hits = table.find_equal("k", key);
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_SqlIndexedLookup);

// ---- DES kernel ----

void BM_SimEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    int count = 0;
    for (int i = 0; i < 10000; ++i) {
      sim.schedule(i * 1e-4, [&count] { ++count; });
    }
    sim.run();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_SimEventThroughput);

sim::Task<void> ping(sim::Simulation& sim, int hops) {
  for (int i = 0; i < hops; ++i) co_await sim.delay(0.001);
}

void BM_SimCoroutineSwitch(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    for (int i = 0; i < 100; ++i) sim.spawn(ping(sim, 100));
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * 100 * 100);
}
BENCHMARK(BM_SimCoroutineSwitch);

sim::Task<void> sleep_for(sim::Simulation& sim, double seconds) {
  co_await sim.delay(seconds);
}

// 500 jobs through one 2-core PS server per iteration; every arrival and
// departure re-arms the server's completion timer. The argument parks that
// many far-future wake-ups in the pending set first: 100000 is the shape
// of gris_legacy_100k, where ~84k sleeping clients make every heap
// operation deep. Items are jobs.
void BM_SimPsServerChurn(benchmark::State& state) {
  sim::Simulation sim;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    sim.spawn(sleep_for(sim, 1e12));
  }
  sim.run(0);
  sim::PsServer cpu(sim, 2.0, 2);
  auto job = [](sim::PsServer& ps, double work) -> sim::Task<void> {
    co_await ps.consume(work);
  };
  for (auto _ : state) {
    for (int i = 0; i < 500; ++i) {
      sim.spawn(job(cpu, 0.01 + 0.0001 * i));
    }
    sim.run(sim.now() + 100);
  }
  benchmark::DoNotOptimize(cpu.served_total());
  state.SetItemsProcessed(state.iterations() * 500);
}
BENCHMARK(BM_SimPsServerChurn)->Arg(0)->Arg(100000);

// ---- Shard mailboxes ----

/// Posts `per_window` messages to shard 0 at the end of every window.
/// A sorted sender spreads them over the next window in canonical order;
/// the unsorted one posts a one-instant cohort with descending uids, the
/// shape of the frontier gateway's batched refusal replies.
class MailboxSender final : public sim::ShardRunner {
 public:
  MailboxSender(int self, int senders, int per_window, bool unsorted)
      : self_(self), senders_(senders), per_window_(per_window),
        unsorted_(unsorted) {}
  void bind(sim::ShardGroup& group) { group_ = &group; }

  sim::SimTime now() const override { return now_; }
  std::size_t run(sim::SimTime until) override {
    if (until <= now_) return 0;
    now_ = until;
    double lookahead = group_->lookahead();
    for (int i = 0; i < per_window_; ++i) {
      int rank = unsorted_ ? per_window_ - i : i;
      double at = unsorted_ ? until + 0.5 * lookahead
                            : until + lookahead * (i + 1) / (per_window_ + 1);
      std::uint64_t uid = static_cast<std::uint64_t>(rank * senders_ + self_);
      group_->post(self_, 0, sim::ShardMessage{at, uid, 0, 0, 0, 0, 0});
    }
    return 0;
  }
  void deliver(const sim::ShardMessage&) override {}

 private:
  int self_;
  int senders_;
  int per_window_;
  bool unsorted_;
  sim::ShardGroup* group_ = nullptr;
  sim::SimTime now_ = 0;
};

class MailboxSink final : public sim::ShardRunner {
 public:
  sim::SimTime now() const override { return now_; }
  std::size_t run(sim::SimTime until) override {
    if (until > now_) now_ = until;
    return 0;
  }
  void deliver(const sim::ShardMessage& m) override { sum_ += m.uid; }
  std::uint64_t sum() const { return sum_; }

 private:
  sim::SimTime now_ = 0;
  std::uint64_t sum_ = 0;
};

// One window per iteration: 8 senders post 600 messages each to one
// receiver, the group exchanges them at the barrier, and the receiver
// takes delivery. Items are messages delivered.
void BM_ShardExchange(benchmark::State& state) {
  constexpr int kSenders = 8;
  constexpr int kPerWindow = 600;
  MailboxSink sink;
  std::vector<std::unique_ptr<MailboxSender>> senders;
  std::vector<sim::ShardRunner*> runners{&sink};
  for (int s = 1; s <= kSenders; ++s) {
    senders.push_back(
        std::make_unique<MailboxSender>(s, kSenders, kPerWindow, s == 1));
    runners.push_back(senders.back().get());
  }
  sim::ShardGroup group(runners, 1.0);
  for (auto& sender : senders) sender->bind(group);
  double t = 0;
  for (auto _ : state) {
    t += 1.0;
    group.run(t);
  }
  benchmark::DoNotOptimize(sink.sum());
  state.SetItemsProcessed(
      static_cast<std::int64_t>(group.messages_delivered()));
}
BENCHMARK(BM_ShardExchange);

}  // namespace

BENCHMARK_MAIN();
