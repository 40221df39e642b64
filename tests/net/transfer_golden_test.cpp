/// Kernel-level scheduling goldens for Network::transfer and connect.
///
/// Each scenario spawns a fixed mix of transfers and connects, logs every
/// completion as (sim time, op id, result) in completion order, folds
/// every NIC/WAN processor-sharing arrival and departure into a digest,
/// and records the trace spans the ops open. The expected strings were
/// recorded from the coroutine implementation of transfer/connect; any
/// reimplementation must reproduce them byte for byte, which pins the
/// order of PS, WAN, event-queue and span calls, not only the end times.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "gridmon/net/network.hpp"
#include "gridmon/sim/probe.hpp"
#include "gridmon/sim/simulation.hpp"
#include "gridmon/sim/task.hpp"
#include "gridmon/trace/collector.hpp"

namespace gridmon::net {
namespace {

/// FNV-1a over every probe notification: (time, population, backlog).
class DigestProbe final : public sim::UsageProbe {
 public:
  void on_usage(sim::SimTime t, double active, double backlog) override {
    for (double d : {t, active, backlog}) {
      std::uint64_t bits;
      static_assert(sizeof bits == sizeof d);
      __builtin_memcpy(&bits, &d, sizeof d);
      for (int i = 0; i < 8; ++i) {
        hash_ ^= (bits >> (8 * i)) & 0xff;
        hash_ *= 0x100000001b3ull;
      }
    }
    ++calls_;
  }
  std::uint64_t hash() const noexcept { return hash_; }
  std::uint64_t calls() const noexcept { return calls_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
  std::uint64_t calls_ = 0;
};

struct Op {
  bool connect = false;
  const char* from;
  const char* to;
  double start = 0;
  double bytes = 0;
  double stall_timeout = -1;
  bool traced = false;
};

struct Rig {
  sim::Simulation sim;
  Network net{sim};
  trace::Collector col{sim, 42};
  std::vector<DigestProbe> probes = std::vector<DigestProbe>(32);
  std::size_t next_probe = 0;
  std::string log;

  Rig() {
    net.add_site({.name = "a", .one_way_latency = 0.0001});
    net.add_site({.name = "b", .one_way_latency = 0.0002});
    net.add_site({.name = "z", .one_way_latency = 0});
    net.add_wan("a", "b",
                {.bandwidth_bytes_per_s = 5e6,
                 .one_way_latency = 0.005,
                 .per_flow_cap_bytes_per_s = 1.5e6});
    for (const char* h : {"a1", "a2", "a3"}) probe(net.attach(h, "a"));
    for (const char* h : {"b1", "b2"}) probe(net.attach(h, "b"));
    for (const char* h : {"z1", "z2"}) probe(net.attach(h, "z"));
    col.set_enabled(true);
  }

  void probe(Interface& nic) {
    nic.tx().set_probe(&probes[next_probe++]);
    nic.rx().set_probe(&probes[next_probe++]);
  }

  static sim::Task<void> run_op(Rig& rig, Op op, int id) {
    co_await rig.sim.delay(op.start);
    Interface& from = rig.net.interface(op.from);
    Interface& to = rig.net.interface(op.to);
    trace::Ctx ctx = op.traced ? rig.col.new_trace() : trace::Ctx{};
    bool ok;
    if (op.connect) {
      ok = co_await rig.net.connect(from, to, ctx, op.stall_timeout);
    } else {
      ok = co_await rig.net.transfer(from, to, op.bytes, ctx,
                                     trace::SpanKind::NetTransfer,
                                     op.stall_timeout);
    }
    char line[96];
    std::snprintf(line, sizeof line, "%a #%d %s\n", rig.sim.now(), id,
                  ok ? "ok" : "fail");
    rig.log += line;
  }

  /// Spawn the ops, run to completion, and render the whole record.
  std::string play(const std::vector<Op>& ops) {
    for (std::size_t i = 0; i < ops.size(); ++i) {
      sim.spawn(run_op(*this, ops[i], static_cast<int>(i)));
    }
    std::size_t events = sim.run();
    std::uint64_t digest = 0xcbf29ce484222325ull;
    std::uint64_t calls = 0;
    for (const DigestProbe& p : probes) {
      digest = (digest ^ p.hash()) * 0x100000001b3ull;
      calls += p.calls();
    }
    char line[128];
    std::snprintf(line, sizeof line, "events=%zu probes=%llu digest=%016llx\n",
                  events, static_cast<unsigned long long>(calls),
                  static_cast<unsigned long long>(digest));
    log += line;
    for (const trace::SpanRecord& s : col.spans()) {
      std::snprintf(line, sizeof line, "span %u<%u %s %a..%a %g\n", s.seq,
                    s.parent, trace::kind_name(s.kind), s.start, s.end,
                    s.arg);
      log += line;
    }
    return log;
  }
};

TEST(TransferGoldenTest, Lan) {
  Rig rig;
  std::string got = rig.play({
      {.from = "a1", .to = "a2", .start = 0, .bytes = 40000, .traced = true},
      {.from = "a2", .to = "a1", .start = 0, .bytes = 5000},
      {.from = "a3", .to = "a2", .start = 0.001, .bytes = 120000},
      {.connect = true, .from = "a1", .to = "a2", .start = 0.001,
       .traced = true},
      {.from = "a1", .to = "a2", .start = 0.002, .bytes = 0},
      {.connect = true, .from = "a3", .to = "a1", .start = 0.0025},
  });
  EXPECT_EQ(got,
            "0x1.ed55836a2d456p-11 #1 ok\n"
            "0x1.5c209246bf013p-10 #3 ok\n"
            "0x1.1b4de4397af5ep-9 #4 ok\n"
            "0x1.7606ed5a0b0e5p-9 #5 ok\n"
            "0x1.b15db08a4bf3dp-8 #0 ok\n"
            "0x1.4daf8b48730b7p-6 #2 ok\n"
            "events=34 probes=32 digest=5bb10648297ae021\n"
            "span 1<0 net_transfer 0x0p+0..0x1.b15db08a4bf3dp-8 40000\n"
            "span 2<0 connect 0x1.0624dd2f1a9fcp-10..0x1.5c209246bf013p-10 0\n");
}

TEST(TransferGoldenTest, WanPerFlowCap) {
  Rig rig;
  std::string got = rig.play({
      {.from = "a1", .to = "b1", .start = 0, .bytes = 3e6, .traced = true},
      {.from = "a2", .to = "b1", .start = 0, .bytes = 2e6},
      {.from = "a3", .to = "b2", .start = 0.1, .bytes = 1e6},
      {.from = "b1", .to = "a1", .start = 0.2, .bytes = 500000},
      {.connect = true, .from = "b2", .to = "a1", .start = 0.05,
       .traced = true},
      {.connect = true, .from = "a2", .to = "b2", .start = 0.3},
  });
  EXPECT_EQ(got,
            "0x1.f010571e83314p-5 #4 ok\n"
            "0x1.3e334175ec157p-2 #5 ok\n"
            "0x1.5ee8a36d020bfp-1 #3 ok\n"
            "0x1.ff55dd73d5ac7p-1 #2 ok\n"
            "0x1.b9b1c25a58103p+0 #1 ok\n"
            "0x1.46a9ee89c447ep+1 #0 ok\n"
            "events=42 probes=32 digest=feaebcb66efbd7b4\n"
            "span 1<0 net_transfer 0x0p+0..0x1.46a9ee89c447ep+1 3e+06\n"
            "span 2<0 connect 0x1.999999999999ap-5..0x1.f010571e83314p-5 0\n");
}

TEST(TransferGoldenTest, Loopback) {
  Rig rig;
  std::string got = rig.play({
      {.from = "a1", .to = "a1", .start = 0, .bytes = 1e9, .traced = true},
      {.from = "a1", .to = "a2", .start = 0, .bytes = 1000},
      {.connect = true, .from = "a2", .to = "a2", .start = 0,
       .traced = true},
      {.from = "a2", .to = "a2", .start = 0.5, .bytes = 10},
      {.connect = true, .from = "b1", .to = "b1", .start = 0.5},
  });
  EXPECT_EQ(got,
            "0x0p+0 #0 ok\n"
            "0x0p+0 #2 ok\n"
            "0x1.3b9455b7ed6cbp-12 #1 ok\n"
            "0x1p-1 #3 ok\n"
            "0x1p-1 #4 ok\n"
            "events=10 probes=4 digest=1adacdcc8ac300c4\n"
            "span 1<0 connect 0x0p+0..0x0p+0 0\n");
}

TEST(TransferGoldenTest, ZeroLatencySite) {
  Rig rig;
  std::string got = rig.play({
      {.from = "z1", .to = "z2", .start = 0, .bytes = 2000, .traced = true},
      {.from = "z2", .to = "z1", .start = 0, .bytes = 2000},
      {.connect = true, .from = "z1", .to = "z2", .start = 0,
       .traced = true},
      {.from = "z1", .to = "z2", .start = 0.0001, .bytes = 64},
      {.connect = true, .from = "z2", .to = "z1", .start = 0.0001},
  });
  EXPECT_EQ(got,
            "0x1.64840e1719f7ep-13 #2 ok\n"
            "0x1.72c6c6f94e351p-13 #3 ok\n"
            "0x1.287412767a2fcp-12 #4 ok\n"
            "0x1.b02e5b8811061p-12 #1 ok\n"
            "0x1.d85ccde149dc6p-12 #0 ok\n"
            "events=21 probes=28 digest=b5dd8bd9c33081fb\n"
            "span 1<0 net_transfer 0x0p+0..0x1.d85ccde149dc6p-12 2000\n"
            "span 2<0 connect 0x0p+0..0x1.64840e1719f7ep-13 0\n");
}

/// Partition a-b over [down, up) while the ops run.
std::string play_partitioned(double down, double up, double stall_timeout) {
  Rig rig;
  rig.sim.schedule(down, [&rig] { rig.net.set_wan_down("a", "b", true); });
  rig.sim.schedule(up, [&rig] { rig.net.set_wan_down("a", "b", false); });
  return rig.play({
      {.from = "a1", .to = "b1", .start = 0, .bytes = 3e6,
       .stall_timeout = stall_timeout, .traced = true},
      {.from = "b1", .to = "a2", .start = 0.5, .bytes = 1e4,
       .stall_timeout = stall_timeout},
      {.connect = true, .from = "a3", .to = "b2", .start = 0.6,
       .stall_timeout = stall_timeout, .traced = true},
      {.from = "a1", .to = "a2", .start = 0.7, .bytes = 1e4,
       .stall_timeout = stall_timeout},
      {.connect = true, .from = "b2", .to = "a3", .start = 0.8,
       .stall_timeout = stall_timeout},
      {.from = "a2", .to = "b2", .start = 0.9, .bytes = 4e5,
       .stall_timeout = -1},
  });
}

TEST(TransferGoldenTest, PartitionWithoutStallTimeout) {
  EXPECT_EQ(play_partitioned(0.4, 3.0, -1),
            "0x1.674a9752ed62cp-1 #3 ok\n"
            "0x1.3e1b6a22160dcp+1 #0 ok\n"
            "0x1.815af94ada18cp+1 #2 ok\n"
            "0x1.815af94ada18cp+1 #4 ok\n"
            "0x1.81a19143173a3p+1 #1 ok\n"
            "0x1.a6e79be96369bp+1 #5 ok\n"
            "events=46 probes=32 digest=775e12691e245b1e\n"
            "span 1<0 net_transfer 0x0p+0..0x1.3e1b6a22160dcp+1 3e+06\n"
            "span 2<0 connect 0x1.3333333333333p-1..0x1.815af94ada18cp+1 0\n");
}

TEST(TransferGoldenTest, PartitionHealsBeforeDeadline) {
  EXPECT_EQ(play_partitioned(0.4, 1.5, 2.0),
            "0x1.674a9752ed62cp-1 #3 ok\n"
            "0x1.82be5611848cdp+0 #2 ok\n"
            "0x1.82be5611848cdp+0 #4 ok\n"
            "0x1.834b8601fecf7p+0 #1 ok\n"
            "0x1.cdd79b4e972e7p+0 #5 ok\n"
            "0x1.3e2267b3ee59ap+1 #0 ok\n"
            "events=49 probes=32 digest=acfddfe6d172e555\n"
            "span 1<0 net_transfer 0x0p+0..0x1.3e2267b3ee59ap+1 3e+06\n"
            "span 2<0 connect 0x1.3333333333333p-1..0x1.82be5611848cdp+0 0\n");
}

TEST(TransferGoldenTest, PartitionHealsAfterDeadline) {
  EXPECT_EQ(play_partitioned(0.4, 3.0, 0.75),
            "0x1.674a9752ed62cp-1 #3 ok\n"
            "0x1.4035c55ec45b9p+0 #1 fail\n"
            "0x1.599b4718c3456p+0 #2 fail\n"
            "0x1.8cce7a4bf678ap+0 #4 fail\n"
            "0x1.3e1b6a22160dcp+1 #0 ok\n"
            "0x1.a6e4d015734b6p+1 #5 ok\n"
            "events=31 probes=18 digest=7464ddf06b8e70d0\n"
            "span 1<0 net_transfer 0x0p+0..0x1.3e1b6a22160dcp+1 3e+06\n"
            "span 2<0 connect 0x1.3333333333333p-1..0x1.599b4718c3456p+0 0\n");
}

}  // namespace
}  // namespace gridmon::net
