#include "gridmon/net/network.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "gridmon/net/exchange.hpp"
#include "gridmon/sim/simulation.hpp"
#include "gridmon/sim/task.hpp"

namespace gridmon::net {
namespace {

constexpr double kMega = 1e6;

struct Fixture {
  sim::Simulation sim;
  Network net{sim};

  Fixture() {
    net.add_site({.name = "anl",
                  .nic_bandwidth_bytes_per_s = 12.5 * kMega,
                  .one_way_latency = 0.0001});
    net.add_site({.name = "uc",
                  .nic_bandwidth_bytes_per_s = 12.5 * kMega,
                  .one_way_latency = 0.0001});
    net.add_wan("anl", "uc",
                {.bandwidth_bytes_per_s = 5 * kMega,
                 .one_way_latency = 0.005,
                 .per_flow_cap_bytes_per_s = 2.5 * kMega});
  }
};

sim::Task<void> send(Network& net, Interface& a, Interface& b, double bytes,
                     std::vector<double>* done) {
  co_await net.transfer(a, b, bytes);
  done->push_back(net.simulation().now());
}

TEST(NetworkTest, LanTransferTimeIsSerializationPlusLatency) {
  Fixture f;
  auto& a = f.net.attach("lucky1", "anl");
  auto& b = f.net.attach("lucky2", "anl");
  std::vector<double> done;
  // 1 MB + overhead over two 12.5 MB/s hops (tx then rx) + 0.1 ms.
  f.sim.spawn(send(f.net, a, b, 1.0 * kMega, &done));
  f.sim.run();
  double bytes = 1.0 * kMega + Network::kMessageOverheadBytes;
  double expected = 2 * bytes / (12.5 * kMega) + 0.0001;
  ASSERT_EQ(done.size(), 1u);
  EXPECT_NEAR(done[0], expected, 1e-9);
}

TEST(NetworkTest, LoopbackIsFree) {
  Fixture f;
  auto& a = f.net.attach("lucky1", "anl");
  std::vector<double> done;
  f.sim.spawn(send(f.net, a, a, 100 * kMega, &done));
  f.sim.run();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_DOUBLE_EQ(done[0], 0.0);
}

TEST(NetworkTest, WanFlowIsCappedPerFlow) {
  Fixture f;
  auto& a = f.net.attach("lucky1", "anl");
  auto& b = f.net.attach("client1", "uc");
  std::vector<double> done;
  // 10 MB at a 2.5 MB/s per-flow cap dominates: >= 4 s.
  f.sim.spawn(send(f.net, a, b, 10 * kMega, &done));
  f.sim.run();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_GT(done[0], 4.0);
  EXPECT_LT(done[0], 6.0);
}

TEST(NetworkTest, ServerNicIsSharedBottleneck) {
  Fixture f;
  auto& server = f.net.attach("server", "anl");
  std::vector<double> done;
  const int n = 10;
  std::vector<Interface*> clients;
  for (int i = 0; i < n; ++i) {
    clients.push_back(&f.net.attach("c" + std::to_string(i), "anl"));
  }
  // Server sends 1 MB to each of 10 clients concurrently: its tx NIC is
  // the bottleneck, so total time ~ 10 MB / 12.5 MB/s = 0.8 s.
  for (auto* c : clients) f.sim.spawn(send(f.net, server, *c, 1.0 * kMega, &done));
  f.sim.run();
  ASSERT_EQ(done.size(), static_cast<std::size_t>(n));
  for (double t : done) EXPECT_NEAR(t, 0.8, 0.1);
}

TEST(NetworkTest, WanPipeSharedAcrossFlows) {
  Fixture f;
  std::vector<double> done;
  const int n = 4;
  // n senders at ANL to n receivers at UC, 5 MB each; per-flow cap would
  // allow 2.5 MB/s each = 10 MB/s total, but the pipe is 5 MB/s, so each
  // flow effectively gets 1.25 MB/s -> ~4 s.
  for (int i = 0; i < n; ++i) {
    auto& s = f.net.attach("s" + std::to_string(i), "anl");
    auto& r = f.net.attach("r" + std::to_string(i), "uc");
    f.sim.spawn(send(f.net, s, r, 5 * kMega, &done));
  }
  f.sim.run();
  ASSERT_EQ(done.size(), static_cast<std::size_t>(n));
  for (double t : done) {
    EXPECT_GT(t, 3.5);
    EXPECT_LT(t, 6.0);
  }
}

TEST(NetworkTest, LatencyLookup) {
  Fixture f;
  auto& a = f.net.attach("lucky1", "anl");
  auto& b = f.net.attach("lucky2", "anl");
  auto& c = f.net.attach("client", "uc");
  EXPECT_DOUBLE_EQ(f.net.latency(a, b), 0.0001);
  EXPECT_DOUBLE_EQ(f.net.latency(a, c), 0.005);
  EXPECT_DOUBLE_EQ(f.net.rtt(a, c), 0.01);
  EXPECT_DOUBLE_EQ(f.net.latency(a, a), 0.0);
}

TEST(NetworkTest, ConnectCostsOneRoundTrip) {
  Fixture f;
  auto& a = f.net.attach("lucky1", "anl");
  auto& c = f.net.attach("client", "uc");
  std::vector<double> done;
  auto conn = [](Network& net, Interface& x, Interface& y,
                 std::vector<double>* out) -> sim::Task<void> {
    co_await net.connect(x, y);
    out->push_back(net.simulation().now());
  };
  f.sim.spawn(conn(f.net, c, a, &done));
  f.sim.run();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_NEAR(done[0], 0.01, 0.001);  // dominated by 2x 5 ms
}

TEST(NetworkTest, UnknownHostThrows) {
  Fixture f;
  EXPECT_THROW(f.net.interface("ghost"), std::invalid_argument);
}

TEST(NetworkTest, DuplicateAttachThrows) {
  Fixture f;
  f.net.attach("h", "anl");
  EXPECT_THROW(f.net.attach("h", "anl"), std::invalid_argument);
}

TEST(NetworkTest, MissingWanThrows) {
  sim::Simulation sim;
  Network net(sim);
  net.add_site({.name = "a"});
  net.add_site({.name = "b"});
  auto& ia = net.attach("h1", "a");
  auto& ib = net.attach("h2", "b");
  EXPECT_THROW(net.latency(ia, ib), std::invalid_argument);
  EXPECT_THROW(net.set_wan_down("a", "b", true), std::invalid_argument);
}

// The awaitables resolve the route before any traffic moves, so a
// missing WAN throws out of the co_await in the awaiting coroutine.
TEST(NetworkTest, MissingWanSurfacesInTheAwaiter) {
  sim::Simulation sim;
  Network net(sim);
  net.add_site({.name = "a"});
  net.add_site({.name = "b"});
  auto& ia = net.attach("h1", "a");
  auto& ib = net.attach("h2", "b");
  int caught = 0;
  auto op = [](Network& n, Interface& x, Interface& y, bool connect,
               int* out) -> sim::Task<void> {
    try {
      if (connect) {
        (void)co_await n.connect(x, y);
      } else {
        (void)co_await n.transfer(x, y, 1000);
      }
    } catch (const std::invalid_argument&) {
      ++*out;
    }
  };
  sim.spawn(op(net, ia, ib, false, &caught));
  sim.spawn(op(net, ib, ia, true, &caught));
  sim.run();
  EXPECT_EQ(caught, 2);
  EXPECT_EQ(ia.tx().active_jobs() + ib.tx().active_jobs(), 0);
}

// Shutting down mid-flight destroys the awaiting frames, and with them
// the Transfer and Connect state parked in PS servers, the WAN heal
// event and the event queue (timed stalls included); the network then
// dies with those entries unwoken (run under ASan in CI).
TEST(NetworkTest, ShutdownWithTransfersInFlight) {
  Fixture f;
  auto& a = f.net.attach("lucky1", "anl");
  auto& b = f.net.attach("lucky2", "anl");
  auto& c = f.net.attach("client", "uc");
  std::vector<double> done;
  auto conn = [](Network& net, Interface& x, Interface& y, double timeout,
                 std::vector<double>* out) -> sim::Task<void> {
    if (co_await net.connect(x, y, {}, timeout)) {
      out->push_back(net.simulation().now());
    }
  };
  for (int i = 0; i < 20; ++i) {
    f.sim.spawn(send(f.net, i % 2 ? a : c, b, 1e5 * (i + 1), &done));
    f.sim.spawn(conn(f.net, c, a, i % 3 ? -1 : 30.0, &done));
  }
  f.sim.schedule(0.001, [&f] { f.net.set_wan_down("anl", "uc", true); });
  f.sim.run(0.5);
  EXPECT_LT(done.size(), 40u);
  f.sim.shutdown();
  EXPECT_EQ(f.sim.run(), 0u);
}

// The awaitables live in the awaiting coroutine's frame: a GRIS attempt
// frame carries a Dial (one Transfer for the connect and the request, and
// an Admit) and the admitted half's frame the response Transfer, so their
// sizes are those frames' size (LP64 layouts). A Dial is no larger than
// the tool delay, tool span, connect and Admit it replaced (192 B).
static_assert(sizeof(void*) != 8 || sizeof(Network::Transfer) <= 96);
static_assert(sizeof(void*) != 8 || sizeof(Dial) <= 184);

// Hops are routed by site id; the route table must follow WANs and sites
// added after hosts attached, in either name order.
TEST(NetworkTest, RoutesFollowLateSitesAndWans) {
  sim::Simulation sim;
  Network net(sim);
  net.add_site({.name = "b", .one_way_latency = 0.0002});
  net.add_site({.name = "a"});
  auto& ia = net.attach("h1", "a");
  auto& ib = net.attach("h2", "b");
  auto& ib2 = net.attach("h3", "b");
  net.add_wan("b", "a", {.one_way_latency = 0.007});
  EXPECT_DOUBLE_EQ(net.latency(ia, ib), 0.007);
  EXPECT_DOUBLE_EQ(net.latency(ib, ia), 0.007);
  EXPECT_DOUBLE_EQ(net.latency(ib, ib2), 0.0002);
  net.add_site({.name = "c"});
  auto& ic = net.attach("h4", "c");
  EXPECT_THROW(net.latency(ic, ia), std::invalid_argument);
  net.add_wan("a", "c", {.one_way_latency = 0.003});
  EXPECT_DOUBLE_EQ(net.latency(ic, ia), 0.003);
  EXPECT_DOUBLE_EQ(net.latency(ia, ib), 0.007);
  EXPECT_DOUBLE_EQ(net.min_cross_site_latency(), 0.003);
}

}  // namespace
}  // namespace gridmon::net
