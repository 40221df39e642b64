#include "gridmon/net/exchange.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <string>

#include "gridmon/sim/simulation.hpp"
#include "gridmon/sim/task.hpp"
#include "gridmon/trace/collector.hpp"

namespace gridmon::net {
namespace {

struct Rig {
  sim::Simulation sim;
  Network net{sim};
  trace::Collector col{sim, 7};
  Interface* client;
  Interface* server;
  ServerPort port;
  std::string log;

  explicit Rig(int backlog = 4) : port(sim, backlog) {
    net.add_site({.name = "anl"});
    net.add_site({.name = "uc"});
    net.add_wan("anl", "uc", {});
    client = &net.attach("uc01", "uc");
    server = &net.attach("lucky7", "anl");
    col.set_enabled(true);
  }

  void note(int id, Admission answer) {
    char line[64];
    std::snprintf(line, sizeof line, "%a #%d %d in_flight=%d\n", sim.now(),
                  id, static_cast<int>(answer), port.in_flight());
    log += line;
  }

  /// The answers, then the spans, for comparing two runs.
  std::string record() const {
    std::string out = log;
    char line[96];
    for (const trace::SpanRecord& s : col.spans()) {
      std::snprintf(line, sizeof line, "%u<%u %s %a..%a %g\n", s.seq,
                    s.parent, trace::kind_name(s.kind), s.start, s.end,
                    s.arg);
      out += line;
    }
    return out;
  }
};

constexpr double kTool = 0.4;
constexpr double kTimeout = 30.0;
constexpr double kRequest = 1e6;  // long enough to be cut by a partition
constexpr double kHold = 1.0;     // service time while the slot is held

/// The client front spelled out stage by stage, as the service handlers
/// awaited it before Dial.
sim::Task<void> stepwise(Rig& r, int id) {
  trace::Ctx ctx = r.col.new_trace();
  {
    trace::Span span(ctx, trace::SpanKind::ClientTool);
    co_await r.sim.delay(kTool);
  }
  if (!co_await r.net.connect(*r.client, *r.server, ctx, kTimeout)) {
    r.note(id, Admission::TimedOut);
    co_return;
  }
  Admission admission = co_await r.port.admit(kTimeout);
  if (admission != Admission::Ok) {
    r.note(id, admission);
    co_return;
  }
  AdmissionSlot slot(&r.port);
  if (!co_await r.net.transfer(*r.client, *r.server, kRequest, ctx,
                               trace::SpanKind::RequestSend, kTimeout)) {
    r.note(id, Admission::TimedOut);
    co_return;
  }
  co_await r.sim.delay(kHold);
  r.note(id, Admission::Ok);
}

sim::Task<void> dialed(Rig& r, int id) {
  trace::Ctx ctx = r.col.new_trace();
  Dial dial(r.net, *r.client, *r.server, r.port, ctx, kTimeout, kTool);
  Admission answer = co_await dial.request(kRequest);
  if (answer == Admission::Ok) co_await r.sim.delay(kHold);
  r.note(id, answer);
}

enum class Fault { None, Full, Queued, Blackhole, Partition, Heals, Lost };

std::string play(bool dial, Fault fault) {
  Rig r(fault == Fault::Full ? 0 : fault == Fault::Queued ? 1 : 4);
  if (fault == Fault::Queued) r.port.set_policy({.enabled = true});
  if (fault == Fault::Blackhole) {
    r.port.crash(true);
    r.sim.schedule(200.0, [&r] { r.port.restart(); });
  }
  double down = fault == Fault::Lost ? 0.42 : 0;
  double heal = fault == Fault::Heals ? 3.0 : 200.0;
  if (fault == Fault::Partition || fault == Fault::Heals ||
      fault == Fault::Lost) {
    r.sim.schedule(down, [&r] { r.net.set_wan_down("anl", "uc", true); });
    r.sim.schedule(heal, [&r] { r.net.set_wan_down("anl", "uc", false); });
  }
  for (int id = 0; id < 3; ++id) {
    r.sim.spawn(dial ? dialed(r, id) : stepwise(r, id));
  }
  r.sim.run(100.0);
  return r.record();
}

// A Dial makes the same span, event and port calls as the stages awaited
// one by one, and holds and releases the admission slot at the same
// points, whatever the outcome.
TEST(DialTest, MatchesTheStepwiseFront) {
  for (Fault f : {Fault::None, Fault::Full, Fault::Queued, Fault::Blackhole,
                  Fault::Partition, Fault::Heals, Fault::Lost}) {
    std::string dialed = play(true, f);
    EXPECT_EQ(dialed, play(false, f)) << static_cast<int>(f);
    EXPECT_NE(dialed.find("#2"), std::string::npos) << static_cast<int>(f);
  }
}

// Without a tool, on loopback and an Up port, nothing suspends; the slot
// is held until the Dial goes.
TEST(DialTest, LoopbackWithoutToolCompletesInline) {
  Rig r;
  {
    Dial dial(r.net, *r.server, *r.server, r.port, {}, kTimeout);
    Dial::Stages all = dial.request(100);
    EXPECT_TRUE(all.await_ready());
    EXPECT_EQ(all.await_resume(), Admission::Ok);
    EXPECT_EQ(r.port.in_flight(), 1);
  }
  EXPECT_EQ(r.port.in_flight(), 0);
}

/// A servlet's front: the tool and connect when `connect`, then the
/// request under the caller's span, then the admission.
sim::Task<void> phased(Rig& r, bool connect) {
  trace::Ctx ctx = r.col.new_trace();
  Dial dial(r.net, *r.client, *r.server, r.port, ctx, kTimeout,
            connect ? kTool : Dial::kNoTool);
  if (connect) r.note(0, co_await dial.connect());
  trace::Span op(ctx, trace::SpanKind::ProducerSelect);
  r.note(1, co_await dial.send(700, op.ctx()));
  r.note(2, co_await dial.admit());
}

std::string span_kinds(const Rig& r) {
  std::string out;
  for (const trace::SpanRecord& s : r.col.spans()) {
    out += std::string(trace::kind_name(s.kind)) + "<" +
           std::to_string(s.parent) + " ";
  }
  return out;
}

TEST(DialTest, StagesRunInOrder) {
  Rig r(0);
  r.sim.spawn(phased(r, true));
  r.sim.run();
  EXPECT_NE(r.log.find("#0 0 "), std::string::npos);
  EXPECT_NE(r.log.find("#1 0 "), std::string::npos);
  EXPECT_NE(r.log.find("#2 1 "), std::string::npos);
  EXPECT_EQ(span_kinds(r),
            "client_tool<0 connect<0 producer_select<0 request_send<3 ");
}

// A request on an open connection: no tool, no connect.
TEST(DialTest, SendWithoutConnect) {
  Rig r;
  r.sim.spawn(phased(r, false));
  r.sim.run();
  EXPECT_NE(r.log.find("#2 0 in_flight=1"), std::string::npos);
  EXPECT_EQ(span_kinds(r), "producer_select<0 request_send<1 ");
  EXPECT_EQ(r.port.in_flight(), 0);
}

// The route is resolved before the tool stage: a missing WAN throws out
// of the co_await, in the awaiting coroutine.
TEST(DialTest, MissingWanThrowsInTheAwaiter) {
  sim::Simulation sim;
  Network net(sim);
  trace::Collector col(sim, 7);
  col.set_enabled(true);
  net.add_site({.name = "a"});
  net.add_site({.name = "b"});
  Interface& ia = net.attach("h1", "a");
  Interface& ib = net.attach("h2", "b");
  ServerPort port(sim, 4);
  bool caught = false;
  auto op = [](Network& n, Interface& x, Interface& y, ServerPort& p,
               trace::Ctx ctx, bool* out) -> sim::Task<void> {
    try {
      Dial dial(n, x, y, p, ctx, kTimeout, 1.0);
      (void)co_await dial.request(100);
    } catch (const std::invalid_argument&) {
      *out = true;
    }
  };
  sim.spawn(op(net, ia, ib, port, col.new_trace(), &caught));
  sim.run();
  EXPECT_TRUE(caught);
  EXPECT_TRUE(col.spans().empty());
}

sim::Task<void> hang(Rig& r, double tool) {
  Dial dial(r.net, *r.client, *r.server, r.port, r.col.new_trace(), -1,
            tool);
  (void)co_await dial.request(kRequest);
  co_await r.sim.delay(1e9);
}

// Dials parked in each stage, or holding a slot, are destroyed with
// their frames: no wake-up outlives them (checked under the sanitizers).
TEST(DialTest, ShutdownWithDialsParked) {
  Rig r(1);
  Rig dead;
  dead.port.crash(true);
  r.sim.spawn(hang(r, 5.0));    // in the tool delay
  r.sim.spawn(hang(r, 0));      // holding the slot after its request
  r.sim.spawn(hang(r, 0.001));  // refused by the full port
  dead.sim.spawn(hang(dead, 0));  // in the blackholed admission
  r.sim.run(1.0);
  dead.sim.run(1.0);
  EXPECT_EQ(r.port.in_flight(), 1);
  EXPECT_EQ(r.port.total_refused(), 1u);
  EXPECT_EQ(dead.port.total_admitted(), 0u);
  r.sim.shutdown();
  dead.sim.shutdown();
  EXPECT_EQ(r.port.in_flight(), 0);
  EXPECT_EQ(r.sim.run(), 0u);
  EXPECT_EQ(dead.sim.run(), 0u);
}

struct Reply {
  bool timed_out = false;
};

TEST(DialTest, UnansweredMarksFailuresBeforeTheAdmission) {
  Rig r(0);
  trace::Ctx ctx = r.col.new_trace();
  Dial refused(r.net, *r.server, *r.server, r.port, ctx, kTimeout);
  Dial::Stages all = refused.request(100);
  ASSERT_TRUE(all.await_ready());
  EXPECT_EQ(all.await_resume(), Admission::Refused);
  EXPECT_FALSE(refused.unanswered<Reply>(ctx, "s").timed_out);
  EXPECT_FALSE(refused.unanswered<Reply>().timed_out);
  ASSERT_EQ(r.col.spans().size(), 2u);  // the connect, then the instant
  EXPECT_EQ(r.col.spans()[1].kind, trace::SpanKind::Refused);
  EXPECT_EQ(r.col.name(r.col.spans()[1].name_id), "s");
}

sim::Task<void> lose_request(Rig& r, Reply* out) {
  trace::Ctx ctx = r.col.new_trace();
  Dial dial(r.net, *r.client, *r.server, r.port, ctx, kTimeout, kTool);
  if (co_await dial.request(kRequest) != Admission::Ok) {
    *out = dial.unanswered<Reply>(ctx, "s");
  }
}

// A request lost after the admission leaves only its RequestSend span.
TEST(DialTest, RequestLostAfterTheAdmissionMarksNoInstant) {
  Rig r;
  Reply reply;
  r.sim.schedule(0.42, [&r] { r.net.set_wan_down("anl", "uc", true); });
  r.sim.spawn(lose_request(r, &reply));
  r.sim.run(100.0);
  EXPECT_TRUE(reply.timed_out);
  EXPECT_EQ(span_kinds(r), "client_tool<0 connect<0 request_send<0 ");
  EXPECT_EQ(r.port.in_flight(), 0);
}

}  // namespace
}  // namespace gridmon::net
