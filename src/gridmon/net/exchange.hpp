#pragma once

/// \file exchange.hpp
/// One request/reply exchange between a client and a service.
///
/// Every service in the paper is measured through the same client: a
/// tool starts up, connects, is admitted or refused at the server's
/// listen queue, sends its query and waits for the answer (§3.1). `Dial`
/// runs both directions of that exchange for every service handler and
/// builds the reply of an attempt that never got past the request.

#include <coroutine>
#include <cstdint>
#include <new>
#include <string_view>

#include "gridmon/net/network.hpp"
#include "gridmon/net/server_port.hpp"
#include "gridmon/sim/wake.hpp"
#include "gridmon/trace/collector.hpp"

namespace gridmon::net {

/// An exchange from `client` to `server`: the client tool's start-up (a
/// ClientTool span over `tool_latency` seconds, when there is a tool),
/// the connect, the admission at `port`, then the request leg.
/// `co_await dial.request(bytes)` runs them all and yields Ok, the port's
/// refusal, or TimedOut when the connect, a blackholed admission or the
/// request leg gives up on a dead path after `timeout` seconds. Once the
/// service has served the request, `co_await dial.respond(bytes)` sends
/// the answer back. An admitted Dial holds the port slot until it is
/// destroyed, so a handler declares it before the state its service uses.
///
/// Like Transfer and Admit, a Dial is a state machine in the awaiting
/// coroutine's frame and allocates no frame of its own. Its one Transfer
/// carries the connect round trip, then the request, then the response;
/// the tool stage traces in the connect's span before the connect starts.
/// It makes the span, event-queue, PS and port calls of the stages
/// awaited one by one, in the same order.
///
/// A servlet that reads the request before it admits the work awaits the
/// stages one at a time instead: `connect()`, `send()`, then `admit()`.
/// Across sites without a WAN the first await throws
/// std::invalid_argument before any stage runs.
class Dial : sim::Step {
 public:
  static constexpr double kNoTool = -1;

  Dial(Network& net, Interface& client, Interface& server, ServerPort& port,
       const trace::Ctx& ctx, double timeout,
       double tool_latency = kNoTool) noexcept
      : sim::Step{&Dial::on_wake},
        tool_(tool_latency),
        leg_(net.connect(client, server, ctx, timeout)),
        admit_(port, timeout, -1) {}
  Dial(const Dial&) = delete;
  Dial& operator=(const Dial&) = delete;
  ~Dial() {
    if (admitted_) admit_.port_->release();
  }

  /// The awaitable of some stages of a named Dial (GCC would copy the
  /// Dial itself into the frame).
  class Stages {
   public:
    explicit Stages(Dial& dial) noexcept : dial_(&dial) {}
    bool await_ready() { return dial_->run(); }
    void await_suspend(std::coroutine_handle<> h) noexcept {
      dial_->caller_ = h;
    }
    Admission await_resume() const noexcept { return dial_->result_; }

   private:
    Dial* dial_;
  };

  /// Every stage, with a request leg of `bytes` traced under the Dial's
  /// context.
  Stages request(double bytes) noexcept {
    bytes_ = bytes;
    return Stages(*this);
  }

  /// Only the client tool and the connect: Ok or TimedOut.
  Stages connect() noexcept {
    pause_ = true;
    return Stages(*this);
  }

  /// Only a request leg of `bytes`, traced as a RequestSend under `ctx`:
  /// Ok or TimedOut. Comes after connect() or in place of it (a request
  /// on an open connection), before admit().
  Stages send(double bytes, const trace::Ctx& ctx) noexcept {
    aim_request(bytes, ctx);
    pause_ = true;
    return Stages(*this);
  }

  /// Only the admission.
  Stages admit() noexcept {
    stage_ = Stage::Admit;
    pause_ = false;
    return Stages(*this);
  }

  /// The response leg of `bytes` from the server back to the client,
  /// traced as a ResponseSend under the request leg's context, with the
  /// same stall timeout: Ok or TimedOut. Comes after an answered request.
  Stages respond(double bytes) noexcept {
    // The request leg points from the client to the server.
    aim(*leg_.to_, *leg_.from_, bytes, leg_.span_.parent(),
        trace::SpanKind::ResponseSend);
    pause_ = true;
    return Stages(*this);
  }

  /// The reply of an exchange the server never answered, from the last
  /// await: timed out on a dead path, or refused. A failure before the
  /// admission marks the attempt's trace `ctx` with a Timeout or Refused
  /// instant naming `server`; a request leg lost after it leaves only
  /// its RequestSend span.
  template <typename Reply>
  Reply unanswered(const trace::Ctx& ctx = {},
                   std::string_view server = {}) const {
    Reply reply;
    reply.timed_out = result_ == Admission::TimedOut;
    if (ctx && !admitted_) {
      ctx.col->instant(ctx,
                       reply.timed_out ? trace::SpanKind::Timeout
                                       : trace::SpanKind::Refused,
                       server);
    }
    return reply;
  }

 private:
  enum class Stage : std::uint8_t {
    Tool, ToolWait, Leg, LegWait, Admit, AdmitWait
  };

  static void on_wake(sim::Step* step) {
    auto* self = static_cast<Dial*>(step);
    if (!self->run()) return;
    self->caller_();  // last: the awaiter may destroy this object
  }

  /// Run the stages from stage_ on until one parks (false) or the await
  /// is answered (true, result_ set).
  bool run() {
    for (;;) {
      switch (stage_) {
        case Stage::Tool:
          if (tool_ >= 0) {
            // A missing WAN throws here, in the awaiter, not from the
            // event loop after the tool delay.
            if (leg_.cross_site()) (void)leg_.wan();
            leg_.span_.open(trace::SpanKind::ClientTool, 0);
            stage_ = Stage::ToolWait;
            if (tool_ > 0) {
              leg_.net_->simulation().schedule_resume(tool_, this);
              return false;
            }
          }
          [[fallthrough]];
        case Stage::ToolWait:
          leg_.span_.close();  // no-op without a tool
          [[fallthrough]];
        case Stage::Leg:
          stage_ = Stage::LegWait;
          if (!leg_.await_ready() && leg_.start(this)) return false;
          [[fallthrough]];
        case Stage::LegWait:
          if (!leg_.await_resume()) return answer(Admission::TimedOut);
          if (admitted_ || pause_) return answer(Admission::Ok);
          [[fallthrough]];
        case Stage::Admit:
          stage_ = Stage::AdmitWait;
          if (!admit_.await_ready() && admit_.start(this)) return false;
          [[fallthrough]];
        case Stage::AdmitWait: {
          Admission admission = admit_.await_resume();
          admitted_ = admission == Admission::Ok;
          if (!admitted_ || bytes_ < 0) return answer(admission);
          aim_request(bytes_, leg_.span_.parent());
          break;
        }
      }
    }
  }

  /// Re-aim the connect leg at a request of `bytes` from the client.
  void aim_request(double bytes, const trace::Ctx& ctx) noexcept {
    // Until its SYN-ACK leg runs, the connect points from the client to
    // the server; after it, back.
    Interface& client = leg_.reply_ ? *leg_.from_ : *leg_.to_;
    Interface& server = leg_.reply_ ? *leg_.to_ : *leg_.from_;
    aim(client, server, bytes, ctx, trace::SpanKind::RequestSend);
  }

  /// Re-aim the leg at `bytes` from `from` to `to`, with the same stall
  /// timeout.
  void aim(Interface& from, Interface& to, double bytes,
           const trace::Ctx& ctx, trace::SpanKind kind) noexcept {
    Network& net = *leg_.net_;
    double timeout = leg_.stall_timeout_;
    leg_.~Transfer();
    ::new (&leg_) Network::Transfer(net, from, to, bytes, ctx, kind, timeout);
    stage_ = Stage::Leg;
  }

  bool answer(Admission result) noexcept {
    result_ = result;
    return true;
  }

  sim::Wake caller_;
  double tool_;        // the client tool's start-up; negative: no tool
  double bytes_ = -1;  // the request after the admission; negative: none
  Network::Transfer leg_;  // the connect round trip, then the request
  ServerPort::Admit admit_;
  Stage stage_ = Stage::Tool;
  bool pause_ = false;     // this await ends with the leg
  bool admitted_ = false;  // the port slot is held
  Admission result_ = Admission::Refused;
};

}  // namespace gridmon::net
