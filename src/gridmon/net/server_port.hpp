#pragma once

/// \file server_port.hpp
/// Listen-queue admission control. A server accepts at most `backlog`
/// in-flight requests (accepted + queued); beyond that, new connections
/// are refused (RST / accept-queue overflow) and clients must back off and
/// retry.
///
/// This models the effect the paper repeatedly observes: past a
/// concurrency threshold "the network on the server side can no longer
/// handle the traffic from the queries, which limits the number of
/// concurrent queries presented to the information server" — throughput
/// flattens and *host load drops*, because most clients sit in
/// exponential backoff instead of being served.
///
/// For fault injection the port also models the two classic failure
/// signatures of a dead service:
///  - Refusing: the process is down but the host is up, so connections
///    get an immediate RST (cheap, client retries fast).
///  - Blackhole: the host is gone, SYNs vanish, and the client hangs
///    until its own connect timeout expires (expensive).

#include <coroutine>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "gridmon/resilience/policy.hpp"
#include "gridmon/sim/event.hpp"
#include "gridmon/sim/simulation.hpp"
#include "gridmon/sim/wake.hpp"

namespace gridmon::net {

class Dial;

enum class PortState { Up, Refusing, Blackhole };

/// Outcome of an `admit()` attempt. `Shed` means the request was parked
/// in the resilience wait queue but dropped before service because its
/// queue wait exceeded the deadline budget (dead work the server declined
/// to do).
enum class Admission { Ok, Refused, TimedOut, Shed };

class ServerPort {
 public:
  ServerPort(sim::Simulation& sim, int backlog)
      : backlog_(backlog), up_(sim) {
    up_.trigger();
  }
  ServerPort(const ServerPort&) = delete;
  ServerPort& operator=(const ServerPort&) = delete;

  /// Try to admit a new request. Returns false (a refused connection)
  /// when the backlog is full or the service is down.
  bool try_admit() {
    if (state_ != PortState::Up || in_flight_ >= backlog_) {
      ++refused_;
      return false;
    }
    ++in_flight_;
    ++admitted_;
    return true;
  }

  class Admit;

  /// Admission with failure semantics. When the port is Up this behaves
  /// exactly like try_admit() and completes in await_ready (no suspension,
  /// so fault-free runs cost no sim events). A Refusing port answers
  /// immediately; a Blackhole port swallows the attempt until the service
  /// restarts or `timeout` seconds pass (timeout < 0 waits forever, like a
  /// client with no connect timeout).
  ///
  /// With a resilience ServerPolicy installed, a full-but-Up port parks
  /// the request in a bounded wait queue instead of refusing; freed slots
  /// are handed to waiters in policy order (FIFO/LIFO/deadline-EDF), and
  /// waiters whose queue wait outlives their deadline are shed lazily at
  /// hand-off time. `deadline` is an absolute sim-time by which service
  /// must have started (negative = derive from the policy's
  /// deadline_budget).
  Admit admit(double timeout = -1, double deadline = -1);

  /// Release the admission slot (request fully processed or failed).
  /// Under a resilience policy the freed slot is handed directly to a
  /// queued waiter — after shedding waiters whose deadline has already
  /// passed — without ever decrementing in_flight_, mirroring
  /// sim::Resource's slot hand-off.
  void release() {
    if (policy_.enabled && !queue_.empty()) {
      shed_expired();
      if (!queue_.empty()) {
        std::size_t winner = pick_waiter();
        QueueAwaiter* w = queue_[winner];
        queue_.erase(queue_.begin() +
                     static_cast<std::ptrdiff_t>(winner));
        w->result = Admission::Ok;
        ++admitted_;
        up_.sim().schedule_resume(0, w->wake);
        return;
      }
    }
    --in_flight_;
  }

  /// Crash the service: refuse (RST) or, when the whole host is gone,
  /// blackhole new connections. In-flight requests are the caller's
  /// problem — services drop them at their own crash points.
  void crash(bool blackhole = false) {
    state_ = blackhole ? PortState::Blackhole : PortState::Refusing;
    up_.reset();
    // Queued waiters see the crash as a refused connection.
    std::vector<QueueAwaiter*> drained;
    drained.swap(queue_);
    for (QueueAwaiter* w : drained) {
      w->result = Admission::Refused;
      ++refused_;
      up_.sim().schedule_resume(0, w->wake);
    }
  }

  /// Bring the service back; wakes clients hanging on a blackholed SYN.
  void restart() {
    state_ = PortState::Up;
    up_.trigger();
  }

  bool up() const noexcept { return state_ == PortState::Up; }
  PortState state() const noexcept { return state_; }

  /// Install (or clear) the resilience server policy. With `enabled`
  /// false — the default — every code path is byte-identical to a port
  /// without the resilience layer.
  void set_policy(const resilience::ServerPolicy& policy) {
    policy_ = policy;
  }
  const resilience::ServerPolicy& policy() const noexcept { return policy_; }

  /// Shed-pressure signal for serve-stale degraded modes: true when the
  /// policy is on and in-flight occupancy has crossed the pressure
  /// threshold (or requests are already queueing behind a full backlog).
  bool overloaded() const noexcept {
    if (!policy_.enabled || state_ != PortState::Up) return false;
    return !queue_.empty() ||
           static_cast<double>(in_flight_) >=
               policy_.pressure_threshold * static_cast<double>(backlog_);
  }

  int in_flight() const noexcept { return in_flight_; }
  int backlog() const noexcept { return backlog_; }
  std::size_t queued() const noexcept { return queue_.size(); }
  std::uint64_t total_admitted() const noexcept { return admitted_; }
  std::uint64_t total_refused() const noexcept { return refused_; }
  std::uint64_t total_queued() const noexcept { return total_queued_; }
  std::uint64_t total_shed() const noexcept { return total_shed_; }

 private:
  /// One parked admission attempt: the wait-queue part of an Admit,
  /// which lives in the awaiting coroutine's frame. The port holds only a
  /// raw pointer for the park duration, and every exit path (hand-off,
  /// shed, crash) wakes the awaiter exactly once via the scheduler.
  struct QueueAwaiter {
    double deadline;  // absolute; +inf when no budget applies
    sim::Wake wake;   // the awaiting coroutine
    Admission result = Admission::Refused;
    /// The Admit's own flag, set by the up event when it ends a timed
    /// blackhole wait. It sits in this record's padding so an Admit
    /// stays 48 B: the GRIS attempt frame that holds one is 432 B, the
    /// most its 448 B pool block takes.
    bool restarted = false;
  };

  /// True when an attempt on an Up port must park in the policy queue.
  bool must_queue() const noexcept {
    return policy_.enabled && state_ == PortState::Up &&
           in_flight_ >= backlog_ && queue_.size() < policy_.queue_limit;
  }

  /// Lazily drop waiters whose service deadline already passed: doing
  /// their work now would be dead work the client has given up on.
  void shed_expired() {
    double now = up_.sim().now();
    for (std::size_t i = 0; i < queue_.size();) {
      if (now > queue_[i]->deadline) {
        QueueAwaiter* w = queue_[i];
        queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(i));
        w->result = Admission::Shed;
        ++total_shed_;
        up_.sim().schedule_resume(0, w->wake);
      } else {
        ++i;
      }
    }
  }

  /// Index of the waiter the freed slot goes to, per the discipline.
  /// queue_ is append-ordered, so FIFO is the front and LIFO the back;
  /// EDF picks the earliest deadline with arrival order as tie-break.
  std::size_t pick_waiter() const {
    switch (policy_.discipline) {
      case resilience::QueueDiscipline::Fifo:
        return 0;
      case resilience::QueueDiscipline::Lifo:
        return queue_.size() - 1;
      case resilience::QueueDiscipline::DeadlineEdf: {
        std::size_t best = 0;
        for (std::size_t i = 1; i < queue_.size(); ++i) {
          if (queue_[i]->deadline < queue_[best]->deadline) best = i;
        }
        return best;
      }
    }
    return 0;
  }

  int backlog_;
  PortState state_ = PortState::Up;
  int in_flight_ = 0;
  std::uint64_t admitted_ = 0;
  std::uint64_t refused_ = 0;
  std::uint64_t total_queued_ = 0;
  std::uint64_t total_shed_ = 0;
  resilience::ServerPolicy policy_{};
  std::vector<QueueAwaiter*> queue_;
  sim::Event up_;
};

/// The awaitable ServerPort::admit returns. It answers an Up port in
/// await_ready; otherwise it parks in the awaiting coroutine's frame: on
/// the port's up event through its sim::Step while the port is
/// blackholed, then in the policy wait queue, which wakes the coroutine
/// directly. It makes the same event and queue calls as a coroutine
/// with the same steps would, and allocates nothing (a timed blackhole
/// wait allocates the race state of Event::park_for).
class ServerPort::Admit : sim::Step {
  friend class Dial;  // drives an Admit and releases its slot

 public:
  Admit(ServerPort& port, double timeout, double service_deadline) noexcept
      : sim::Step{&Admit::on_wake},
        entry_{service_deadline, {}},
        port_(&port),
        timeout_(timeout) {}
  Admit(const Admit&) = delete;
  Admit& operator=(const Admit&) = delete;

  bool await_ready() {
    if (port_->state_ == PortState::Blackhole || port_->must_queue()) {
      return false;
    }
    answer();
    return true;
  }
  bool await_suspend(std::coroutine_handle<> h) { return start(h); }
  Admission await_resume() const noexcept { return entry_.result; }

 private:
  /// Park after await_ready said no, waking `done` with the answer;
  /// false when the answer came at once.
  bool start(sim::Wake done) {
    entry_.wake = done;
    // From here on timeout_ is the absolute end of the blackhole wait.
    if (timeout_ >= 0) timeout_ += port_->up_.sim().now();
    return run();
  }

  static void on_wake(sim::Step* step) {
    auto* self = static_cast<Admit*>(step);
    if (self->timeout_ >= 0 && !self->entry_.restarted &&
        self->port_->state_ == PortState::Blackhole) {
      self->time_out();
    } else if (self->run()) {
      return;
    }
    self->entry_.wake();  // last: the awaiter may destroy this object
  }

  /// Wait out a blackhole, then queue or answer. True when parked.
  bool run() {
    ServerPort& port = *port_;
    sim::Event& up = port.up_;
    while (port.state_ == PortState::Blackhole) {
      if (timeout_ < 0) {
        up.park(this);
        return true;
      }
      double left = timeout_ - up.sim().now();
      if (!up.triggered() && left > 0) {
        entry_.restarted = false;
        up.park_for(this, left, &entry_.restarted);
        return true;
      }
      if (!up.triggered() && port.state_ == PortState::Blackhole) {
        time_out();
        return false;
      }
    }
    if (port.must_queue()) {
      double now = up.sim().now();
      double& deadline = entry_.deadline;
      deadline = deadline >= 0 ? deadline
                 : port.policy_.deadline_budget > 0
                     ? now + port.policy_.deadline_budget
                     : std::numeric_limits<double>::infinity();
      ++port.total_queued_;
      port.queue_.push_back(&entry_);
      return true;
    }
    answer();
    return false;
  }

  void answer() {
    entry_.result = port_->try_admit() ? Admission::Ok : Admission::Refused;
  }
  void time_out() {
    ++port_->refused_;
    entry_.result = Admission::TimedOut;
  }

  QueueAwaiter entry_;  // the answer, and the wait-queue record
  ServerPort* port_;
  double timeout_;  // relative until await_suspend, then absolute
};

inline ServerPort::Admit ServerPort::admit(double timeout, double deadline) {
  return Admit(*this, timeout, deadline);
}

/// RAII admission slot.
class AdmissionSlot {
 public:
  AdmissionSlot() noexcept = default;
  explicit AdmissionSlot(ServerPort* port) noexcept : port_(port) {}
  AdmissionSlot(AdmissionSlot&& o) noexcept
      : port_(std::exchange(o.port_, nullptr)) {}
  AdmissionSlot& operator=(AdmissionSlot&& o) noexcept {
    if (this != &o) {
      release();
      port_ = std::exchange(o.port_, nullptr);
    }
    return *this;
  }
  AdmissionSlot(const AdmissionSlot&) = delete;
  AdmissionSlot& operator=(const AdmissionSlot&) = delete;
  ~AdmissionSlot() { release(); }

  void release() noexcept {
    if (port_ != nullptr) {
      port_->release();
      port_ = nullptr;
    }
  }

 private:
  ServerPort* port_ = nullptr;
};

}  // namespace gridmon::net
