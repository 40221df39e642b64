#pragma once

/// \file workload.hpp
/// The paper's user simulator (§3.1): N user processes spread over the
/// client machines (at most 50 per machine), each issuing blocking
/// queries with a one-second wait between response and next query.
/// Refused connections are retried with exponential backoff; the response
/// time of a query counts from first attempt to final success, exactly as
/// a looping shell script would measure it.
///
/// The same client also runs the §4 "additional patterns of user access":
/// open Poisson arrivals, whose offered load does not self-throttle when
/// the server slows. Both arrival processes run one client coroutine
/// (retries, deadline, resilience policy, error accounting, tracing).

#include <coroutine>
#include <cstdint>
#include <exception>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "gridmon/core/testbed.hpp"
#include "gridmon/net/network.hpp"
#include "gridmon/resilience/backoff.hpp"
#include "gridmon/resilience/policy.hpp"
#include "gridmon/sim/rng.hpp"
#include "gridmon/sim/task.hpp"
#include "gridmon/trace/collector.hpp"

namespace gridmon::core {

/// One query attempt as seen by the client.
struct QueryAttempt {
  bool admitted = false;
  double response_bytes = 0;
  bool timed_out = false;  // a connect/transfer deadline expired on the way
  bool failed = false;     // admitted, but the service could not answer
  bool stale = false;      // answered from data older than the service's bound

  /// The one success rule: admitted, answered, and in time.
  bool ok() const noexcept { return admitted && !failed && !timed_out; }
  /// Bounced off the listen queue (a dead path times out instead).
  bool refused() const noexcept { return !admitted && !timed_out; }
};

/// A service reply that can stand for a query attempt: it carries the
/// five QueryAttempt fields (MdsReply, HawkeyeReply, RgmaReply, and
/// QueryAttempt itself).
template <typename Reply>
concept AttemptReply = requires(const Reply& r) {
  QueryAttempt{r.admitted, r.response_bytes, r.timed_out, r.failed, r.stale};
};

/// One query attempt: an owning handle to the service coroutine that
/// answers it (Gris::query, Agent::query, ...). Awaiting it starts that
/// coroutine and maps its reply to a QueryAttempt in await_resume, so an
/// attempt costs the service's frames and no adapter frame of its own.
/// A service exception is rethrown to the awaiter; an AttemptTask
/// destroyed unawaited frees the service frame.
///
/// Argument rule: an adapter returns the service's task unawaited, so
/// the adapter's temporaries are gone before the service runs. Every
/// service coroutine an adapter reaches must take its string arguments
/// by value (copied into the service frame), never by reference or
/// string_view.
class [[nodiscard]] AttemptTask {
 public:
  /// Implicit, so an adapter can return a service's task as it is.
  template <AttemptReply Reply>
  AttemptTask(sim::Task<Reply>&& task) noexcept
      : AttemptTask(task.release(), &map_reply<Reply>) {}
  AttemptTask(AttemptTask&& other) noexcept
      : handle_(std::exchange(other.handle_, {})),
        promise_(other.promise_),
        map_(other.map_) {}
  AttemptTask& operator=(AttemptTask&&) = delete;
  AttemptTask(const AttemptTask&) = delete;
  AttemptTask& operator=(const AttemptTask&) = delete;
  ~AttemptTask() {
    if (handle_) handle_.destroy();
  }

  bool await_ready() const noexcept { return !handle_ || handle_.done(); }
  std::coroutine_handle<> await_suspend(
      std::coroutine_handle<> cont) noexcept {
    promise_->continuation = cont;
    return handle_;  // start the service coroutine now
  }
  QueryAttempt await_resume() const {
    if (promise_->exception) std::rethrow_exception(promise_->exception);
    return map_(promise_);
  }

 private:
  using Map = QueryAttempt (*)(sim::detail::PromiseBase*);

  template <typename Promise>
  AttemptTask(std::coroutine_handle<Promise> h, Map map) noexcept
      : handle_(h), promise_(h ? &h.promise() : nullptr), map_(map) {}

  template <typename Reply>
  static QueryAttempt map_reply(sim::detail::PromiseBase* p) {
    const Reply& r = *static_cast<sim::detail::Promise<Reply>*>(p)->value;
    return QueryAttempt{r.admitted, r.response_bytes, r.timed_out, r.failed,
                        r.stale};
  }

  std::coroutine_handle<> handle_;
  sim::detail::PromiseBase* promise_;
  Map map_;  // the reply type's view as a QueryAttempt
};

/// A client-side query function: performs one complete attempt against a
/// service from the given client NIC under the query's trace context (the
/// null Ctx when tracing is off). The adapters in adapters.hpp return the
/// service's own task; a coroutine lambda returning
/// sim::Task<QueryAttempt> works too.
using TracedQueryFn = std::function<AttemptTask(net::Interface&, trace::Ctx)>;

struct WorkloadConfig {
  double think_time = 1.0;          // the paper's 1-second wait
  int max_users_per_host = kUcUsersPerHost;  // the paper's per-machine cap
  /// Retry delays after a refused connection. A 2002 Linux client whose
  /// SYN was dropped by a full listen queue silently retransmits on the
  /// kernel's schedule (~3, 6, 12, 24, 48 s ...); the last entry repeats.
  std::vector<double> retry_schedule{3, 6, 12, 24, 48, 75};
  /// Retransmission timing is nearly deterministic, which synchronizes
  /// overloaded clients into arrival bursts — the cause of the load
  /// *decrease* past the saturation threshold seen in the paper.
  double retry_jitter = 0.02;
  /// Client-script bookkeeping CPU per query (fork, parsing output).
  double client_cpu_per_query = 0.01;
  /// End-to-end patience per query (the shell script's `timeout N`
  /// wrapper): once this much wall clock has passed since the first
  /// attempt the query is abandoned and counted as an error. 0 disables
  /// the deadline entirely (the original blocking-client behavior).
  double query_deadline = 0;
  /// Give up after this many attempts (first try + retries). 0 = retry
  /// forever (the original behavior).
  int max_attempts = 0;
  /// Client-side overload control (retry budget + circuit breaker toward
  /// the service under test). Disabled by default; when disabled the
  /// workload's behavior and RNG stream are byte-identical to the
  /// pre-resilience tree.
  resilience::ClientPolicyConfig resilience{};

  /// Throws std::invalid_argument unless `n` users fit on `hosts` client
  /// machines at max_users_per_host each.
  void check_fits(int n, std::size_t hosts) const;
};

/// One completed query.
struct Completion {
  double t;              // completion time
  double response_time;  // first attempt -> success
  double bytes;
  bool stale = false;    // the answer was flagged stale by the service
  /// The user (closed loop) or arrival (open loop) that issued it; with
  /// `t` a total order, which the sharded engine's merge relies on.
  std::uint64_t uid = 0;
};

/// Client-side counters every engine keeps. A measurement window is the
/// difference of two snapshots (see core::window_report).
struct ClientCounters {
  std::uint64_t queries = 0;    // queries started (first attempts issued)
  std::uint64_t attempts = 0;   // network attempts (no breaker fast-fails)
  std::uint64_t refused = 0;    // attempts refused at the listen queue
  std::uint64_t timeouts = 0;   // attempts that timed out on a dead path
  std::uint64_t failures = 0;   // attempts admitted but answered in error
  std::uint64_t abandoned = 0;  // queries given up on
  /// Total errors the user scripts observed.
  std::uint64_t errors() const noexcept {
    return timeouts + failures + abandoned;
  }
};

/// The largest `max_attempts` either engine honours: the sharded engine
/// counts a query's retries in 16 bits.
inline constexpr int kMaxAttemptsLimit = 0x10000;

/// What a query does once an attempt settles.
enum class Verdict : std::uint8_t { Done, Retry, Abandon };

/// The client rules' policy half, run once per attempt over what every
/// user of a workload shares: `policy`, the retry budget and breaker
/// toward the service (its allow() gated the attempt; a fast-failed one
/// settles as null), and the `max_attempts` cap. An attempt that lost
/// the race to its query's deadline settles through settle_lost.
inline Verdict settle(resilience::ClientPolicy& policy, int max_attempts,
                      double now, std::size_t attempt,
                      const QueryAttempt* sent) {
  if (sent != nullptr) {
    policy.record(now, sent->ok());
    if (sent->ok()) return Verdict::Done;
  }
  if (max_attempts > 0 && attempt >= static_cast<std::size_t>(max_attempts)) {
    return Verdict::Abandon;
  }
  // Retry budget: an exhausted budget abandons the query rather than
  // amplifying an outage into a retry storm.
  return policy.allow_retry() ? Verdict::Retry : Verdict::Abandon;
}

/// The policy half for an attempt that lost the race to its query's
/// deadline: the client killed it, so the breaker hears a failure (a
/// half-open probe gives its slot back and re-opens the breaker) and the
/// query is abandoned.
inline Verdict settle_lost(resilience::ClientPolicy& policy, double now) {
  policy.record(now, false);
  return Verdict::Abandon;
}

/// The per-user half's answer. `wait` is the backoff before a Retry, or
/// the time left to the deadline when that falls inside the backoff (an
/// Abandon); negative means no backoff.
struct UserStep {
  Verdict verdict = Verdict::Done;
  double wait = -1;
};

/// The client rules' per-user half: count the settled attempt `sent`
/// (null: fast-failed or lost to the deadline) into `counters` and turn the
/// verdict into the user's next step. A Retry takes its delay from
/// `delay()`, the engine's own draw, and gives up at `deadline`
/// (absolute; negative = none) when that falls inside the backoff. The
/// caller counts an abandon when it takes effect.
template <typename Delay>
UserStep next_step(ClientCounters& counters, const QueryAttempt* sent,
                   Verdict verdict, double now, double deadline,
                   Delay&& delay) {
  if (sent != nullptr) {
    if (sent->timed_out) ++counters.timeouts;
    if (sent->failed) ++counters.failures;
    if (sent->refused()) ++counters.refused;
  }
  if (verdict != Verdict::Retry) return UserStep{verdict};
  double wait = delay();
  if (deadline >= 0 && now + wait >= deadline) {
    return UserStep{Verdict::Abandon, deadline - now};
  }
  return UserStep{Verdict::Retry, wait};
}

/// Race one attempt against an absolute `deadline`: nullopt when that
/// comes first, while the orphaned attempt runs on. `query` outlives it.
sim::Task<std::optional<QueryAttempt>> race_attempt(sim::Simulation& sim,
                                                    const TracedQueryFn& query,
                                                    net::Interface& nic,
                                                    trace::Ctx ctx,
                                                    double deadline);

class UserWorkload {
 public:
  UserWorkload(Testbed& testbed, TracedQueryFn query,
               WorkloadConfig config = {});
  UserWorkload(const UserWorkload&) = delete;
  UserWorkload& operator=(const UserWorkload&) = delete;
  /// User coroutines reference this object; destroy them first.
  ~UserWorkload() { testbed_.sim().shutdown(); }

  /// Closed loop: launch `n` users spread evenly over `client_hosts`
  /// (paper's load balancing), each thinking between queries. Throws if
  /// that would exceed max_users_per_host.
  void spawn_users(int n, const std::vector<std::string>& client_hosts);

  /// Open loop: one-shot queries arrive as a Poisson process at `rate`
  /// per second across the whole client population, launched from
  /// `client_hosts` in round-robin order, regardless of how fast earlier
  /// queries complete. Queue lengths and response times diverge past
  /// saturation instead of plateauing. No client CPU or think time.
  void start_arrivals(double rate,
                      const std::vector<std::string>& client_hosts);

  const std::vector<Completion>& completions() const noexcept {
    return completions_;
  }
  const ClientCounters& counters() const noexcept { return counters_; }
  std::uint64_t refused_attempts() const noexcept { return counters_.refused; }
  std::uint64_t error_count() const noexcept { return counters_.errors(); }
  int users() const noexcept { return users_; }
  std::size_t run(double until) { return testbed_.sim().run(until); }
  double now() const noexcept { return testbed_.sim().now(); }
  std::uint64_t total_queries() const noexcept { return counters_.queries; }
  std::uint64_t total_attempts() const noexcept { return counters_.attempts; }
  /// Queries in flight right now (open loop: grows without bound past
  /// saturation).
  std::uint64_t outstanding() const noexcept {
    return counters_.queries - completions_.size() - counters_.abandoned;
  }
  /// The shared client policy toward the service under test (fast-fail /
  /// budget-suppression counters live on its breaker and budget).
  const resilience::ClientPolicy& resilience_policy() const noexcept {
    return policy_;
  }

  /// Timely completions per second over [t0, t1]: response_time <=
  /// `deadline`. deadline <= 0 counts every completion. Stale answers
  /// count: a degraded answer in time beats no answer.
  double goodput(double t0, double t1, double deadline) const;

  /// Route each query through `collector`: a root Query span per query
  /// (opened while the collector is enabled), Backoff spans around
  /// SYN-retransmission waits, Think spans between closed-loop queries.
  /// The collector must outlive this workload's users.
  void enable_tracing(trace::Collector& collector) {
    collector_ = &collector;
  }

 private:
  static sim::Task<void> arrival_loop(UserWorkload& self, double rate,
                                      std::vector<std::string> hosts);
  /// The one client coroutine. Each query runs from first attempt to
  /// completion or abandonment, retries drawn from `rng`, and logs its
  /// outcome. A closed-loop user (`host` set) then charges its client
  /// CPU, thinks and queries again, forever; an open arrival (`host`
  /// null) is one-shot. One frame per client, none per query.
  static sim::Task<void> client(UserWorkload& self, host::Host* host,
                                net::Interface& nic, sim::Rng rng,
                                std::uint64_t uid);

  Testbed& testbed_;
  TracedQueryFn query_;
  WorkloadConfig config_;
  resilience::BackoffPolicy backoff_;
  resilience::ClientPolicy policy_;
  trace::Collector* collector_ = nullptr;
  std::vector<Completion> completions_;
  ClientCounters counters_;
  int users_ = 0;
};

}  // namespace gridmon::core
