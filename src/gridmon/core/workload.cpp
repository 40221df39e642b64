#include "gridmon/core/workload.hpp"

#include <memory>
#include <optional>
#include <stdexcept>

#include "gridmon/sim/event.hpp"

namespace gridmon::core {
namespace {

/// Shared mailbox between a racing client and its attempt, which keeps
/// running after the client walked away and posts into a box nobody
/// reads.
struct AttemptBox {
  std::optional<QueryAttempt> result;
  sim::Event done;
  explicit AttemptBox(sim::Simulation& s) : done(s) {}
};

sim::Task<void> run_attempt(const TracedQueryFn& query, net::Interface& nic,
                            trace::Ctx ctx, std::shared_ptr<AttemptBox> box) {
  QueryAttempt a = co_await query(nic, ctx);
  box->result = a;
  box->done.trigger();
}

}  // namespace

sim::Task<std::optional<QueryAttempt>> race_attempt(sim::Simulation& sim,
                                                    const TracedQueryFn& query,
                                                    net::Interface& nic,
                                                    trace::Ctx ctx,
                                                    double deadline) {
  double remaining = deadline - sim.now();
  if (remaining <= 0) co_return std::nullopt;
  auto box = std::make_shared<AttemptBox>(sim);
  sim.spawn(run_attempt(query, nic, ctx, box));
  if (!co_await box->done.wait_for(remaining)) co_return std::nullopt;
  co_return box->result;
}

void WorkloadConfig::check_fits(int n, std::size_t hosts) const {
  int capacity = max_users_per_host * static_cast<int>(hosts);
  if (n > capacity) {
    throw std::invalid_argument(
        "requested " + std::to_string(n) + " users but only " +
        std::to_string(capacity) + " fit on " + std::to_string(hosts) +
        " client hosts");
  }
}

UserWorkload::UserWorkload(Testbed& testbed, TracedQueryFn query,
                           WorkloadConfig config)
    : testbed_(testbed),
      query_(std::move(query)),
      config_(config),
      policy_(config_.resilience) {
  backoff_.schedule = config_.retry_schedule;
  backoff_.jitter = config_.retry_jitter;
}

void UserWorkload::spawn_users(int n,
                               const std::vector<std::string>& client_hosts) {
  if (client_hosts.empty()) {
    throw std::invalid_argument("no client hosts");
  }
  config_.check_fits(n, client_hosts.size());
  // Even round-robin placement (paper: "evenly divide the number of
  // simulated users by the number of machines to balance the load").
  for (int i = 0; i < n; ++i) {
    const std::string& host_name = client_hosts[static_cast<std::size_t>(i) %
                                                client_hosts.size()];
    testbed_.sim().spawn(client(*this, &testbed_.host(host_name),
                                testbed_.nic(host_name), testbed_.rng().fork(),
                                static_cast<std::uint64_t>(users_)));
    ++users_;
  }
}

void UserWorkload::start_arrivals(
    double rate, const std::vector<std::string>& client_hosts) {
  if (client_hosts.empty()) {
    throw std::invalid_argument("no client hosts");
  }
  if (!(rate > 0)) {
    throw std::invalid_argument("arrival rate must be positive");
  }
  testbed_.sim().spawn(arrival_loop(*this, rate, client_hosts));
}

sim::Task<void> UserWorkload::arrival_loop(UserWorkload& self, double rate,
                                           std::vector<std::string> hosts) {
  auto& sim = self.testbed_.sim();
  sim::Rng rng = self.testbed_.rng().fork();
  std::uint64_t next = 0;
  for (;;) {
    co_await sim.delay(rng.exponential(1.0 / rate));
    const std::string& host = hosts[next % hosts.size()];
    sim.spawn(client(self, nullptr, self.testbed_.nic(host), rng.fork(), next));
    ++next;
  }
}

sim::Task<void> UserWorkload::client(UserWorkload& self, host::Host* host,
                                     net::Interface& nic, sim::Rng rng,
                                     std::uint64_t uid) {
  auto& sim = self.testbed_.sim();
  // Desynchronize start-up so closed-loop users do not fire in lockstep.
  if (host != nullptr) {
    co_await sim.delay(rng.uniform(0, self.config_.think_time));
  }
  for (;;) {
    double started = sim.now();
    ++self.counters_.queries;
    self.policy_.on_query();
    double deadline = self.config_.query_deadline > 0
                          ? started + self.config_.query_deadline
                          : -1;
    std::size_t retry = 0;
    UserStep step;
    QueryAttempt attempt;
    // One trace per query (null Ctx while the collector is off or absent,
    // which keeps the whole iteration allocation-free).
    trace::Ctx root = self.collector_ != nullptr
                          ? self.collector_->new_trace()
                          : trace::Ctx{};
    {
      trace::Span query_span(root, trace::SpanKind::Query);
      for (;;) {
        // Circuit breaker toward the service: while Open, fail the
        // attempt locally without touching the network. Fast-fails are
        // client-side decisions, so they do not count as refusals.
        bool sent = self.policy_.allow(sim.now());
        if (!sent) {
          attempt = QueryAttempt{};
        } else if (deadline < 0) {
          ++self.counters_.attempts;
          attempt = co_await self.query_(nic, query_span.ctx());
        } else {
          // Race the attempt against the script's remaining patience. On
          // a loss the client kills its query tool and walks away; the
          // breaker hears a failure.
          ++self.counters_.attempts;
          std::optional<QueryAttempt> raced = co_await race_attempt(
              sim, self.query_, nic, query_span.ctx(), deadline);
          if (!raced) {
            step = UserStep{settle_lost(self.policy_, sim.now())};
            break;
          }
          attempt = *raced;
        }
        const QueryAttempt* settled = sent ? &attempt : nullptr;
        Verdict verdict = settle(self.policy_, self.config_.max_attempts,
                                 sim.now(), retry + 1, settled);
        step = next_step(self.counters_, settled, verdict, sim.now(),
                         deadline,
                         [&] { return self.backoff_.delay(retry, rng); });
        // Dropped SYN / failed attempt: wait out the retransmission
        // timer, or die at the deadline when it lands inside it.
        if (step.wait >= 0) {
          trace::Span backoff(query_span.ctx(), trace::SpanKind::Backoff);
          co_await sim.delay(step.wait);
        }
        if (step.verdict != Verdict::Retry) break;
        ++retry;
      }
      query_span.set_arg(attempt.response_bytes);
      if (step.verdict == Verdict::Abandon && root) {
        root.col->instant(query_span.ctx(), trace::SpanKind::Timeout,
                          "query_deadline");
      }
    }
    if (step.verdict == Verdict::Abandon) {
      ++self.counters_.abandoned;
    } else {
      self.completions_.push_back(Completion{sim.now(), sim.now() - started,
                                             attempt.response_bytes,
                                             attempt.stale, uid});
    }
    if (host == nullptr) co_return;  // an open arrival is one-shot
    if (self.config_.client_cpu_per_query > 0) {
      co_await host->cpu().consume(self.config_.client_cpu_per_query);
    }
    trace::Span think(root, trace::SpanKind::Think);
    co_await sim.delay(self.config_.think_time);
    think.end();
  }
}

double UserWorkload::goodput(double t0, double t1, double deadline) const {
  if (t1 <= t0) return 0;
  std::size_t n = 0;
  for (const auto& c : completions_) {
    if (c.t >= t0 && c.t <= t1 &&
        (deadline <= 0 || c.response_time <= deadline)) {
      ++n;
    }
  }
  return static_cast<double>(n) / (t1 - t0);
}

}  // namespace gridmon::core
