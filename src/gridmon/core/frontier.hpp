#pragma once

/// \file frontier.hpp
/// The million-user frontier workload: UserWorkload's closed-loop user
/// population rebuilt for scales where a coroutine frame per user and a
/// single event heap stop being affordable.
///
/// Split of responsibilities across sim::ShardGroup shards:
///  - Shard 0 is the Testbed's full Simulation — every byte of network
///    and CPU physics stays there, fault injection included. Each query
///    attempt runs as a short gateway coroutine against the user's real
///    UC-host NIC, through the scenario's unmodified query function, so
///    the service under test sees exactly the traffic the legacy engine
///    would send it. The gateway also runs the client rules' policy
///    half (core::settle) over the retry budget and breaker every user
///    shares, as in the legacy engine.
///  - Shards 1..K hold only user state, struct-of-arrays: one slab of
///    contiguous per-user fields (state byte, retry level, RNG draw
///    counter, query start time) plus a calendar of 16-byte timers in
///    lookahead-wide buckets (O(1) to arm, sorted per bucket as the
///    clock reaches it). They run the rules' per-user half (next_step)
///    on each reply. No coroutine frames, no per-user allocation.
///
/// The two sides talk exclusively through the group's deterministic
/// mailboxes with one lookahead hop (the WAN one-way latency) in each
/// direction. Because even a K=1 run takes the same mailbox trips, the
/// results are byte-identical for every shard count — the property the
/// frontier golden tests pin per seed.
///
/// Per-user randomness is a counter-based splitmix stream keyed by
/// (testbed seed, global user id, draw index): fully deterministic and
/// independent of shard placement, at 4 bytes of state per user.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gridmon/core/metrics_report.hpp"
#include "gridmon/core/testbed.hpp"
#include "gridmon/core/workload.hpp"
#include "gridmon/net/server_port.hpp"
#include "gridmon/sim/shard.hpp"

namespace gridmon::core {

struct FrontierConfig {
  int shards = 1;        // client-state shards (>= 1)
  /// Kept only because perf/ assigns it. The engine is single-threaded:
  /// 0 and 1 both run inline, anything else is rejected.
  int threads = 0;
  double lookahead = 0;  // window seconds; 0 = min WAN one-way latency
  /// The client half, run by the legacy engine's client rules (only the
  /// backoff jitter is drawn differently). client_cpu_per_query runs
  /// beside the user's think time rather than before it.
  WorkloadConfig client;
  /// Optional admission gate enabling the batched refusal fast path
  /// (see frontier.cpp): the gateway keeps a bounded standing pool of
  /// real in-flight attempts and prices each lookahead-window cohort of
  /// surplus attempts as one aggregate SYN/RST round trip. Point it at
  /// the scenario's server_port() and name the port's host; leave null
  /// to keep every attempt on the full per-attempt physics path. Only a
  /// plain client (retry forever, no policy) uses it (docs/SCALE.md).
  const net::ServerPort* admission_port = nullptr;
  std::string server_host;
};

/// The frontier's completion record is the legacy one; its uid makes
/// merges across shards a total (t, uid) order.
using FrontierCompletion = Completion;

class FrontierWorkload {
 public:
  /// `query` is the scenario's query function; attempts run on shard 0
  /// from the user's UC-host NIC. The testbed's seed keys every
  /// per-user random stream.
  FrontierWorkload(Testbed& testbed, TracedQueryFn query,
                   FrontierConfig config = {});
  FrontierWorkload(const FrontierWorkload&) = delete;
  FrontierWorkload& operator=(const FrontierWorkload&) = delete;
  /// Gateway coroutines reference this object; destroy them first.
  ~FrontierWorkload();

  /// Create `n` users round-robin over the client shards, mapped onto
  /// the testbed's UC hosts at `client.max_users_per_host`. One call per
  /// workload.
  void spawn_users(int n);

  /// Drive all shards to absolute sim time `until` in lookahead
  /// windows. Returns events executed (gateway events + user timers).
  std::size_t run(double until) { return group_->run(until); }

  /// All completions so far, canonically ordered by (t, uid) —
  /// identical bytes for every shard count.
  const std::vector<FrontierCompletion>& merged_completions();
  /// The merged log, under the legacy engine's name for core::measure.
  const std::vector<FrontierCompletion>& completions() {
    return merged_completions();
  }

  /// Summed over the client shards, with the gateway's attempt count.
  ClientCounters counters() const noexcept;
  std::uint64_t refused_attempts() const noexcept { return counters().refused; }
  std::uint64_t error_count() const noexcept { return counters().errors(); }
  std::uint64_t total_queries() const noexcept { return counters().queries; }
  std::uint64_t total_attempts() const noexcept { return attempts_; }
  /// Attempts refused on the batched fast path (0 with no
  /// admission_port). Included in total_attempts()/refused_attempts().
  std::uint64_t fast_refused() const noexcept { return fast_refused_; }
  int users() const noexcept { return users_; }
  int shards() const noexcept { return config_.shards; }
  double lookahead() const noexcept { return lookahead_; }
  double now() const noexcept { return group_->now(); }
  std::uint64_t messages_delivered() const noexcept {
    return group_->messages_delivered();
  }

 private:
  struct ClientShard;
  /// Attempt `attempt` (1-based) of the query `uid` started at `start`.
  static sim::Task<void> gateway_attempt(FrontierWorkload& self,
                                         std::uint64_t uid,
                                         std::uint64_t attempt, double start);
  static sim::Task<void> flush_requests(FrontierWorkload& self);
  void on_gateway_message(const sim::ShardMessage& m);
  /// Answer `uid` one hop from now: the attempt (null: none sent, or
  /// lost to the deadline).
  void reply(std::uint64_t uid, const QueryAttempt* sent, Verdict verdict);
  int shard_index_of(std::uint64_t uid) const noexcept {
    return 1 + static_cast<int>(uid % static_cast<std::uint64_t>(
                                          config_.shards));
  }

  Testbed& testbed_;
  TracedQueryFn query_;
  FrontierConfig config_;
  resilience::ClientPolicy policy_;    // shared by every user
  resilience::BackoffPolicy backoff_;  // the ladder; jitter is drawn here
  double lookahead_ = 0;
  std::uint64_t seed_ = 0;
  std::unique_ptr<sim::SimulationShard> gateway_;
  std::vector<std::unique_ptr<ClientShard>> clients_;
  std::unique_ptr<sim::ShardGroup> group_;
  std::vector<net::Interface*> nics_;   // UC-host NIC per uid % pool
  std::vector<host::Host*> hosts_;      // matching hosts (client CPU)
  net::Interface* server_nic_ = nullptr;  // set with admission_port
  std::vector<FrontierCompletion> merged_;
  /// Pending request cohorts keyed by flush time (the end of the
  /// lookahead-wide bucket containing each request's delivery instant).
  /// At most two buckets are live at once.
  std::map<double, std::vector<std::uint64_t>> buckets_;
  std::uint64_t outstanding_ = 0;  // gateway_attempt coroutines in flight
  std::uint64_t attempts_ = 0;
  std::uint64_t fast_refused_ = 0;
  int users_ = 0;
};

}  // namespace gridmon::core
