#include "gridmon/core/frontier.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace gridmon::core {
namespace {

// Mailbox protocol: one in-flight exchange per user, ever — a request
// is answered by exactly one reply before the user's next timer can
// send another. That satisfies the ShardGroup ordering contract (no
// two same-(deliver_at, uid) messages from different shards). A request
// carries the attempt number (1 = a fresh query) in `a` and the query's
// start in `f`; a reply, the attempt's flags and verdict and its bytes.
constexpr std::uint32_t kMsgRequest = 1;
constexpr std::uint32_t kMsgReply = 2;

// Reply flags. Without kFlagSent the attempt was fast-failed by the
// breaker or lost the race to the query's deadline.
constexpr std::uint64_t kFlagSent = 1u << 0;
constexpr std::uint64_t kFlagAdmitted = 1u << 1;
constexpr std::uint64_t kFlagTimeout = 1u << 2;
constexpr std::uint64_t kFlagFailed = 1u << 3;
constexpr std::uint64_t kFlagStale = 1u << 4;
constexpr int kVerdictShift = 5;

// The fast path's standing pool of real attempts, in listen backlogs.
constexpr std::uint64_t kPoolFactor = 4;

// User FSM states (SoA byte per user).
constexpr std::uint8_t kThinking = 0;  // timer armed: issue next query
constexpr std::uint8_t kWaiting = 1;   // attempt in flight, no timer
constexpr std::uint8_t kBackoff = 2;   // timer armed: retry the query
constexpr std::uint8_t kGivingUp = 3;  // timer armed: abandon at deadline

/// Counter-based per-user randomness: two splitmix64 finalizer rounds
/// over (seed, uid, draw index). Stateless in everything but a 4-byte
/// per-user counter, and independent of shard placement by
/// construction.
std::uint64_t frontier_mix(std::uint64_t seed, std::uint64_t uid,
                           std::uint64_t n) {
  std::uint64_t x = seed + 0x9E3779B97F4A7C15ull * (uid + 1) +
                    0x94D049BB133111EBull * (n + 1);
  for (int round = 0; round < 2; ++round) {
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    x ^= x >> 31;
  }
  return x;
}

}  // namespace

/// One client shard: contiguous struct-of-arrays user slabs plus a
/// calendar of timers keyed by (fire time, uid) — canonical across
/// shard counts. At most one timer per user is live (users are either
/// thinking, backing off, or waiting on the gateway), so the calendar
/// never needs cancellation.
///
/// The calendar is a ring of kRing buckets, each one lookahead wide.
/// arm() files a timer in O(1) at the tail of the bucket holding its
/// fire time; run() appends every bucket it reaches, sorted, to the
/// `near` list and fires from its head. Buckets partition time in order
/// (the bucket index is monotone in the fire time), so `near` stays
/// sorted and timers fire in exactly the (at, uid) order a heap would
/// pop them. A timer armed into an already drained bucket is inserted
/// into `near` in place; one beyond the ring's horizon waits in
/// `overflow` until a lap start brings it within the horizon. Buckets
/// are chains of fixed-size chunks drawn from one pool, so memory stays
/// O(users) however the timers cluster.
struct FrontierWorkload::ClientShard final : sim::ShardRunner {
  ClientShard(FrontierWorkload& owner_ref, int group_index)
      : owner(owner_ref),
        index(group_index),
        per_bucket(1.0 / owner_ref.lookahead_),
        ring(static_cast<std::size_t>(kRing)) {}

  FrontierWorkload& owner;
  int index;  // this shard's id inside the group (1-based)
  sim::SimTime now_ = 0;

  // SoA user slabs, indexed by local slot. Users are dealt round-robin
  // in uid order, so slot `local` holds uid local * shards + index - 1.
  std::vector<std::uint8_t> states;
  std::vector<std::uint16_t> retries;
  std::vector<std::uint32_t> draws;
  std::vector<double> query_starts;

  /// A pending timer. Slots follow uid order, so within one shard
  /// (at, local) orders exactly like (at, uid).
  struct Timer {
    double at;
    std::uint32_t local;
  };
  static constexpr std::uint32_t kNil = 0xffffffffu;
  static constexpr std::int64_t kRing = 16384;  // buckets; a power of 2
  static constexpr std::uint32_t kChunkTimers = 8;
  struct alignas(64) Chunk {
    Timer timers[kChunkTimers];
  };
  /// A bucket's chunk chain; `fill` counts the timers in the tail chunk
  /// (kChunkTimers when the next timer needs a fresh chunk).
  struct Bucket {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
    std::uint32_t fill = kChunkTimers;
  };

  double per_bucket;                       // 1 / lookahead
  std::vector<Bucket> ring;                // bucket b at ring[b % kRing]
  std::vector<Chunk> chunks;               // pooled bucket storage
  std::vector<std::uint32_t> chunk_next;   // chain links, by chunk
  std::vector<std::uint32_t> free_chunks;
  std::int64_t next_bucket = 0;            // first bucket not drained
  std::vector<Timer> near;                 // drained timers, in order
  std::size_t near_head = 0;               // first unfired one
  std::vector<Timer> overflow;             // beyond the ring's horizon

  std::vector<Completion> completions;  // in (t, uid) order
  ClientCounters counters;  // all but attempts, which the gateway counts

  /// A lambda, not a function: std::sort and std::upper_bound inline it
  /// instead of calling through a pointer per comparison.
  static constexpr auto timer_before = [](const Timer& x, const Timer& y) {
    if (x.at != y.at) return x.at < y.at;
    return x.local < y.local;
  };

  /// Monotone in `at`. The clamp keeps the conversion defined for any
  /// lookahead; a timer that far out parks in `overflow` for good.
  std::int64_t bucket_of(double at) const {
    return static_cast<std::int64_t>(std::min(at * per_bucket, 0x1p62));
  }

  std::uint64_t uid_of(std::uint32_t local) const {
    return static_cast<std::uint64_t>(local) *
               static_cast<std::uint64_t>(owner.config_.shards) +
           static_cast<std::uint64_t>(index - 1);
  }

  double draw01(std::uint64_t uid, std::uint32_t local) {
    std::uint64_t z = frontier_mix(owner.seed_, uid, draws[local]++);
    return static_cast<double>(z >> 11) * 0x1.0p-53;
  }

  void arm(double at, std::uint32_t local) {
    Timer t{at, local};
    std::int64_t b = bucket_of(at);
    if (b < next_bucket) {
      near.insert(std::upper_bound(near.begin() + static_cast<std::ptrdiff_t>(
                                                       near_head),
                                   near.end(), t, timer_before),
                  t);
    } else if (b - next_bucket < kRing) {
      file(b, t);
    } else {
      overflow.push_back(t);
    }
  }

  void file(std::int64_t b, const Timer& t) {
    Bucket& bucket = ring[static_cast<std::size_t>(b & (kRing - 1))];
    if (bucket.fill == kChunkTimers) {
      std::uint32_t c;
      if (free_chunks.empty()) {
        c = static_cast<std::uint32_t>(chunks.size());
        chunks.emplace_back();
        chunk_next.push_back(kNil);
      } else {
        c = free_chunks.back();
        free_chunks.pop_back();
        chunk_next[c] = kNil;
      }
      if (bucket.tail == kNil) {
        bucket.head = c;
      } else {
        chunk_next[bucket.tail] = c;
      }
      bucket.tail = c;
      bucket.fill = 0;
    }
    chunks[bucket.tail].timers[bucket.fill++] = t;
  }

  /// Append bucket `next_bucket`, sorted, to `near` and recycle its
  /// chunks. Every timer already in `near` belongs to an earlier bucket,
  /// so the list stays in order. At each lap start, re-file the overflow
  /// timers that have come within the ring's horizon.
  void drain_next_bucket() {
    Bucket& bucket = ring[static_cast<std::size_t>(next_bucket & (kRing - 1))];
    if (bucket.head != kNil) {
      near.erase(near.begin(),
                 near.begin() + static_cast<std::ptrdiff_t>(near_head));
      near_head = 0;
      std::size_t first = near.size();
      for (std::uint32_t c = bucket.head; c != kNil; c = chunk_next[c]) {
        const Timer* timers = chunks[c].timers;
        near.insert(near.end(), timers,
                    timers + (c == bucket.tail ? bucket.fill : kChunkTimers));
        free_chunks.push_back(c);
      }
      bucket = Bucket{};
      std::sort(near.begin() + static_cast<std::ptrdiff_t>(first), near.end(),
                timer_before);
    }
    ++next_bucket;
    if ((next_bucket & (kRing - 1)) == 0 && !overflow.empty()) {
      std::size_t kept = 0;
      for (const Timer& t : overflow) {
        std::int64_t b = bucket_of(t.at);
        if (b - next_bucket < kRing) {
          file(b, t);
        } else {
          overflow[kept++] = t;
        }
      }
      overflow.resize(kept);
    }
  }

  void add_user(double start_after) {
    std::uint32_t local = static_cast<std::uint32_t>(states.size());
    states.push_back(kThinking);
    retries.push_back(0);
    draws.push_back(0);
    query_starts.push_back(0);
    // Desynchronized start, like the legacy workload's initial delay.
    arm(start_after +
            draw01(uid_of(local), local) * owner.config_.client.think_time,
        local);
  }

  /// Timer expiry: a Thinking user starts a fresh query, a Backoff user
  /// retries the current one; both send one request to the gateway. A
  /// user GivingUp abandons its query at the deadline.
  void fire(std::uint32_t local) {
    if (states[local] == kGivingUp) {
      think(local, /*abandoned=*/true);
      return;
    }
    if (states[local] == kThinking) {
      ++counters.queries;
      retries[local] = 0;
      query_starts[local] = now_;
    }
    states[local] = kWaiting;
    owner.group_->post(
        index, 0,
        sim::ShardMessage{now_ + owner.lookahead_, uid_of(local), 0,
                          kMsgRequest, 0, retries[local] + 1u,
                          query_starts[local]});
  }

  void think(std::uint32_t local, bool abandoned = false) {
    if (abandoned) ++counters.abandoned;
    states[local] = kThinking;
    arm(now_ + owner.config_.client.think_time, local);
  }

  sim::SimTime now() const override { return now_; }

  std::size_t run(sim::SimTime until) override {
    std::int64_t last = bucket_of(until);
    while (next_bucket <= last) drain_next_bucket();
    std::size_t fired = 0;
    for (; near_head < near.size() && near[near_head].at <= until;
         ++near_head, ++fired) {
      now_ = near[near_head].at;
      fire(near[near_head].local);
    }
    if (until > now_) now_ = until;
    return fired;
  }

  /// A reply: the client rules' per-user half, over the slabs.
  void deliver(const sim::ShardMessage& m) override {
    std::uint32_t local = static_cast<std::uint32_t>(
        m.uid / static_cast<std::uint64_t>(owner.config_.shards));
    QueryAttempt a{(m.a & kFlagAdmitted) != 0, m.f, (m.a & kFlagTimeout) != 0,
                   (m.a & kFlagFailed) != 0, (m.a & kFlagStale) != 0};
    double patience = owner.config_.client.query_deadline;
    UserStep step = next_step(
        counters, (m.a & kFlagSent) != 0 ? &a : nullptr,
        static_cast<Verdict>(m.a >> kVerdictShift), now_,
        patience > 0 ? query_starts[local] + patience : -1, [&] {
          // Jittered from the user's counter stream: 1 - j + 2j*u is not
          // bit-equal to BackoffPolicy::delay's Rng::uniform(1 - j, 1 + j).
          double jitter = owner.backoff_.jitter;
          return owner.backoff_.raw_delay(retries[local]) *
                 (1.0 - jitter + 2.0 * jitter * draw01(m.uid, local));
        });
    if (step.verdict == Verdict::Done) {
      completions.push_back(Completion{now_, now_ - query_starts[local], m.f,
                                       a.stale, m.uid});
      think(local);
    } else if (step.verdict == Verdict::Retry) {
      if (retries[local] < kMaxAttemptsLimit - 1) ++retries[local];
      states[local] = kBackoff;
      arm(now_ + step.wait, local);
    } else if (step.wait > 0) {
      // The one live timer of a user backing off into its deadline.
      states[local] = kGivingUp;
      arm(now_ + step.wait, local);
    } else {
      think(local, /*abandoned=*/true);
    }
  }
};

FrontierWorkload::FrontierWorkload(Testbed& testbed, TracedQueryFn query,
                                   FrontierConfig config)
    : testbed_(testbed),
      query_(std::move(query)),
      config_(config),
      policy_(config_.client.resilience) {
  if (config_.shards < 1) {
    throw std::invalid_argument("frontier workload needs >= 1 shard");
  }
  if (config_.threads != 0 && config_.threads != 1) {
    throw std::invalid_argument(
        "frontier workload: threads must be 0 or 1 (single-threaded)");
  }
  backoff_.schedule = config_.client.retry_schedule;
  backoff_.jitter = config_.client.retry_jitter;
  lookahead_ = config_.lookahead > 0
                   ? config_.lookahead
                   : testbed_.network().min_cross_site_latency();
  if (!(lookahead_ > 0)) {
    throw std::invalid_argument(
        "frontier workload: no WAN latency to derive the lookahead from; "
        "set [engine] lookahead");
  }
  seed_ = testbed_.config().seed;
  if (config_.admission_port != nullptr) {
    if (config_.server_host.empty()) {
      throw std::invalid_argument(
          "frontier workload: admission_port needs server_host");
    }
    server_nic_ = &testbed_.nic(config_.server_host);
    // The fast path's early refusals skew every client but the paper's,
    // which retries forever against a plain listen queue
    // (docs/SCALE.md): any other keeps every attempt on the full path.
    const WorkloadConfig& c = config_.client;
    if (c.query_deadline > 0 || c.max_attempts > 0 || c.resilience.enabled ||
        config_.admission_port->policy().enabled) {
      config_.admission_port = nullptr;
    }
  }
  gateway_ = std::make_unique<sim::SimulationShard>(
      testbed_.sim(),
      [this](const sim::ShardMessage& m) { on_gateway_message(m); });
  std::vector<sim::ShardRunner*> runners{gateway_.get()};
  clients_.reserve(static_cast<std::size_t>(config_.shards));
  for (int s = 0; s < config_.shards; ++s) {
    clients_.push_back(std::make_unique<ClientShard>(*this, s + 1));
    runners.push_back(clients_.back().get());
  }
  group_ = std::make_unique<sim::ShardGroup>(std::move(runners), lookahead_);
}

FrontierWorkload::~FrontierWorkload() { testbed_.sim().shutdown(); }

void FrontierWorkload::spawn_users(int n) {
  if (users_ > 0) {
    throw std::logic_error("frontier workload: spawn_users already called");
  }
  if (n <= 0) throw std::invalid_argument("no users requested");
  const std::vector<std::string>& uc = testbed_.uc_names();
  config_.client.check_fits(n, uc.size());
  nics_.reserve(uc.size());
  hosts_.reserve(uc.size());
  for (const std::string& name : uc) {
    nics_.push_back(&testbed_.nic(name));
    hosts_.push_back(&testbed_.host(name));
  }
  double start = testbed_.sim().now();
  // Round-robin in uid order: ClientShard::uid_of relies on it.
  for (int u = 0; u < n; ++u) {
    clients_[static_cast<std::size_t>(u % config_.shards)]->add_user(start);
  }
  users_ = n;
}

void FrontierWorkload::reply(std::uint64_t uid, const QueryAttempt* sent,
                             Verdict verdict) {
  std::uint64_t flags = static_cast<std::uint64_t>(verdict) << kVerdictShift;
  if (sent != nullptr) {
    flags |= kFlagSent | (sent->admitted ? kFlagAdmitted : 0) |
             (sent->timed_out ? kFlagTimeout : 0) |
             (sent->failed ? kFlagFailed : 0) |
             (sent->stale ? kFlagStale : 0);
  }
  group_->post(0, shard_index_of(uid),
               sim::ShardMessage{testbed_.sim().now() + lookahead_, uid, 0,
                                 kMsgReply, 0, flags,
                                 sent != nullptr ? sent->response_bytes : 0});
}

sim::Task<void> FrontierWorkload::gateway_attempt(FrontierWorkload& self,
                                                  std::uint64_t uid,
                                                  std::uint64_t attempt,
                                                  double start) {
  auto& sim = self.testbed_.sim();
  std::size_t slot = static_cast<std::size_t>(uid % self.nics_.size());
  ++self.attempts_;
  ++self.outstanding_;
  std::optional<QueryAttempt> a;
  double patience = self.config_.client.query_deadline;
  if (patience <= 0) {
    a = co_await self.query_(*self.nics_[slot], trace::Ctx{});
  } else {
    // The legacy client's race, against the same absolute deadline.
    a = co_await race_attempt(sim, self.query_, *self.nics_[slot],
                              trace::Ctx{}, start + patience);
  }
  self.reply(uid, a ? &*a : nullptr,
             a ? settle(self.policy_, self.config_.client.max_attempts,
                        sim.now(), attempt, &*a)
               : settle_lost(self.policy_, sim.now()));
  // The client script's bookkeeping CPU, charged on the user's real UC
  // host after a successful query (the refused path must stay cheap: at
  // frontier scale most attempts bounce off the listen queue).
  double cpu = self.config_.client.client_cpu_per_query;
  if (a && a->ok() && cpu > 0) {
    co_await self.hosts_[slot]->cpu().consume(cpu);
  }
  --self.outstanding_;
}

/// The batched refusal fast path (docs/SCALE.md). At frontier scale
/// nearly every attempt bounces off a full listen queue. The gateway
/// keeps a standing pool of kPoolFactor x backlog real attempts, where
/// admission still happens, and prices each lookahead-wide cohort of
/// surplus requests as ONE aggregate SYN/RST round trip carrying the
/// cohort's exact wire bytes (processor sharing is a fluid model). Shed
/// refusals skip the tool startup and land that much early. Each settles
/// through the policy half as a refusal, in cohort order. A down port
/// bypasses the gate. Only the plain client reaches it (constructor),
/// whose verdicts need neither attempt number nor query start, so a
/// cohort holds uids alone: the start wave keeps huge cohorts in flight.
///
/// Every input is K-independent: cohorts are [b*L, (b+1)*L) buckets of
/// the canonical mailbox order, the flush fires at the bucket boundary,
/// and the pool counter moves only at flushes and gateway-attempt
/// completions — all gateway-shard sim times.
sim::Task<void> FrontierWorkload::flush_requests(FrontierWorkload& self) {
  auto head = self.buckets_.begin();
  std::vector<std::uint64_t> batch = std::move(head->second);
  self.buckets_.erase(head);
  const net::ServerPort& port = *self.config_.admission_port;
  auto& sim = self.testbed_.sim();
  std::size_t full = batch.size();
  if (port.up()) {
    std::uint64_t target =
        kPoolFactor * static_cast<std::uint64_t>(port.backlog());
    std::uint64_t room =
        target > self.outstanding_ ? target - self.outstanding_ : 0;
    full = std::min(full, static_cast<std::size_t>(room));
  }
  for (std::size_t i = 0; i < full; ++i) {
    sim.spawn(gateway_attempt(self, batch[i], 0, 0));
  }
  std::size_t shed = batch.size() - full;
  if (shed == 0) co_return;
  self.attempts_ += shed;
  self.fast_refused_ += shed;
  // One aggregate round trip carrying the cohort's exact wire bytes
  // (transfer() adds one message overhead itself, hence the deduction).
  net::Interface& rep = *self.nics_[batch[full] % self.nics_.size()];
  double per_syn =
      net::Network::kSynBytes + net::Network::kMessageOverheadBytes;
  double bytes = static_cast<double>(shed) * per_syn -
                 net::Network::kMessageOverheadBytes;
  co_await self.testbed_.network().transfer(rep, *self.server_nic_, bytes);
  co_await self.testbed_.network().transfer(*self.server_nic_, rep, bytes);
  const QueryAttempt refused{};
  for (std::size_t i = full; i < batch.size(); ++i) {
    self.reply(batch[i], &refused,
               settle(self.policy_, self.config_.client.max_attempts,
                      sim.now(), 0, &refused));
  }
}

void FrontierWorkload::on_gateway_message(const sim::ShardMessage& m) {
  if (m.kind != kMsgRequest) return;
  auto& sim = testbed_.sim();
  // The client rules' policy half, shared by every user as in the legacy
  // workload, sees each attempt here in canonical mailbox order.
  if (m.a == 1) policy_.on_query();
  // A request sent within one hop of its query's deadline lands here past
  // it: the legacy client would never have started it, so it takes no
  // breaker slot and counts as no attempt.
  double patience = config_.client.query_deadline;
  if (patience > 0 && m.f + patience <= sim.now()) {
    reply(m.uid, nullptr, Verdict::Abandon);
    return;
  }
  if (!policy_.allow(sim.now())) {
    reply(m.uid, nullptr,
          settle(policy_, config_.client.max_attempts, sim.now(), m.a,
                 nullptr));
    return;
  }
  if (config_.admission_port == nullptr) {
    sim.spawn(gateway_attempt(*this, m.uid, m.a, m.f));
    return;
  }
  // Deliveries arrive in canonical time order; bucket this request by
  // the lookahead-wide interval [b*L, (b+1)*L) holding its delivery
  // instant and flush the cohort at the bucket boundary. The first
  // member schedules the flush; a boundary-instant delivery (processed
  // before that flush fires, FIFO at equal times) keys a fresh bucket,
  // which is why buckets_ is a map and not a single pending vector.
  double flush_at = (std::floor(sim.now() / lookahead_) + 1.0) * lookahead_;
  std::vector<std::uint64_t>& bucket = buckets_[flush_at];
  if (bucket.empty()) {
    sim.schedule(flush_at - sim.now(),
                 [this] { testbed_.sim().spawn(flush_requests(*this)); });
  }
  bucket.push_back(m.uid);
}

const std::vector<FrontierCompletion>& FrontierWorkload::merged_completions() {
  merged_.clear();
  for (const auto& shard : clients_) {
    merged_.insert(merged_.end(), shard->completions.begin(),
                   shard->completions.end());
  }
  // (t, uid) is a total order (one completion per user per instant), so
  // plain sort is deterministic and shard-count-independent.
  std::sort(merged_.begin(), merged_.end(),
            [](const Completion& x, const Completion& y) {
              if (x.t != y.t) return x.t < y.t;
              return x.uid < y.uid;
            });
  return merged_;
}

ClientCounters FrontierWorkload::counters() const noexcept {
  ClientCounters total;
  for (const auto& shard : clients_) {
    total.queries += shard->counters.queries;
    total.refused += shard->counters.refused;
    total.timeouts += shard->counters.timeouts;
    total.failures += shard->counters.failures;
    total.abandoned += shard->counters.abandoned;
  }
  total.attempts = attempts_;
  return total;
}

}  // namespace gridmon::core
