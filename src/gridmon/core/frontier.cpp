#include "gridmon/core/frontier.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "gridmon/core/experiment.hpp"

namespace gridmon::core {
namespace {

// Mailbox protocol: one in-flight exchange per user, ever — a request
// is answered by exactly one reply before the user's next timer can
// send another. That satisfies the ShardGroup ordering contract (no
// two same-(deliver_at, uid) messages from different shards).
constexpr std::uint32_t kMsgRequest = 1;
constexpr std::uint32_t kMsgReply = 2;

// Reply flags, packed into ShardMessage::a.
constexpr std::uint64_t kFlagOk = 1u << 0;
constexpr std::uint64_t kFlagRefused = 1u << 1;
constexpr std::uint64_t kFlagTimeout = 1u << 2;
constexpr std::uint64_t kFlagFailed = 1u << 3;
constexpr std::uint64_t kFlagStale = 1u << 4;

// User FSM states (SoA byte per user).
constexpr std::uint8_t kThinking = 0;  // timer armed: issue next query
constexpr std::uint8_t kWaiting = 1;   // attempt in flight, no timer
constexpr std::uint8_t kBackoff = 2;   // timer armed: retry the query

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
  /// retries the current one; both send one request to the gateway.
  void fire(std::uint32_t local) {
    if (states[local] == kThinking) {
      ++counters.queries;
      retries[local] = 0;
      query_starts[local] = now_;
    }
    states[local] = kWaiting;
    owner.group_->post(
        index, 0,
        sim::ShardMessage{now_ + owner.lookahead_, uid_of(local), 0,
                          kMsgRequest, 0, 0, 0});
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

  void deliver(const sim::ShardMessage& m) override {
    std::uint32_t local = static_cast<std::uint32_t>(
        m.uid / static_cast<std::uint64_t>(owner.config_.shards));
    if (m.a & kFlagOk) {
      completions.push_back(Completion{now_, now_ - query_starts[local], m.f,
                                       (m.a & kFlagStale) != 0, m.uid});
      states[local] = kThinking;
      arm(now_ + owner.config_.client.think_time, local);
      return;
    }
    if (m.a & kFlagRefused) ++counters.refused;
    if (m.a & kFlagTimeout) ++counters.timeouts;
    if (m.a & kFlagFailed) ++counters.failures;
    // Jittered from the user's counter stream: 1 - j + 2j*u is not
    // bit-equal to BackoffPolicy::delay's Rng::uniform(1 - j, 1 + j).
    double jitter = owner.backoff_.jitter;
    double delay = owner.backoff_.raw_delay(retries[local]) *
                   (1.0 - jitter + 2.0 * jitter * draw01(m.uid, local));
    if (retries[local] < 0xffff) ++retries[local];
    states[local] = kBackoff;
    arm(now_ + delay, local);
  }
};

FrontierWorkload::FrontierWorkload(Testbed& testbed, TracedQueryFn query,
                                   FrontierConfig config)
    : testbed_(testbed), query_(std::move(query)), config_(config) {
  if (config_.shards < 1) {
    throw std::invalid_argument("frontier workload needs >= 1 shard");
  }
  const WorkloadConfig& client = config_.client;
  if (client.query_deadline > 0 || client.max_attempts > 0 ||
      client.resilience.enabled) {
    throw std::invalid_argument(
        "frontier workload: clients retry forever, with no deadline, "
        "attempt cap or resilience policy");
  }
  backoff_.schedule = client.retry_schedule;
  backoff_.jitter = client.retry_jitter;
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
    if (config_.pool_factor < 1) {
      throw std::invalid_argument(
          "frontier workload: pool_factor must be >= 1");
    }
    server_nic_ = &testbed_.nic(config_.server_host);
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
  group_ = std::make_unique<sim::ShardGroup>(std::move(runners), lookahead_,
                                             config_.threads);
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

std::size_t FrontierWorkload::run(double until) {
  return group_->run(until);
}

sim::Task<void> FrontierWorkload::gateway_attempt(FrontierWorkload& self,
                                                  std::uint64_t uid) {
  auto& sim = self.testbed_.sim();
  std::size_t slot = static_cast<std::size_t>(uid % self.nics_.size());
  ++self.attempts_;
  ++self.outstanding_;
  QueryAttempt a = co_await self.query_(*self.nics_[slot], trace::Ctx{});
  std::uint64_t flags = 0;
  if (a.ok()) flags |= kFlagOk;
  if (a.refused()) flags |= kFlagRefused;
  if (a.timed_out) flags |= kFlagTimeout;
  if (a.failed) flags |= kFlagFailed;
  if (a.stale) flags |= kFlagStale;
  self.group_->post(0, self.shard_index_of(uid),
                    sim::ShardMessage{sim.now() + self.lookahead_, uid, 0,
                                      kMsgReply, 0, flags,
                                      a.response_bytes});
  // The client script's bookkeeping CPU, charged on the user's real UC
  // host after a successful query (the refused path must stay cheap: at
  // frontier scale most attempts bounce off the listen queue).
  double cpu = self.config_.client.client_cpu_per_query;
  if (a.ok() && cpu > 0) co_await self.hosts_[slot]->cpu().consume(cpu);
  --self.outstanding_;
}

/// The batched refusal fast path. At frontier scale nearly every
/// attempt bounces off a full listen queue, and the per-attempt price
/// of that bounce — a 1.2 s tool startup plus a SYN each way across
/// three processor-sharing stages — is what dominates wall-clock. The
/// gateway therefore keeps a bounded standing pool of real attempts
/// (pool_factor x the port's listen backlog of gateway_attempt
/// coroutines) that run the full per-attempt physics, where the
/// authoritative admission still happens; the pool is sized so the
/// accept queue stays saturated and throughput, response time, and
/// server load are attempt-for-attempt those of the unbatched model.
/// Requests beyond the pool are doomed — thousands of pooled attempts
/// are already ahead of them in line for every freed slot — so each
/// lookahead-wide cohort of surplus requests is priced as ONE aggregate
/// SYN/RST round trip. Processor sharing is a fluid model: n identical
/// concurrent SYN flows between the same two NICs occupy the pipes like
/// one flow of n times the bytes, so the aggregate carries the cohort's
/// exact wire bytes. Shed refusal replies skip the tool-startup delay
/// and land up to one bucket early; the shift is milliseconds against a
/// seconds-deep retry ladder (the trade is documented in docs/SCALE.md,
/// "The batched refusal fast path"). A down port bypasses the gate
/// entirely so fault semantics stay with the real path.
///
/// Determinism across shard counts survives because every input is
/// K-independent: cohorts are [b*L, (b+1)*L) buckets of the canonical
/// (deliver_at, uid, seq) mailbox order, the flush fires at the bucket
/// boundary, and the pool counter moves only at flush and at
/// gateway-attempt completion — all gateway-shard sim times.
sim::Task<void> FrontierWorkload::flush_requests(FrontierWorkload& self) {
  auto head = self.buckets_.begin();
  std::vector<std::uint64_t> batch = std::move(head->second);
  self.buckets_.erase(head);
  const net::ServerPort& port = *self.config_.admission_port;
  auto& sim = self.testbed_.sim();
  std::size_t full = batch.size();
  if (port.up()) {
    std::uint64_t target =
        static_cast<std::uint64_t>(self.config_.pool_factor) *
        static_cast<std::uint64_t>(port.backlog());
    std::uint64_t room =
        target > self.outstanding_ ? target - self.outstanding_ : 0;
    full = std::min(full, static_cast<std::size_t>(room));
  }
  for (std::size_t i = 0; i < full; ++i) {
    sim.spawn(gateway_attempt(self, batch[i]));
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
  double at = sim.now() + self.lookahead_;
  for (std::size_t i = full; i < batch.size(); ++i) {
    self.group_->post(0, self.shard_index_of(batch[i]),
                      sim::ShardMessage{at, batch[i], 0, kMsgReply, 0,
                                        kFlagRefused, 0});
  }
}

void FrontierWorkload::on_gateway_message(const sim::ShardMessage& m) {
  if (m.kind != kMsgRequest) return;
  if (config_.admission_port == nullptr) {
    testbed_.sim().spawn(gateway_attempt(*this, m.uid));
    return;
  }
  // Deliveries arrive in canonical time order; bucket this request by
  // the lookahead-wide interval [b*L, (b+1)*L) holding its delivery
  // instant and flush the cohort at the bucket boundary. The first
  // member schedules the flush; a boundary-instant delivery (processed
  // before that flush fires, FIFO at equal times) keys a fresh bucket,
  // which is why buckets_ is a map and not a single pending vector.
  auto& sim = testbed_.sim();
  double deadline =
      (std::floor(sim.now() / lookahead_) + 1.0) * lookahead_;
  std::vector<std::uint64_t>& bucket = buckets_[deadline];
  if (bucket.empty()) {
    sim.schedule(deadline - sim.now(),
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
  }
  total.attempts = attempts_;
  return total;
}

double FrontierWorkload::now() const noexcept { return group_->now(); }

std::uint64_t FrontierWorkload::messages_delivered() const noexcept {
  return group_->messages_delivered();
}

MetricsReport FrontierWorkload::measure_window(
    double x, double warmup, double duration,
    const std::string& server_host) {
  double start = std::max(group_->now(), testbed_.sim().now());
  std::size_t events = run(start + warmup);
  double t0 = group_->now();
  ClientCounters before = counters();
  events += run(t0 + duration);
  // Completions are walked in canonical (t, uid) order, so the float
  // sums are byte-identical for every shard count.
  MetricsReport p = window_report(testbed_, server_host, x,
                                  merged_completions(), before, counters(),
                                  t0, group_->now());
  p.events = static_cast<double>(events);
  p.shards = static_cast<double>(config_.shards);
  return p;
}

}  // namespace gridmon::core
