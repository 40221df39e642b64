#pragma once

/// \file shard.hpp
/// Conservative-lookahead sharded execution for the discrete-event
/// engine.
///
/// A ShardGroup drives K ShardRunners (shard 0 is usually a full
/// sim::Simulation; the others can be lean special-purpose runners such
/// as the frontier workload's SoA client shards) through fixed windows
/// of `lookahead` simulated seconds. Within a window every shard
/// advances independently; cross-shard effects travel as ShardMessages
/// through per-sender outboxes that are exchanged at the window barrier.
///
/// Determinism argument (the property the golden tests pin):
///  - A message posted in a window is never deliverable before the next
///    barrier: post() rejects deliver_at earlier than the current
///    window's end, and the lookahead bound (the minimum cross-site
///    one-way latency, see net::Network::min_cross_site_latency) makes
///    that restriction physically free.
///  - At the barrier each receiver's inbox is rebuilt in the canonical
///    order (deliver_at, uid, seq): every sender's outbox is one run,
///    sorted in place only if it is not already in order, and the runs
///    plus the undelivered inbox tail are merged stably. Sender identity
///    is *not* part of the key, so the delivery order is independent of
///    how entities were partitioned into shards.
///  - Within a window a shard interleaves local work and deliveries by
///    time, with the fixed tie rule "local events first, then messages"
///    at equal timestamps.
/// Together: the sequence of deliveries each shard observes is a pure
/// function of the message multiset, not of the shard count, so a run
/// with K shards is byte-identical to the same model run with one.
///
/// Protocol contract for senders: two messages that agree on
/// (deliver_at, uid) must originate from the same shard (their relative
/// order is then fixed by seq). Request/reply protocols that keep at
/// most one in-flight exchange per uid satisfy this by construction.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "gridmon/sim/simulation.hpp"

namespace gridmon::sim {

/// One cross-shard event. `kind`/`a`/`f` are receiver-defined payload;
/// `uid` is the global entity id that anchors the canonical order.
struct ShardMessage {
  SimTime deliver_at = 0;
  std::uint64_t uid = 0;   // global entity id — primary tiebreak
  std::uint64_t seq = 0;   // per-sender running count — final tiebreak
  std::uint32_t kind = 0;  // receiver-defined discriminator
  std::uint32_t from = 0;  // sending shard (filled by post)
  std::uint64_t a = 0;     // payload word
  double f = 0;            // payload value
};

/// The canonical delivery order: (deliver_at, uid, seq), nothing else.
/// A lambda, not a function, so the sorts and merges inline it.
inline constexpr auto shard_message_before = [](const ShardMessage& x,
                                                const ShardMessage& y) {
  if (x.deliver_at != y.deliver_at) return x.deliver_at < y.deliver_at;
  if (x.uid != y.uid) return x.uid < y.uid;
  return x.seq < y.seq;
};

/// What the group drives. Implementations must advance their local
/// clock to `until` in run() even when idle, and must tolerate run()
/// calls that do not move the clock (until == now).
class ShardRunner {
 public:
  virtual ~ShardRunner() = default;
  ShardRunner() = default;
  ShardRunner(const ShardRunner&) = delete;
  ShardRunner& operator=(const ShardRunner&) = delete;

  virtual SimTime now() const = 0;
  /// Process all local work with timestamps <= until and advance the
  /// clock to `until`. Returns the number of events executed.
  virtual std::size_t run(SimTime until) = 0;
  /// Deliver one cross-shard message. Called with now() ==
  /// m.deliver_at, in canonical order among same-window messages.
  virtual void deliver(const ShardMessage& m) = 0;
};

/// Adapter presenting a full Simulation as a shard: deliveries invoke a
/// handler at the simulation's current time (the handler typically
/// spawns a coroutine or schedules work).
class SimulationShard final : public ShardRunner {
 public:
  using Handler = std::function<void(const ShardMessage&)>;

  SimulationShard(Simulation& sim, Handler handler)
      : sim_(sim), handler_(std::move(handler)) {}

  SimTime now() const override { return sim_.now(); }
  std::size_t run(SimTime until) override { return sim_.run(until); }
  void deliver(const ShardMessage& m) override { handler_(m); }

  Simulation& simulation() noexcept { return sim_; }

 private:
  Simulation& sim_;
  Handler handler_;
};

class ShardGroup {
 public:
  /// `shards` must outlive the group. `lookahead` is the window length
  /// in simulated seconds (> 0). Windows run inline on the caller's
  /// thread, one shard after another.
  ShardGroup(std::vector<ShardRunner*> shards, double lookahead)
      : shards_(), lookahead_(lookahead) {
    if (shards.empty()) throw std::invalid_argument("ShardGroup: no shards");
    if (!(lookahead > 0)) {
      throw std::invalid_argument("ShardGroup: lookahead must be positive");
    }
    shards_.reserve(shards.size());
    for (ShardRunner* r : shards) {
      PerShard shard;
      shard.runner = r;
      shards_.push_back(std::move(shard));
      shards_.back().outbox.resize(shards.size());
    }
  }

  ShardGroup(const ShardGroup&) = delete;
  ShardGroup& operator=(const ShardGroup&) = delete;

  /// Queue a message from shard `from` to shard `to`. Buffered in the
  /// sender's outbox until the next barrier — posting to your own shard
  /// takes the same barrier trip, which is what keeps K=1 and K=N
  /// byte-identical. Enforces the conservative bound: the message must
  /// not be deliverable inside the window that produced it.
  /// Throws std::out_of_range for a shard index outside the group.
  void post(int from, int to, ShardMessage m) {
    if (from < 0 || to < 0 || static_cast<std::size_t>(from) >= shards_.size() ||
        static_cast<std::size_t>(to) >= shards_.size()) {
      throw std::out_of_range("ShardGroup::post: shard index out of range");
    }
    if (m.deliver_at < window_end_) {
      throw std::logic_error(
          "ShardGroup::post: deliver_at precedes the current window end "
          "(lookahead violated)");
    }
    PerShard& s = shards_[static_cast<std::size_t>(from)];
    m.seq = s.next_seq++;
    m.from = static_cast<std::uint32_t>(from);
    s.outbox[static_cast<std::size_t>(to)].push_back(m);
  }

  /// Drive every shard to absolute time `until` in lookahead windows.
  /// Returns the number of events executed across all shards.
  std::size_t run(SimTime until) {
    std::size_t executed = 0;
    while (now_ < until) {
      exchange();
      SimTime end = now_ + lookahead_;
      if (end > until) end = until;
      window_end_ = end;
      for (PerShard& s : shards_) executed += run_window(s, end);
      now_ = end;
      ++windows_;
    }
    // Deliver anything due exactly at `until` posted by the last window
    // on the next run() call; callers observing state between runs see
    // every shard quiesced at `until`.
    return executed;
  }

  SimTime now() const noexcept { return now_; }
  int shard_count() const noexcept { return static_cast<int>(shards_.size()); }
  double lookahead() const noexcept { return lookahead_; }
  std::uint64_t windows_run() const noexcept { return windows_; }
  /// Total cross-shard messages delivered so far.
  std::uint64_t messages_delivered() const noexcept {
    std::uint64_t total = 0;
    for (const PerShard& s : shards_) total += s.delivered;
    return total;
  }

 private:
  struct PerShard {
    ShardRunner* runner = nullptr;
    std::vector<ShardMessage> inbox;  // canonical order, read from `head`
    std::size_t head = 0;
    std::vector<std::vector<ShardMessage>> outbox;  // by target shard
    std::uint64_t next_seq = 0;
    std::uint64_t delivered = 0;
  };

  /// One shard's window: interleave local events and due deliveries by
  /// time; at equal timestamps local events fire first (runner->run is
  /// inclusive of `until`), then messages in canonical order.
  std::size_t run_window(PerShard& s, SimTime end) {
    std::size_t executed = 0;
    while (s.head < s.inbox.size() && s.inbox[s.head].deliver_at <= end) {
      SimTime at = s.inbox[s.head].deliver_at;
      executed += s.runner->run(at);
      while (s.head < s.inbox.size() && s.inbox[s.head].deliver_at == at) {
        s.runner->deliver(s.inbox[s.head]);
        ++s.head;
        ++s.delivered;
      }
    }
    executed += s.runner->run(end);
    return executed;
  }

  /// A sorted stretch of messages: one sender's outbox, the inbox's
  /// undelivered tail, or an intermediate merge result.
  struct Run {
    const ShardMessage* first;
    const ShardMessage* last;
  };

  /// Barrier phase: rebuild every inbox in canonical
  /// order from its undelivered tail and the outboxes addressed to it.
  /// Runs are listed tail first, then by sender, and merged stably, so a
  /// tie on the whole key (outside the protocol contract) resolves the
  /// same way every time. A lone run is swapped in without a copy — the
  /// common case, since each client shard hears only from shard 0.
  void exchange() {
    for (std::size_t to = 0; to < shards_.size(); ++to) {
      PerShard& target = shards_[to];
      runs_.clear();
      std::size_t tail = target.inbox.size() - target.head;
      if (tail > 0) {
        runs_.push_back(Run{target.inbox.data() + target.head,
                            target.inbox.data() + target.inbox.size()});
      }
      std::size_t total = tail;
      std::vector<ShardMessage>* lone = nullptr;
      for (PerShard& from : shards_) {
        std::vector<ShardMessage>& box = from.outbox[to];
        if (box.empty()) continue;
        // Senders mostly post in canonical order already; same-instant
        // batches posted in request order are the exception.
        if (!std::is_sorted(box.begin(), box.end(), shard_message_before)) {
          std::sort(box.begin(), box.end(), shard_message_before);
        }
        runs_.push_back(Run{box.data(), box.data() + box.size()});
        total += box.size();
        lone = &box;
      }
      if (runs_.size() >= 2) {
        merge_runs(total);
        target.inbox.swap(merged_);
        target.head = 0;
        for (PerShard& from : shards_) from.outbox[to].clear();
      } else if (tail == 0) {
        target.inbox.clear();
        target.head = 0;
        if (lone != nullptr) target.inbox.swap(*lone);
      }
    }
  }

  /// Merge runs_ (at least two) into merged_ by rounds of pairwise
  /// std::merge, which takes the left run first on ties, so the result
  /// is the stable merge in runs_ order.
  void merge_runs(std::size_t total) {
    bool to_a = true;
    while (runs_.size() > 2) {
      std::vector<ShardMessage>& dst = to_a ? round_a_ : round_b_;
      to_a = !to_a;
      if (dst.size() < total) dst.resize(total);
      ShardMessage* out = dst.data();
      std::size_t kept = 0;
      for (std::size_t i = 0; i < runs_.size(); i += 2) {
        ShardMessage* start = out;
        if (i + 1 < runs_.size()) {
          out = std::merge(runs_[i].first, runs_[i].last, runs_[i + 1].first,
                           runs_[i + 1].last, out, shard_message_before);
        } else {
          out = std::copy(runs_[i].first, runs_[i].last, out);
        }
        runs_[kept++] = Run{start, out};
      }
      runs_.resize(kept);
    }
    merged_.resize(total);
    std::merge(runs_[0].first, runs_[0].last, runs_[1].first, runs_[1].last,
               merged_.data(), shard_message_before);
  }

  std::vector<PerShard> shards_;
  double lookahead_;
  SimTime now_ = 0;
  SimTime window_end_ = 0;
  std::uint64_t windows_ = 0;
  std::vector<Run> runs_;              // the runs being merged
  std::vector<ShardMessage> round_a_;  // pairwise-merge rounds
  std::vector<ShardMessage> round_b_;
  std::vector<ShardMessage> merged_;   // next inbox, swapped in
};

}  // namespace gridmon::sim
