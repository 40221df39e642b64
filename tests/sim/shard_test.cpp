/// sim::ShardGroup unit tests: the canonical mailbox order (including a
/// property test of the barrier merge against a reference sort), the
/// conservative-lookahead guard, checked shard indices, shard-count
/// independence of the delivery sequence, and serial == threaded
/// schedules (the tests the CI TSan job leans on).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "gridmon/sim/shard.hpp"

using gridmon::sim::ShardGroup;
using gridmon::sim::ShardMessage;
using gridmon::sim::ShardRunner;
using gridmon::sim::SimTime;

namespace {

/// A scripted runner: no local events, records every delivery as
/// "t=<deliver_at> uid=<uid> kind=<kind>" into a shared journal tagged
/// with its own name.
class RecordingShard final : public ShardRunner {
 public:
  RecordingShard(std::string name, std::vector<std::string>& journal)
      : name_(std::move(name)), journal_(journal) {}

  SimTime now() const override { return now_; }
  std::size_t run(SimTime until) override {
    if (until > now_) now_ = until;
    return 0;
  }
  void deliver(const ShardMessage& m) override {
    std::ostringstream line;
    line << name_ << " t=" << m.deliver_at << " uid=" << m.uid
         << " kind=" << m.kind;
    journal_.push_back(line.str());
    EXPECT_EQ(now_, m.deliver_at);
  }

 private:
  std::string name_;
  SimTime now_ = 0;
  std::vector<std::string>& journal_;
};

/// The message fields the canonical order and the property test look
/// at; `from` and `seq` identify a message uniquely.
struct Posted {
  SimTime deliver_at;
  std::uint64_t uid;
  std::uint64_t seq;
  std::uint32_t from;
  std::uint32_t kind;
  bool operator==(const Posted&) const = default;
  friend std::ostream& operator<<(std::ostream& out, const Posted& p) {
    return out << "{t=" << p.deliver_at << " uid=" << p.uid << " seq="
               << p.seq << " from=" << p.from << " kind=" << p.kind << "}";
  }
};

/// One shard of the exchange property test. Each window it posts a
/// scripted, deliberately unsorted batch to shard 0: a cohort sharing
/// one deliver_at with uids in descending order, a repeated
/// (deliver_at, uid) pair, and messages due several windows later.
/// Shard 0 itself also posts to itself from deliver(). Every post is
/// recorded with the seq the group assigns (a per-sender count), so the
/// test can rebuild the expected order without touching the group.
class ScriptedShard final : public ShardRunner {
 public:
  ScriptedShard(int self, int senders, double stop_posting)
      : self_(self), senders_(senders), stop_(stop_posting),
        state_(0x9E3779B97F4A7C15ull * static_cast<std::uint64_t>(self + 1)) {}
  void bind(ShardGroup& group) { group_ = &group; }

  SimTime now() const override { return now_; }
  std::size_t run(SimTime until) override {
    if (until > now_) {
      now_ = until;
      if (self_ != 0 && until < stop_) post_batch(until);
    }
    return 0;
  }
  void deliver(const ShardMessage& m) override {
    EXPECT_EQ(now_, m.deliver_at);
    delivered_.push_back(Posted{m.deliver_at, m.uid, m.seq, m.from, m.kind});
    if (self_ == 0 && m.uid % 3 == 0 && m.deliver_at < stop_) {
      // Self-post, due inside a later window.
      post(m.deliver_at + 2.5 * group_->lookahead(), uid(next() % 50), 9);
    }
  }

  const std::vector<Posted>& posted() const { return posted_; }
  const std::vector<Posted>& delivered() const { return delivered_; }

 private:
  std::uint64_t next() {
    state_ = state_ * 6364136223846793005ull + 1442695040888963407ull;
    return state_ >> 33;
  }
  /// Disjoint uid ranges per shard keep the protocol contract: equal
  /// (deliver_at, uid) pairs only ever come from one sender.
  std::uint64_t uid(std::uint64_t r) const {
    return r * static_cast<std::uint64_t>(senders_ + 1) +
           static_cast<std::uint64_t>(self_);
  }
  void post(SimTime at, std::uint64_t u, std::uint32_t kind) {
    posted_.push_back(Posted{at, u, seq_++, static_cast<std::uint32_t>(self_),
                             kind});
    group_->post(self_, 0, ShardMessage{at, u, 0, kind, 0, 0, 0});
  }
  void post_batch(SimTime end) {
    double lookahead = group_->lookahead();
    // Due next window, in no particular order. Strictly after `end`: a
    // message due exactly at the window end lands after any already
    // queued for that instant, which a plain sort cannot express.
    for (int i = 0; i < 4; ++i) {
      post(end + lookahead * static_cast<double>(1 + next() % 99) / 100.0,
           uid(next() % 50), 1);
    }
    // A cohort: one deliver_at, uids descending.
    SimTime cohort = end + 0.5 * lookahead;
    for (std::uint64_t r = 40; r >= 30; r -= 2) post(cohort, uid(r), 2);
    // The same (deliver_at, uid) twice: seq decides.
    std::uint64_t twice = uid(next() % 50);
    post(cohort, twice, 3);
    post(cohort, twice, 4);
    // Due several windows later: stays in the inbox across barriers.
    for (int i = 0; i < 3; ++i) {
      post(end + lookahead * (2.0 + static_cast<double>(next() % 300) / 100.0),
           uid(next() % 50), 5);
    }
  }

  int self_;
  int senders_;
  double stop_;
  std::uint64_t state_;
  std::uint64_t seq_ = 0;
  ShardGroup* group_ = nullptr;
  SimTime now_ = 0;
  std::vector<Posted> posted_;
  std::vector<Posted> delivered_;
};

}  // namespace

TEST(ShardGroup, ExchangeMatchesReferenceSort) {
  auto run = [](int senders) {
    std::vector<std::unique_ptr<ScriptedShard>> shards;
    std::vector<ShardRunner*> runners;
    for (int s = 0; s <= senders; ++s) {
      shards.push_back(std::make_unique<ScriptedShard>(s, senders, 30.0));
      runners.push_back(shards.back().get());
    }
    ShardGroup group(runners, 1.0);
    for (auto& s : shards) s->bind(group);
    group.run(40.0);
    std::vector<Posted> expected;
    for (auto& s : shards) {
      if (s.get() != shards[0].get()) {
        EXPECT_TRUE(s->delivered().empty());
      }
      expected.insert(expected.end(), s->posted().begin(), s->posted().end());
    }
    std::stable_sort(expected.begin(), expected.end(),
                     [](const Posted& x, const Posted& y) {
                       if (x.deliver_at != y.deliver_at) {
                         return x.deliver_at < y.deliver_at;
                       }
                       if (x.uid != y.uid) return x.uid < y.uid;
                       return x.seq < y.seq;
                     });
    EXPECT_EQ(group.messages_delivered(), expected.size());
    const std::vector<Posted>& got = shards[0]->delivered();
    EXPECT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < std::min(got.size(), expected.size()); ++i) {
      if (got[i] == expected[i]) continue;
      ADD_FAILURE() << senders << " senders: delivery " << i << " is "
                    << got[i] << ", expected " << expected[i];
      break;
    }
    return got.size();
  };
  for (int senders = 1; senders <= 4; ++senders) {
    EXPECT_GT(run(senders), 400u * static_cast<std::size_t>(senders));
  }
}

TEST(ShardGroup, PostRejectsShardIndexOutOfRange) {
  std::vector<std::string> journal;
  RecordingShard a("a", journal);
  RecordingShard b("b", journal);
  ShardGroup group({&a, &b}, 1.0);
  ShardMessage m{1.0, 1, 0, 0, 0, 0, 0};
  EXPECT_THROW(group.post(2, 0, m), std::out_of_range);
  EXPECT_THROW(group.post(0, 2, m), std::out_of_range);
  EXPECT_THROW(group.post(-1, 0, m), std::out_of_range);
  EXPECT_THROW(group.post(0, -1, m), std::out_of_range);
  EXPECT_NO_THROW(group.post(1, 0, m));
  group.run(2.0);
  EXPECT_EQ(journal.size(), 1u);
}

TEST(ShardGroup, RejectsEmptyOrNonPositiveLookahead) {
  std::vector<std::string> journal;
  RecordingShard a("a", journal);
  EXPECT_THROW(ShardGroup({}, 1.0), std::invalid_argument);
  EXPECT_THROW(ShardGroup({&a}, 0.0), std::invalid_argument);
  EXPECT_THROW(ShardGroup({&a}, -1.0), std::invalid_argument);
}

TEST(ShardGroup, PostInsideWindowThrows) {
  std::vector<std::string> journal;
  RecordingShard a("a", journal);
  RecordingShard b("b", journal);
  ShardGroup group({&a, &b}, 1.0);
  group.run(1.0);  // window [0, 1): window_end_ is now 1
  EXPECT_THROW(group.post(0, 1, ShardMessage{0.5, 1, 0, 0, 0, 0, 0}),
               std::logic_error);
  // Exactly at the window end is legal — it lands in the next window.
  EXPECT_NO_THROW(group.post(0, 1, ShardMessage{1.0, 1, 0, 0, 0, 0, 0}));
}

TEST(ShardGroup, DeliversInCanonicalOrderRegardlessOfSender) {
  // Two senders interleave posts to one receiver; delivery must follow
  // (deliver_at, uid, seq), not arrival or sender order.
  std::vector<std::string> journal;
  RecordingShard a("a", journal);
  RecordingShard b("b", journal);
  RecordingShard c("c", journal);
  ShardGroup group({&a, &b, &c}, 10.0);
  group.post(1, 0, ShardMessage{12.0, 7, 0, 1, 0, 0, 0});
  group.post(2, 0, ShardMessage{11.0, 9, 0, 2, 0, 0, 0});
  group.post(1, 0, ShardMessage{11.0, 2, 0, 3, 0, 0, 0});
  group.post(2, 0, ShardMessage{12.0, 7, 0, 4, 0, 0, 0});  // same (t, uid)!
  group.run(20.0);
  // The same-(t, uid) pair from different senders is outside the
  // protocol contract, but the tie still resolves deterministically by
  // seq within the sorted batch.
  ASSERT_EQ(journal.size(), 4u);
  EXPECT_EQ(journal[0], "a t=11 uid=2 kind=3");
  EXPECT_EQ(journal[1], "a t=11 uid=9 kind=2");
  EXPECT_EQ(journal[2], "a t=12 uid=7 kind=1");
  EXPECT_EQ(journal[3], "a t=12 uid=7 kind=4");
  EXPECT_EQ(group.messages_delivered(), 4u);
}

TEST(ShardGroup, SelfPostTakesTheBarrierTrip) {
  std::vector<std::string> journal;
  RecordingShard a("a", journal);
  ShardGroup group({&a}, 1.0);
  group.post(0, 0, ShardMessage{0.5, 1, 0, 42, 0, 0, 0});
  group.run(2.0);
  ASSERT_EQ(journal.size(), 1u);
  EXPECT_EQ(journal[0], "a t=0.5 uid=1 kind=42");
}

/// The property the frontier's determinism rests on: the per-entity
/// delivery sequence a receiver observes is a pure function of the
/// message multiset, independent of how many shards sent it.
TEST(ShardGroup, DeliverySequenceIsShardCountIndependent) {
  // Messages for 40 entities at pseudo-random times, generated from a
  // fixed recurrence. Partition the senders two ways: all-from-one vs
  // spread-over-three. The receiver's journal must match exactly.
  auto generate = [](int senders) {
    std::vector<std::string> journal;
    RecordingShard sink("sink", journal);
    std::deque<RecordingShard> sources;  // non-movable: no vector
    for (int s = 0; s < 3; ++s) sources.emplace_back("src", journal);
    ShardGroup group({&sink, &sources[0], &sources[1], &sources[2]}, 5.0);
    std::uint64_t state = 12345;
    for (int i = 0; i < 200; ++i) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      std::uint64_t uid = (state >> 33) % 40;
      double at = 5.0 + static_cast<double>(state % 9000) / 100.0;
      int from = senders == 1 ? 1 : 1 + static_cast<int>(uid % 3);
      group.post(from, 0,
                 ShardMessage{at, uid, 0, static_cast<std::uint32_t>(i), 0,
                              0, 0});
    }
    group.run(100.0);
    return journal;
  };
  std::vector<std::string> one = generate(1);
  std::vector<std::string> three = generate(3);
  ASSERT_EQ(one.size(), 200u);
  // Same-uid messages always share a sender in both partitionings (the
  // protocol contract), so even (t, uid) ties resolve identically via
  // seq, and equality must hold line for line.
  EXPECT_EQ(one, three);
}

TEST(ShardGroup, WindowAccountingAdvancesClock) {
  std::vector<std::string> journal;
  RecordingShard a("a", journal);
  RecordingShard b("b", journal);
  ShardGroup group({&a, &b}, 2.0);
  group.run(10.0);
  EXPECT_EQ(group.now(), 10.0);
  EXPECT_EQ(a.now(), 10.0);
  EXPECT_EQ(b.now(), 10.0);
  EXPECT_EQ(group.windows_run(), 5u);
  EXPECT_EQ(group.shard_count(), 2);
  EXPECT_EQ(group.lookahead(), 2.0);
}
