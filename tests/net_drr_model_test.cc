// DrrQueue against a reference model: the std::map / std::deque
// implementation DRR had before its flat layout, kept here as ModelDrr
// with its logic unchanged. Seeded random offer / pop / flush sequences drive both, and
// after every operation the test compares everything a port or the audit
// can see: the EnqueueResult (admission, mark, cause, the dropped packet),
// the popped packet, front(), length(), length_bytes(), every counter,
// active_flows() and the order flush() returns. The flat queue must make
// exactly the model's decisions: one quantum per visit, buffer stealing
// from the longest flow's newest packet (never the committed head's lone
// packet, ties to the smallest key), a self-steal reported as an arrival
// drop, and flush() in ascending key order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <vector>

#include "net/queue.h"
#include "util/rng.h"

namespace tcpdyn::net {
namespace {

class ModelDrr final : public QueueDiscipline {
 public:
  ModelDrr(QueueLimit limit, DrrParams params)
      : QueueDiscipline(limit), params_(params) {
    if (params_.quantum_bytes == 0) params_.quantum_bytes = 1;
  }

  EnqueueResult offer(Packet pkt, bool /*protect_front*/ = false) override {
    count_arrival(pkt);
    EnqueueResult result;
    const std::uint64_t key = flow_key(pkt);
    Flow& f = flows_[key];
    if (f.packets.empty()) round_.push_back(key);
    bytes_ += pkt.size_bytes;
    f.packets.push_back(std::move(pkt));
    ++total_packets_;
    if (!limit_.is_infinite() && total_packets_ > *limit_.packets) {
      const std::uint64_t front_key = round_.front();
      std::uint64_t victim_key = key;
      std::size_t victim_size = 0;
      for (const auto& [k, fl] : flows_) {
        if (fl.packets.empty()) continue;
        if (head_committed_ && k == front_key && fl.packets.size() == 1) {
          continue;
        }
        if (fl.packets.size() > victim_size) {
          victim_size = fl.packets.size();
          victim_key = k;
        }
      }
      Flow& v = flows_[victim_key];
      Packet victim = std::move(v.packets.back());
      v.packets.pop_back();
      bytes_ -= victim.size_bytes;
      --total_packets_;
      if (victim_key == key) {
        result.accepted = false;
        result.cause = DropCause::kQueueTail;
      } else {
        result.cause = DropCause::kQueueVictim;
      }
      if (v.packets.empty()) {
        v.deficit = 0;
        const auto it = std::find(round_.begin(), round_.end(), victim_key);
        assert(it != round_.end());
        if (it == round_.begin()) front_credited_ = false;
        round_.erase(it);
      }
      count_drop(victim);
      result.dropped = std::move(victim);
    }
    note_length(total_packets_);
    commit_head();
    return result;
  }

  std::optional<Packet> pop() override {
    if (total_packets_ == 0) return std::nullopt;
    commit_head();
    Flow& f = flows_[round_.front()];
    Packet pkt = std::move(f.packets.front());
    f.packets.pop_front();
    f.deficit -= static_cast<std::int64_t>(pkt.size_bytes);
    bytes_ -= pkt.size_bytes;
    --total_packets_;
    head_committed_ = false;
    if (f.packets.empty()) {
      f.deficit = 0;
      round_.pop_front();
      front_credited_ = false;
    }
    count_departure(pkt);
    commit_head();
    return pkt;
  }

  std::vector<Packet> flush() override {
    std::vector<Packet> flushed;
    flushed.reserve(total_packets_);
    for (auto& [key, f] : flows_) {
      for (Packet& pkt : f.packets) {
        bytes_ -= pkt.size_bytes;
        count_drop(pkt);
        flushed.push_back(std::move(pkt));
      }
      f.packets.clear();
      f.deficit = 0;
    }
    round_.clear();
    head_committed_ = false;
    front_credited_ = false;
    total_packets_ = 0;
    return flushed;
  }

  const Packet& front() const override {
    return flows_.at(round_.front()).packets.front();
  }
  bool empty() const override { return total_packets_ == 0; }
  std::size_t length() const override { return total_packets_; }
  std::size_t length_bytes() const override { return bytes_; }
  const char* name() const override { return "drr-model"; }
  std::size_t active_flows() const { return round_.size(); }

 private:
  struct Flow {
    std::deque<Packet> packets;
    std::int64_t deficit = 0;
  };

  static std::uint64_t flow_key(const Packet& pkt) {
    return (static_cast<std::uint64_t>(pkt.conn) << 1) |
           (is_ack(pkt) ? 1u : 0u);
  }

  void commit_head() {
    if (head_committed_ || total_packets_ == 0) return;
    for (;;) {
      Flow& f = flows_[round_.front()];
      if (f.deficit >=
          static_cast<std::int64_t>(f.packets.front().size_bytes)) {
        head_committed_ = true;
        return;
      }
      if (!front_credited_) {
        front_credited_ = true;
        f.deficit += static_cast<std::int64_t>(params_.quantum_bytes);
        continue;
      }
      round_.push_back(round_.front());
      round_.pop_front();
      front_credited_ = false;
    }
  }

  DrrParams params_;
  std::map<std::uint64_t, Flow> flows_;
  std::deque<std::uint64_t> round_;
  bool head_committed_ = false;
  bool front_credited_ = false;
  std::size_t total_packets_ = 0;
  std::size_t bytes_ = 0;
};

std::vector<std::uint64_t> uids(const std::vector<Packet>& packets) {
  std::vector<std::uint64_t> out;
  for (const Packet& p : packets) out.push_back(p.uid);
  return out;
}

void expect_same_counters(const QueueCounters& a, const QueueCounters& b) {
  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.departures, b.departures);
  EXPECT_EQ(a.drops, b.drops);
  EXPECT_EQ(a.data_drops, b.data_drops);
  EXPECT_EQ(a.ack_drops, b.ack_drops);
  EXPECT_EQ(a.marks, b.marks);
  EXPECT_EQ(a.bytes_arrived, b.bytes_arrived);
  EXPECT_EQ(a.bytes_departed, b.bytes_departed);
  EXPECT_EQ(a.bytes_dropped, b.bytes_dropped);
  EXPECT_EQ(a.bytes_marked, b.bytes_marked);
  EXPECT_EQ(a.max_length, b.max_length);
}

struct Run {
  QueueLimit limit;
  std::size_t quantum;
  std::uint64_t seed;
};

// One seeded sequence of `ops` operations; `drops` receives how many
// packets the queue dropped, so the caller can check the mix reached the
// overflow path.
void run_against_model(const Run& run, int ops, std::uint64_t* drops) {
  constexpr std::uint32_t kSizes[] = {40, 500, 1500};
  constexpr ConnId kConns = 64;
  DrrQueue flat(run.limit, DrrParams{run.quantum});
  ModelDrr model(run.limit, DrrParams{run.quantum});
  util::Rng rng(run.seed);
  std::uint64_t next_uid = 1;
  for (int op = 0; op < ops; ++op) {
    SCOPED_TRACE(::testing::Message() << "op " << op);
    const std::uint64_t roll = rng.next_below(1000);
    if (roll < 4) {
      EXPECT_EQ(uids(flat.flush()), uids(model.flush()));
    } else if (roll < 560) {
      Packet p;
      p.uid = next_uid++;
      // Half the arrivals come from a few heavy flows, so the longest flow
      // is often contested and ties are common.
      p.conn = static_cast<ConnId>(rng.next_below(2) == 0
                                       ? rng.next_below(4)
                                       : rng.next_below(kConns));
      p.kind = rng.next_below(3) == 0 ? PacketKind::kAck : PacketKind::kData;
      p.size_bytes = kSizes[rng.next_below(3)];
      const bool protect = rng.next_below(2) == 0;
      const EnqueueResult a = flat.offer(p, protect);
      const EnqueueResult b = model.offer(p, protect);
      EXPECT_EQ(a.accepted, b.accepted);
      EXPECT_EQ(a.marked, b.marked);
      ASSERT_EQ(a.dropped.has_value(), b.dropped.has_value());
      if (a.dropped.has_value()) {
        EXPECT_EQ(a.cause, b.cause);
        EXPECT_EQ(a.dropped->uid, b.dropped->uid);
      }
    } else {
      const std::optional<Packet> a = flat.pop();
      const std::optional<Packet> b = model.pop();
      ASSERT_EQ(a.has_value(), b.has_value());
      if (a.has_value()) {
        EXPECT_EQ(a->uid, b->uid);
      }
    }
    ASSERT_EQ(flat.empty(), model.empty());
    if (!flat.empty()) {
      ASSERT_EQ(flat.front().uid, model.front().uid);
    }
    ASSERT_EQ(flat.length(), model.length());
    ASSERT_EQ(flat.length_bytes(), model.length_bytes());
    ASSERT_EQ(flat.active_flows(), model.active_flows());
    expect_same_counters(flat.counters(), model.counters());
    if (::testing::Test::HasFailure()) return;
  }
  *drops = flat.counters().drops;
  EXPECT_EQ(uids(flat.flush()), uids(model.flush()));
  expect_same_counters(flat.counters(), model.counters());
}

TEST(DrrModel, MatchesReferenceOverRandomSequences) {
  const QueueLimit limits[] = {QueueLimit::of(1), QueueLimit::of(2),
                               QueueLimit::of(3), QueueLimit::of(5),
                               QueueLimit::of(50), QueueLimit::infinite()};
  const std::size_t quanta[] = {1, 40, 500, 1500};
  constexpr int kOps = 1500;
  std::uint64_t total_ops = 0;
  for (const QueueLimit& limit : limits) {
    for (const std::size_t quantum : quanta) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        SCOPED_TRACE(::testing::Message()
                     << "limit "
                     << (limit.is_infinite() ? 0 : *limit.packets)
                     << " quantum " << quantum << " seed " << seed);
        std::uint64_t drops = 0;
        run_against_model({limit, quantum, seed}, kOps, &drops);
        if (HasFailure()) return;
        if (!limit.is_infinite() && *limit.packets <= 5) {
          EXPECT_GT(drops, 0u) << "the sequence never overflowed";
        }
        total_ops += kOps;
      }
    }
  }
  EXPECT_GE(total_ops, 100'000u);
}

// The overflow path under sustained pressure: a limit far below the offered
// load keeps the queue full, so nearly every arrival steals.
TEST(DrrModel, MatchesReferenceAtAFullBuffer) {
  for (std::uint64_t seed = 11; seed <= 14; ++seed) {
    DrrQueue flat(QueueLimit::of(8), DrrParams{500});
    ModelDrr model(QueueLimit::of(8), DrrParams{500});
    util::Rng rng(seed);
    for (std::uint64_t uid = 1; uid <= 5000; ++uid) {
      Packet p;
      p.uid = uid;
      p.conn = static_cast<ConnId>(rng.next_below(6));
      p.size_bytes = 500;
      const EnqueueResult a = flat.offer(p);
      const EnqueueResult b = model.offer(p);
      ASSERT_EQ(a.accepted, b.accepted);
      ASSERT_EQ(a.dropped.has_value(), b.dropped.has_value());
      if (a.dropped.has_value()) {
        ASSERT_EQ(a.cause, b.cause);
        ASSERT_EQ(a.dropped->uid, b.dropped->uid);
      }
      if (uid % 3 == 0) {
        ASSERT_EQ(flat.pop()->uid, model.pop()->uid);
      }
      ASSERT_EQ(flat.front().uid, model.front().uid);
      ASSERT_EQ(flat.active_flows(), model.active_flows());
    }
    EXPECT_EQ(uids(flat.flush()), uids(model.flush()));
  }
}

}  // namespace
}  // namespace tcpdyn::net
