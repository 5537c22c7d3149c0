#include "net/queue.h"

#include <gtest/gtest.h>

#include <limits>
#include <memory>

namespace tcpdyn::net {
namespace {

Packet data_pkt(std::uint32_t size = 500) {
  Packet p;
  p.kind = PacketKind::kData;
  p.size_bytes = size;
  return p;
}

Packet ack_pkt() {
  Packet p;
  p.kind = PacketKind::kAck;
  p.size_bytes = 50;
  return p;
}

TEST(DropTailQueue, FifoOrder) {
  DropTailQueue q(QueueLimit::of(10));
  for (std::uint32_t i = 0; i < 5; ++i) {
    Packet p = data_pkt();
    p.seq = i;
    ASSERT_TRUE(q.offer(std::move(p)).accepted);
  }
  for (std::uint32_t i = 0; i < 5; ++i) {
    auto p = q.pop();
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->seq, i);
  }
  EXPECT_FALSE(q.pop().has_value());
}

TEST(DropTailQueue, DropsWhenFull) {
  DropTailQueue q(QueueLimit::of(2));
  EXPECT_TRUE(q.offer(data_pkt()).accepted);
  EXPECT_TRUE(q.offer(data_pkt()).accepted);
  // Arriving packet dropped (drop-tail); offer() reports the casualty.
  const EnqueueResult r = q.offer(data_pkt());
  EXPECT_FALSE(r.accepted);
  ASSERT_TRUE(r.dropped.has_value());
  EXPECT_EQ(q.length(), 2u);
  EXPECT_EQ(q.counters().drops, 1u);
  EXPECT_EQ(q.counters().data_drops, 1u);
  EXPECT_EQ(q.counters().arrivals, 3u);
}

TEST(DropTailQueue, AckDropsCountedSeparately) {
  DropTailQueue q(QueueLimit::of(1));
  EXPECT_TRUE(q.offer(data_pkt()).accepted);
  EXPECT_FALSE(q.offer(ack_pkt()).accepted);
  EXPECT_EQ(q.counters().ack_drops, 1u);
  EXPECT_EQ(q.counters().data_drops, 0u);
}

TEST(DropTailQueue, InfiniteNeverDrops) {
  DropTailQueue q(QueueLimit::infinite());
  for (int i = 0; i < 10000; ++i) ASSERT_TRUE(q.offer(data_pkt()).accepted);
  EXPECT_EQ(q.length(), 10000u);
  EXPECT_EQ(q.counters().drops, 0u);
  EXPECT_TRUE(q.limit().is_infinite());
}

TEST(DropTailQueue, ByteAccounting) {
  DropTailQueue q(QueueLimit::of(10));
  q.offer(data_pkt(500));
  q.offer(ack_pkt());
  EXPECT_EQ(q.length_bytes(), 550u);
  q.pop();
  EXPECT_EQ(q.length_bytes(), 50u);
  q.pop();
  EXPECT_EQ(q.length_bytes(), 0u);
}

TEST(DropTailQueue, MaxLengthHighWaterMark) {
  DropTailQueue q(QueueLimit::of(10));
  for (int i = 0; i < 7; ++i) q.offer(data_pkt());
  for (int i = 0; i < 5; ++i) q.pop();
  for (int i = 0; i < 2; ++i) q.offer(data_pkt());
  EXPECT_EQ(q.counters().max_length, 7u);
}

TEST(DropTailQueue, FrontPeeksWithoutRemoval) {
  DropTailQueue q(QueueLimit::of(10));
  Packet p = data_pkt();
  p.seq = 42;
  q.offer(std::move(p));
  EXPECT_EQ(q.front().seq, 42u);
  EXPECT_EQ(q.length(), 1u);
}

TEST(DropTailQueue, ZeroCapacityDropsEverything) {
  DropTailQueue q(QueueLimit::of(0));
  EXPECT_FALSE(q.offer(data_pkt()).accepted);
  EXPECT_EQ(q.counters().drops, 1u);
}

// The per-queue conservation invariant the audit leans on:
//   arrivals == departures + drops + length()
// and its byte-level twin, after an arbitrary offer/pop interleaving.
TEST(DropTailQueue, CountersConserve) {
  DropTailQueue q(QueueLimit::of(3));
  std::uint64_t x = 999;
  for (int i = 0; i < 500; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    if ((x >> 33) % 4 != 0) {
      q.offer((x >> 34) % 2 == 0 ? data_pkt() : ack_pkt());
    } else {
      q.pop();
    }
    const QueueCounters& c = q.counters();
    ASSERT_EQ(c.arrivals, c.departures + c.drops + q.length());
    ASSERT_EQ(c.bytes_arrived,
              c.bytes_departed + c.bytes_dropped + q.length_bytes());
  }
}

// Satellite audit: the discard-mode rejection path (count_rejected) must
// account exactly like a full-buffer offer — arrival + drop + max_length
// refresh — or the per-port conservation ledger diverges from the counters.
TEST(QueueDiscipline, CountRejectedAuditsLikeOffer) {
  DropTailQueue q(QueueLimit::of(5));
  for (int i = 0; i < 3; ++i) q.offer(data_pkt());
  q.count_rejected(ack_pkt());
  EXPECT_EQ(q.counters().arrivals, 4u);
  EXPECT_EQ(q.counters().drops, 1u);
  EXPECT_EQ(q.counters().ack_drops, 1u);
  EXPECT_EQ(q.counters().bytes_dropped, 50u);
  EXPECT_EQ(q.counters().max_length, 3u);
  EXPECT_EQ(q.counters().arrivals,
            q.counters().departures + q.counters().drops + q.length());
}

// ------------------------------------------------------------------- RED

Packet ect_pkt(std::uint32_t size = 500) {
  Packet p = data_pkt(size);
  p.ecn = kEcnEct;
  return p;
}

TEST(RedQueue, EwmaMatchesClosedForm) {
  // Thresholds far above the limit: no lottery, no early drops — pure EWMA.
  RedParams rp;
  rp.min_th = 100;
  rp.max_th = 200;
  rp.wq_shift = 3;
  RedQueue q(QueueLimit::of(50), rp);
  std::int64_t avg = 0;
  for (int i = 0; i < 40; ++i) {
    const std::int64_t inst = static_cast<std::int64_t>(q.length()) << 16;
    avg += (inst - avg) >> 3;
    ASSERT_TRUE(q.offer(data_pkt()).accepted);
    ASSERT_EQ(q.avg_fixed(), static_cast<std::uint64_t>(avg));
  }
  // The average only advances on arrivals — a pop leaves it untouched.
  q.pop();
  EXPECT_EQ(q.avg_fixed(), static_cast<std::uint64_t>(avg));
}

TEST(RedQueue, BelowMinThresholdNeverDrops) {
  RedParams rp;
  rp.min_th = 30;
  rp.max_th = 60;
  RedQueue q(QueueLimit::of(100), rp);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(q.offer(data_pkt()).accepted);
    q.pop();
  }
  EXPECT_EQ(q.counters().drops, 0u);
  EXPECT_EQ(q.counters().marks, 0u);
}

TEST(RedQueue, AverageAtMaxThresholdForcesEarlyDrop) {
  // wq_shift 0 pins avg to the pre-admission length; max_p 0 disables the
  // lottery — drops happen exactly when avg reaches max_th.
  RedParams rp;
  rp.min_th = 2;
  rp.max_th = 4;
  rp.wq_shift = 0;
  rp.max_p_65536 = 0;
  RedQueue q(QueueLimit::of(10), rp);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(q.offer(data_pkt()).accepted);
  const EnqueueResult r = q.offer(data_pkt());  // pre-admission length 4
  EXPECT_FALSE(r.accepted);
  ASSERT_TRUE(r.dropped.has_value());
  EXPECT_EQ(r.cause, DropCause::kQueueEarly);
  EXPECT_EQ(q.length(), 4u);
}

TEST(RedQueue, FullBufferTailDropsRegardlessOfAverage) {
  RedParams rp;
  rp.min_th = 100;  // lottery never engages
  rp.max_th = 200;
  RedQueue q(QueueLimit::of(3), rp);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(q.offer(data_pkt()).accepted);
  const EnqueueResult r = q.offer(data_pkt());
  EXPECT_FALSE(r.accepted);
  EXPECT_EQ(r.cause, DropCause::kQueueTail);
}

TEST(RedQueue, CountCorrectionGuaranteesMarkOfEctTraffic) {
  // With max_p = 0.5 and wq_shift 0, the count correction's denominator
  // 65536 - count * p_b goes non-positive within a handful of in-band
  // arrivals, making a mark certain regardless of the lottery draws. ECT
  // packets are marked-and-admitted, never early-dropped.
  RedParams rp;
  rp.min_th = 0;
  rp.max_th = 8;
  rp.wq_shift = 0;
  rp.max_p_65536 = 32768;
  rp.ecn = true;
  RedQueue q(QueueLimit::of(100), rp);
  bool saw_mark = false;
  for (int i = 0; i < 8; ++i) {
    const EnqueueResult r = q.offer(ect_pkt());
    ASSERT_TRUE(r.accepted);  // marking admits
    if (r.marked) saw_mark = true;
  }
  EXPECT_TRUE(saw_mark);
  EXPECT_GE(q.counters().marks, 1u);
  EXPECT_EQ(q.counters().drops, 0u);
  EXPECT_EQ(q.counters().bytes_marked, q.counters().marks * 500u);
  // The marked packet sits in the queue with CE set.
  std::size_t ce = 0;
  while (auto p = q.pop()) {
    if ((p->ecn & kEcnCe) != 0) ++ce;
  }
  EXPECT_EQ(ce, q.counters().marks);
}

TEST(RedQueue, EcnModeStillDropsNonEctTraffic) {
  RedParams rp;
  rp.min_th = 0;
  rp.max_th = 8;
  rp.wq_shift = 0;
  rp.max_p_65536 = 32768;
  rp.ecn = true;
  RedQueue q(QueueLimit::of(100), rp);
  std::size_t drops = 0;
  for (int i = 0; i < 8; ++i) {
    const EnqueueResult r = q.offer(data_pkt());  // not ECN-capable
    if (!r.accepted) {
      ++drops;
      EXPECT_EQ(r.cause, DropCause::kQueueEarly);
    }
  }
  EXPECT_GE(drops, 1u);
  EXPECT_EQ(q.counters().marks, 0u);
}

TEST(RedQueue, DeterministicReplayFromSeed) {
  RedParams rp;
  rp.min_th = 2;
  rp.max_th = 6;
  RedQueue a(QueueLimit::of(10), rp, /*seed=*/99);
  RedQueue b(QueueLimit::of(10), rp, /*seed=*/99);
  std::uint64_t x = 7;
  for (int i = 0; i < 2000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    if ((x >> 33) % 3 != 0) {
      const EnqueueResult ra = a.offer(data_pkt());
      const EnqueueResult rb = b.offer(data_pkt());
      ASSERT_EQ(ra.accepted, rb.accepted);
    } else {
      a.pop();
      b.pop();
    }
    ASSERT_EQ(a.avg_fixed(), b.avg_fixed());
  }
  EXPECT_EQ(a.counters().drops, b.counters().drops);
}

// ------------------------------------------------------------------- DRR

Packet flow_pkt(ConnId conn, std::uint32_t size = 500) {
  Packet p = data_pkt(size);
  p.conn = conn;
  return p;
}

TEST(DrrQueue, AlternatesEquallySizedFlows) {
  DrrQueue q(QueueLimit::of(100), DrrParams{500});
  for (int i = 0; i < 3; ++i) q.offer(flow_pkt(0));
  for (int i = 0; i < 3; ++i) q.offer(flow_pkt(1));
  // One quantum covers one packet: strict alternation, not FIFO exhaustion
  // of flow 0.
  std::vector<ConnId> order;
  while (auto p = q.pop()) order.push_back(p->conn);
  const std::vector<ConnId> expect{0, 1, 0, 1, 0, 1};
  EXPECT_EQ(order, expect);
}

TEST(DrrQueue, ByteFairnessAcrossUnequalPacketSizes) {
  // Flow 0 sends 1000-byte packets, flow 1 sends 500-byte packets. Per
  // round-robin cycle each flow earns one 500-byte quantum, so flow 0
  // serves one packet every two cycles and flow 1 one per cycle — equal
  // byte rates.
  DrrQueue q(QueueLimit::of(100), DrrParams{500});
  for (int i = 0; i < 4; ++i) q.offer(flow_pkt(0, 1000));
  for (int i = 0; i < 8; ++i) q.offer(flow_pkt(1, 500));
  std::uint64_t bytes[2] = {0, 0};
  // Drain the first 6 service completions and compare served bytes.
  for (int i = 0; i < 6; ++i) {
    auto p = q.pop();
    ASSERT_TRUE(p.has_value());
    bytes[p->conn] += p->size_bytes;
  }
  EXPECT_EQ(bytes[0], 2000u);
  EXPECT_EQ(bytes[1], 2000u);
}

TEST(DrrQueue, DataAndAcksOfOneConnectionAreDistinctFlows) {
  DrrQueue q(QueueLimit::of(100), DrrParams{500});
  for (int i = 0; i < 2; ++i) q.offer(flow_pkt(0, 500));
  for (int i = 0; i < 2; ++i) {
    Packet a = ack_pkt();
    a.conn = 0;
    q.offer(std::move(a));
  }
  EXPECT_EQ(q.active_flows(), 2u);
}

TEST(DrrQueue, CommittedHeadStableAcrossOffers) {
  // The port peeks front() when it starts transmitting and pops the same
  // packet when the wire time elapses; arrivals in between must not swap
  // the head out from under it.
  DrrQueue q(QueueLimit::of(100), DrrParams{500});
  Packet first = flow_pkt(7);
  first.seq = 1234;
  q.offer(std::move(first));
  const std::uint32_t head_seq = q.front().seq;
  const net::ConnId head_conn = q.front().conn;
  for (int i = 0; i < 10; ++i) q.offer(flow_pkt(i % 3, 100 + 100 * (i % 4)));
  EXPECT_EQ(q.front().seq, head_seq);
  EXPECT_EQ(q.front().conn, head_conn);
  auto p = q.pop();
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->seq, head_seq);
}

TEST(DrrQueue, OverflowStealsFromLongestFlow) {
  // Buffer stealing: flow 0 hogs 3 of 4 slots; a newcomer's arrival is
  // admitted and flow 0's newest packet is evicted instead, so a heavy
  // flow cannot lock lighter flows out of the shared buffer.
  DrrQueue q(QueueLimit::of(4), DrrParams{500});
  for (std::uint32_t s = 0; s < 3; ++s) {
    Packet p = flow_pkt(0);
    p.seq = s;
    ASSERT_TRUE(q.offer(std::move(p)).accepted);
  }
  ASSERT_TRUE(q.offer(flow_pkt(1)).accepted);
  const Packet head_before = q.front();
  const EnqueueResult r = q.offer(flow_pkt(2));
  EXPECT_TRUE(r.accepted);
  ASSERT_TRUE(r.dropped.has_value());
  EXPECT_EQ(r.cause, DropCause::kQueueVictim);
  // The victim is the newest packet of the longest flow (flow 0, seq 2);
  // the committed head is untouched.
  EXPECT_EQ(r.dropped->conn, 0u);
  EXPECT_EQ(r.dropped->seq, 2u);
  EXPECT_EQ(q.front().conn, head_before.conn);
  EXPECT_EQ(q.front().seq, head_before.seq);
  EXPECT_EQ(q.length(), 4u);
  EXPECT_EQ(q.active_flows(), 3u);
}

TEST(DrrQueue, OverflowNeverEvictsCommittedHead) {
  // Limit 1: the lone occupant is the committed head, so the only legal
  // victim is the arrival itself (its own flow is the longest evictable).
  DrrQueue q(QueueLimit::of(1), DrrParams{500});
  Packet head = flow_pkt(0);
  head.seq = 9;
  ASSERT_TRUE(q.offer(std::move(head)).accepted);
  const EnqueueResult r = q.offer(flow_pkt(1));
  ASSERT_TRUE(r.dropped.has_value());
  EXPECT_FALSE(r.accepted);
  // The arrival was never queued, so it reports as a plain arrival drop.
  EXPECT_EQ(r.cause, DropCause::kQueueTail);
  EXPECT_EQ(r.dropped->conn, 1u);
  EXPECT_EQ(q.front().conn, 0u);
  EXPECT_EQ(q.front().seq, 9u);
  EXPECT_EQ(q.length(), 1u);
}

TEST(DrrQueue, CountersConserveUnderChurn) {
  DrrQueue q(QueueLimit::of(5), DrrParams{300});
  std::uint64_t x = 4242;
  for (int i = 0; i < 2000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    if ((x >> 33) % 3 != 0) {
      q.offer(flow_pkt((x >> 35) % 4, 100 + 100 * ((x >> 40) % 5)));
    } else {
      q.pop();
    }
    const QueueCounters& c = q.counters();
    ASSERT_EQ(c.arrivals, c.departures + c.drops + q.length());
    ASSERT_EQ(c.bytes_arrived,
              c.bytes_departed + c.bytes_dropped + q.length_bytes());
  }
  while (q.pop().has_value()) {
  }
  EXPECT_EQ(q.counters().arrivals,
            q.counters().departures + q.counters().drops);
}

// ------------------------------------------------------- declared buffers

// A queue's memory follows what it holds, so a declared buffer far past any
// memory costs nothing at construction: every discipline builds at the
// largest limit a .topo buffer or --buffer can name, and at 2^40, then
// queues, drops nothing and serves in order.
TEST(QueueLimit, HugeDeclaredBuffersConstructAndRun) {
  for (const std::size_t packets :
       {std::numeric_limits<std::size_t>::max(), std::size_t{1} << 40}) {
    for (const QdiscKind kind : {QdiscKind::kDropTail, QdiscKind::kRandomDrop,
                                 QdiscKind::kRed, QdiscKind::kDrr}) {
      for (const bool ecn : {false, true}) {
        if (ecn && kind != QdiscKind::kRed) continue;
        QdiscConfig config;
        config.kind = kind;
        config.limit = QueueLimit::of(packets);
        config.red.ecn = ecn;
        const std::unique_ptr<QueueDiscipline> q = make_qdisc(config, 7);
        SCOPED_TRACE(q->name());
        for (std::uint32_t i = 0; i < 300; ++i) {
          Packet p = data_pkt();
          p.seq = i;
          // RED may mark or drop early; the buffer itself never fills.
          const EnqueueResult r = q->offer(std::move(p));
          if (!r.accepted) {
            EXPECT_EQ(r.cause, DropCause::kQueueEarly);
          }
        }
        std::uint32_t last = 0;
        std::size_t served = 0;
        while (auto p = q->pop()) {
          if (served > 0) {
            EXPECT_GT(p->seq, last);
          }
          last = p->seq;
          ++served;
        }
        EXPECT_EQ(served + q->counters().drops, 300u);
        if (kind != QdiscKind::kRed) {
          EXPECT_EQ(served, 300u);
        }
      }
    }
  }
}

// ------------------------------------------------------ selection surface

TEST(QdiscConfig, MakeQdiscBuildsEveryKind) {
  QdiscConfig c;
  c.limit = QueueLimit::of(10);
  c.kind = QdiscKind::kDropTail;
  EXPECT_STREQ(make_qdisc(c, 1)->name(), "droptail");
  c.kind = QdiscKind::kRandomDrop;
  EXPECT_STREQ(make_qdisc(c, 1)->name(), "randomdrop");
  c.kind = QdiscKind::kRed;
  EXPECT_STREQ(make_qdisc(c, 1)->name(), "red");
  c.red.ecn = true;
  EXPECT_STREQ(make_qdisc(c, 1)->name(), "red-ecn");
  c.kind = QdiscKind::kDrr;
  EXPECT_STREQ(make_qdisc(c, 1)->name(), "drr");
}

TEST(QdiscConfig, ParseNamesRoundTrip) {
  bool ecn = true;
  EXPECT_EQ(parse_qdisc("droptail", &ecn), QdiscKind::kDropTail);
  EXPECT_FALSE(ecn);
  EXPECT_EQ(parse_qdisc("randomdrop"), QdiscKind::kRandomDrop);
  EXPECT_EQ(parse_qdisc("red"), QdiscKind::kRed);
  EXPECT_EQ(parse_qdisc("red-ecn", &ecn), QdiscKind::kRed);
  EXPECT_TRUE(ecn);
  EXPECT_EQ(parse_qdisc("drr"), QdiscKind::kDrr);
  EXPECT_FALSE(parse_qdisc("fifo").has_value());
}

// Property: after any interleaving of pushes and pops, length equals
// pushes_accepted - pops and byte count is consistent.
class QueueConservation : public ::testing::TestWithParam<std::size_t> {};

TEST_P(QueueConservation, LengthAndBytesConsistent) {
  const std::size_t cap = GetParam();
  DropTailQueue q(QueueLimit::of(cap));
  std::size_t accepted = 0, popped = 0;
  std::uint64_t x = 12345;
  for (int i = 0; i < 1000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    if ((x >> 33) % 3 != 0) {
      if (q.offer(data_pkt(100)).accepted) ++accepted;
    } else {
      if (q.pop().has_value()) ++popped;
    }
    ASSERT_EQ(q.length(), accepted - popped);
    ASSERT_EQ(q.length_bytes(), (accepted - popped) * 100);
    ASSERT_LE(q.length(), cap);
  }
}

INSTANTIATE_TEST_SUITE_P(Capacities, QueueConservation,
                         ::testing::Values(1, 2, 5, 20, 1000));

}  // namespace
}  // namespace tcpdyn::net
