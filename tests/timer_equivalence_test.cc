// Golden digests for the scheduler's event order. The scheduler keeps
// every pending event in one 4-ary heap under one key comparator, and
// nothing about how it stores them may move an event: every counter, every
// queue statistic, the full cwnd trajectory (hashed over raw double bits)
// and the packet-conservation ledger must stay what they were.
//
// The goldens were captured when the event store was a user-chosen
// backend, and the two stores of that time printed identical digests for
// every scenario here, so they pin the order independently of how the
// heap is built. The workloads cover small and large pending sets:
//   * small (at most 68 events pending): the paper dumbbells (RTO rearm
//     churn, pacing, delayed ACKs) and the chaos dumbbell (fault-plan
//     timers, Gilbert-Elliott losses, long RTO backoff);
//   * large: the 512-flow parking lot, whose RTO re-arms leave tombstones
//     that compaction must drop without reordering the heap;
//   * changing: the 128-session incast churn, whose pending set grows and
//     shrinks as sessions open and close.
// A diff here is a scheduler bug unless a model change explains it;
// recapture in the same commit and say why.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "core/scenarios.h"
#include "core/topo_scenarios.h"

namespace tcpdyn::core {
namespace {

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t hash_double(std::uint64_t h, double d) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(d));
  std::memcpy(&bits, &d, sizeof(bits));
  return fnv1a(h, bits);
}

std::string run_digest(Scenario sc, double warmup, double duration) {
  sc.exp->set_audit_mode(AuditMode::kFull);
  ExperimentResult r =
      sc.exp->run(sim::Time::seconds(warmup), sim::Time::seconds(duration));
  std::string out;
  char buf[256];
  for (const auto& [id, c] : r.senders) {
    std::snprintf(buf, sizeof(buf),
                  "c%u sent=%" PRIu64 " retx=%" PRIu64 " acks=%" PRIu64
                  " dup=%" PRIu64 " to=%" PRIu64 " dlv=%" PRIu64 "\n",
                  id, c.data_sent, c.retransmits, c.acks_received,
                  c.dup_ack_losses, c.timeout_losses, r.delivered.at(id));
    out += buf;
  }
  for (std::size_t i = 0; i < r.ports.size(); ++i) {
    const auto& q = r.ports[i].counters;
    std::snprintf(buf, sizeof(buf),
                  "p%zu arr=%" PRIu64 " dep=%" PRIu64 " drop=%" PRIu64
                  " ddrop=%" PRIu64 " adrop=%" PRIu64 " max=%zu qn=%zu\n",
                  i, q.arrivals, q.departures, q.drops, q.data_drops,
                  q.ack_drops, q.max_length, r.ports[i].queue.size());
    out += buf;
  }
  std::uint64_t h = 1469598103934665603ULL;
  for (const auto& [id, series] : r.cwnd) {
    h = fnv1a(h, id);
    for (const auto& pt : series.points()) {
      h = hash_double(h, pt.time);
      h = hash_double(h, pt.value);
    }
  }
  std::snprintf(buf, sizeof(buf),
                "drops=%zu cwnd_hash=%016" PRIx64 " created=%" PRIu64
                " delivered=%" PRIu64 " dropped=%" PRIu64 "\n",
                r.drops.size(), h, r.audit.created, r.audit.delivered,
                r.audit.dropped);
  out += buf;
  return out;
}

// The pinned form of a digest: an FNV-1a hash over its whole text, then
// its last line (drop count, cwnd hash, audit totals), so every golden is
// one line even for the 512-flow run and a failure still shows which
// totals moved.
std::string pinned(const std::string& digest) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : digest) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  const std::size_t last = digest.rfind('\n', digest.size() - 2);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "text=%016" PRIx64 " ", h);
  return buf + digest.substr(last + 1);
}

TEST(TimerEquivalence, Fig2OneWay) {
  EXPECT_EQ(pinned(run_digest(fig2_one_way(), 20.0, 80.0)),
            "text=645a74318de93fd2 drops=50 cwnd_hash=f00fda7e700783bd"
            " created=1813 delivered=1722 dropped=50\n");
}

TEST(TimerEquivalence, Fig4TwoWay) {
  EXPECT_EQ(pinned(run_digest(fig4_twoway(0.01, 20), 20.0, 80.0)),
            "text=7489e8b40f558de9 drops=60 cwnd_hash=95319b74048fed15"
            " created=3047 delivered=2967 dropped=60\n");
}

TEST(TimerEquivalence, Fig6LargePipe) {
  EXPECT_EQ(pinned(run_digest(fig6_twoway(1.0, 20), 20.0, 80.0)),
            "text=b35680a0f2be156d drops=50 cwnd_hash=cb9d4528f22345c3"
            " created=1997 delivered=1893 dropped=50\n");
}

TEST(TimerEquivalence, PacedTwoWay) {
  // Pacing leans hardest on rearm_at dedup and near-cursor inserts.
  EXPECT_EQ(pinned(run_digest(paced_twoway(0.01, 20), 20.0, 80.0)),
            "text=75f92000f67d0a9c drops=29 cwnd_hash=924899999c6501ab"
            " created=3899 delivered=3852 dropped=29\n");
}

TEST(TimerEquivalence, DelayedAckTwoWay) {
  EXPECT_EQ(pinned(run_digest(delayed_ack_twoway(64, 0.01, 20), 20.0, 80.0)),
            "text=fa5669d7ce9c9af1 drops=30 cwnd_hash=1c83a6d51bc4f505"
            " created=2826 delivered=2779 dropped=30\n");
}

TEST(TimerEquivalence, ParkingLot512Flows) {
  // 512 concurrent flows: wide bucket occupancy, heavy per-ACK RTO rearm.
  ParkingLotParams p;
  EXPECT_EQ(pinned(run_digest(make_topo_scenario(parking_lot_spec(p)),
                              p.warmup_sec, p.duration_sec)),
            "text=ee7f2edc6293206b drops=6664 cwnd_hash=3a6881a0c816322e"
            " created=400930 delivered=374897 dropped=25750\n");
}

TEST(TimerEquivalence, ChaosFaultPlan) {
  // Fault-plan one-shots, Gilbert-Elliott ACK loss, trunk flaps, and long
  // RTO backoff that arms far timers and then cancels them.
  ChaosParams p;
  p.flaps = 2;
  p.flap_period_sec = 30.0;
  p.outage_sec = 1.0;
  p.warmup_sec = 30.0;
  p.duration_sec = 120.0;
  EXPECT_EQ(pinned(run_digest(make_topo_scenario(chaos_spec(p)),
                              p.warmup_sec, p.duration_sec)),
            "text=a82778bcb22d792c drops=405 cwnd_hash=088b3cff7769ba63"
            " created=5921 delivered=5496 dropped=405\n");
}

TEST(TimerEquivalence, IncastChurn) {
  // 128 Poisson sessions from 8 senders: the pending set climbs just past
  // the staging threshold as sessions overlap and falls back as they close.
  IncastParams p;
  p.senders = 8;
  p.flows_per_sender = 16;
  p.arrival_rate = 4.0;
  p.session_sec = 0.5;
  p.warmup_sec = 1.0;
  p.duration_sec = 8.0;
  EXPECT_EQ(pinned(run_digest(make_topo_scenario(incast_spec(p)),
                              p.warmup_sec, p.duration_sec)),
            "text=572f03576102d3a9 drops=169 cwnd_hash=fc9a67c9e14c924c"
            " created=3489 delivered=3320 dropped=169\n");
}

}  // namespace
}  // namespace tcpdyn::core
