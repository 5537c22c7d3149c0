// Byte-identity regression lock for the CongestionControl refactor: the
// strategy-based WindowSender must reproduce the subclass-based senders'
// runs EXACTLY — every counter, every queue statistic, and the full cwnd
// trajectory (hashed bit-for-bit over the raw doubles).
//
// The golden digests below were captured from the pre-refactor tree by a
// one-off harness with the identical digest logic. If an intentional
// behavioral change to Tahoe/Reno/FixedWindow/pacing/delayed-ACK ever
// lands, recapture the digests in the same commit and say why in its
// message; any other diff here is a regression.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>

#include "core/cc_matrix.h"
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

TEST(CcEquivalence, TahoeFig4TwoWay) {
  EXPECT_EQ(run_digest(fig4_twoway(0.01, 20), 20.0, 80.0),
            "c0 sent=743 retx=47 acks=708 dup=5 to=5 dlv=630\n"
            "c1 sent=818 retx=47 acks=773 dup=5 to=5 dlv=590\n"
            "p0 arr=1516 dep=1486 drop=30 ddrop=30 adrop=0 max=20 qn=2894\n"
            "p1 arr=1531 dep=1481 drop=30 ddrop=30 adrop=0 max=20 qn=2925\n"
            "drops=60 cwnd_hash=95319b74048fed15 created=3047 delivered=2967"
            " dropped=60\n");
}

TEST(CcEquivalence, TahoeFig6LargePipe) {
  EXPECT_EQ(run_digest(fig6_twoway(1.0, 20), 20.0, 80.0),
            "c0 sent=509 retx=36 acks=453 dup=2 to=1 dlv=404\n"
            "c1 sent=532 retx=39 acks=484 dup=1 to=1 dlv=389\n"
            "p0 arr=1002 dep=959 drop=29 ddrop=29 adrop=0 max=20 qn=1644\n"
            "p1 arr=995 dep=959 drop=21 ddrop=21 adrop=0 max=20 qn=1640\n"
            "drops=50 cwnd_hash=cb9d4528f22345c3 created=1997 delivered=1893"
            " dropped=50\n");
}

TEST(CcEquivalence, RenoTwoWay) {
  EXPECT_EQ(run_digest(reno_twoway(0.01, 20), 20.0, 80.0),
            "c0 sent=845 retx=49 acks=801 dup=11 to=1 dlv=717\n"
            "c1 sent=921 retx=51 acks=882 dup=13 to=1 dlv=713\n"
            "p0 arr=1729 dep=1684 drop=32 ddrop=32 adrop=0 max=20 qn=3257\n"
            "p1 arr=1723 dep=1685 drop=34 ddrop=34 adrop=0 max=20 qn=3260\n"
            "drops=66 cwnd_hash=bdd31780ecf01ecc created=3452 delivered=3369"
            " dropped=66\n");
}

TEST(CcEquivalence, FixedWindowFig8) {
  EXPECT_EQ(run_digest(fig8_fixed_window(0.01, 30, 25), 20.0, 80.0),
            "c0 sent=1140 retx=0 acks=1110 dup=0 to=0 dlv=923\n"
            "c1 sent=986 retx=0 acks=961 dup=0 to=0 dlv=768\n"
            "p0 arr=2104 dep=2072 drop=0 ddrop=0 adrop=0 max=55 qn=4177\n"
            "p1 arr=2097 dep=2074 drop=0 ddrop=0 adrop=0 max=25 qn=3953\n"
            "drops=0 cwnd_hash=14650fb0739d0383 created=4201 delivered=4146"
            " dropped=0\n");
}

TEST(CcEquivalence, PacedTwoWay) {
  EXPECT_EQ(run_digest(paced_twoway(0.01, 20), 20.0, 80.0),
            "c0 sent=1018 retx=14 acks=997 dup=4 to=4 dlv=863\n"
            "c1 sent=947 retx=12 acks=921 dup=4 to=4 dlv=769\n"
            "p0 arr=1948 dep=1925 drop=18 ddrop=11 adrop=7 max=20 qn=3552\n"
            "p1 arr=1951 dep=1927 drop=11 ddrop=10 adrop=1 max=20 qn=3394\n"
            "drops=29 cwnd_hash=924899999c6501ab created=3899 delivered=3852"
            " dropped=29\n");
}

TEST(CcEquivalence, FourSwitchChain) {
  EXPECT_EQ(run_digest(four_switch_chain(12, 7), 20.0, 80.0),
            "c0 sent=478 retx=62 acks=433 dup=8 to=4 dlv=349\n"
            "c1 sent=365 retx=12 acks=341 dup=4 to=2 dlv=282\n"
            "c2 sent=78 retx=11 acks=61 dup=1 to=4 dlv=54\n"
            "c3 sent=403 retx=24 acks=379 dup=6 to=6 dlv=286\n"
            "c4 sent=327 retx=64 acks=283 dup=5 to=2 dlv=186\n"
            "c5 sent=104 retx=12 acks=87 dup=3 to=3 dlv=81\n"
            "c6 sent=453 retx=58 acks=407 dup=6 to=5 dlv=308\n"
            "c7 sent=314 retx=20 acks=295 dup=5 to=4 dlv=253\n"
            "c8 sent=142 retx=10 acks=127 dup=2 to=3 dlv=114\n"
            "c9 sent=399 retx=60 acks=350 dup=5 to=5 dlv=264\n"
            "c10 sent=262 retx=17 acks=246 dup=4 to=5 dlv=219\n"
            "c11 sent=117 retx=5 acks=95 dup=2 to=1 dlv=104\n"
            "p0 arr=1798 dep=1738 drop=59 ddrop=59 adrop=0 max=30 qn=3350\n"
            "p1 arr=1800 dep=1720 drop=64 ddrop=57 adrop=7 max=30 qn=3296\n"
            "p2 arr=1633 dep=1599 drop=18 ddrop=9 adrop=9 max=30 qn=3023\n"
            "p3 arr=1646 dep=1603 drop=43 ddrop=32 adrop=11 max=30 qn=2938\n"
            "p4 arr=1883 dep=1813 drop=43 ddrop=27 adrop=16 max=30 qn=3498\n"
            "p5 arr=1911 dep=1862 drop=47 ddrop=47 adrop=0 max=30 qn=3514\n"
            "drops=274 cwnd_hash=896bce6ae6f24f76 created=6617 delivered=6279"
            " dropped=274\n");
}

TEST(CcEquivalence, DelayedAckTwoWay) {
  // Digest recaptured when the delayed-ACK receiver was fixed to ACK a
  // duplicate of the most recent in-order segment immediately (RFC 1122
  // dup-ACK clock; see Receiver::on_data). The old digest delayed those
  // ACKs and is intentionally not reproducible.
  EXPECT_EQ(run_digest(delayed_ack_twoway(64, 0.01, 20), 20.0, 80.0),
            "c0 sent=854 retx=28 acks=465 dup=4 to=1 dlv=741\n"
            "c1 sent=973 retx=27 acks=528 dup=5 to=1 dlv=783\n"
            "p0 arr=1382 dep=1367 drop=15 ddrop=15 adrop=0 max=20 qn=2548\n"
            "p1 arr=1444 dep=1413 drop=15 ddrop=13 adrop=2 max=20 qn=2756\n"
            "drops=30 cwnd_hash=1c83a6d51bc4f505 created=2826 delivered=2779"
            " dropped=30\n");
}

// The next three pin the paths that the single queue-discipline and
// controller construction surfaces replaced; they were captured by building
// this test on the tree that still had the old surfaces. They cover random
// drop on the DumbbellParams bottleneck, NewReno and Reno reading Tahoe's
// parameter block next to CUBIC, Vegas and BBR, and the .topo parser's
// randomdrop and RED stanzas.
TEST(CcEquivalence, RandomDropTwoWay) {
  EXPECT_EQ(run_digest(random_drop_twoway(0.01, 20), 20.0, 80.0),
            "c0 sent=713 retx=24 acks=688 dup=7 to=4 dlv=606\n"
            "c1 sent=999 retx=18 acks=966 dup=8 to=3 dlv=776\n"
            "p0 arr=1687 dep=1661 drop=22 ddrop=16 adrop=6 max=20 qn=3241\n"
            "p1 arr=1694 dep=1662 drop=17 ddrop=12 adrop=5 max=20 qn=3183\n"
            "drops=39 cwnd_hash=a5f55a5f4bc2db10 created=3381 delivered=3323"
            " dropped=39\n");
}

TEST(CcEquivalence, CcMixTwoWay) {
  EXPECT_EQ(run_digest(ccmix_twoway({tcp::CcAlgorithm::kNewReno,
                                     tcp::CcAlgorithm::kCubic,
                                     tcp::CcAlgorithm::kVegas,
                                     tcp::CcAlgorithm::kBbr},
                                    4, 0.01, 20),
                       20.0, 80.0),
            "c0 sent=924 retx=63 acks=870 dup=13 to=1 dlv=740\n"
            "c1 sent=282 retx=75 acks=222 dup=10 to=10 dlv=138\n"
            "c2 sent=454 retx=25 acks=427 dup=5 to=5 dlv=393\n"
            "c3 sent=400 retx=182 acks=250 dup=9 to=6 dlv=136\n"
            "p0 arr=1889 dep=1775 drop=106 ddrop=106 adrop=0 max=20 qn=3484\n"
            "p1 arr=1952 dep=1775 drop=170 ddrop=170 adrop=0 max=20 qn=3384\n"
            "drops=276 cwnd_hash=c6f2de750409f852 created=3841 delivered=3550"
            " dropped=276\n");
}

TEST(CcEquivalence, TopoFileZoo) {
  std::istringstream text(
      "host A1\nhost A2\nhost B1\nhost B2\n"
      "switch S1\nswitch S2\nswitch S3\n"
      "link A1 S1 10000000 0.0001 inf inf\n"
      "link A2 S1 10000000 0.0001 inf inf\n"
      "link S1 S2 100000 0.005 20 20 randomdrop\n"
      "link S2 S3 100000 0.005 20 20 red min_th=3 max_th=12\n"
      "link S3 B1 10000000 0.0001 inf inf\n"
      "link S3 B2 10000000 0.0001 inf inf\n"
      "monitor S1 S2\nmonitor S2 S3\nmonitor S3 S2\nmonitor S2 S1\n"
      "flow A1 B1 kind=newreno start=0.3\n"
      "flow A2 B2 kind=cubic start=0.9\n"
      "flow B1 A1 kind=vegas start=1.4\n"
      "flow B2 A2 kind=bbr start=0.6\n"
      "flow A2 B1 kind=reno start=1.1\n");
  EXPECT_EQ(run_digest(make_topo_scenario(parse_topology(text)), 20.0, 80.0),
            "c0 sent=860 retx=73 acks=791 dup=23 to=7 dlv=676\n"
            "c1 sent=713 retx=50 acks=657 dup=20 to=10 dlv=526\n"
            "c2 sent=785 retx=24 acks=716 dup=5 to=5 dlv=667\n"
            "c3 sent=433 retx=196 acks=233 dup=11 to=5 dlv=104\n"
            "c4 sent=917 retx=29 acks=862 dup=17 to=8 dlv=685\n"
            "p0 arr=3516 dep=3304 drop=193 ddrop=121 adrop=72 max=20 qn=6590\n"
            "p1 arr=3304 dep=3303 drop=0 ddrop=0 adrop=0 max=11 qn=4259\n"
            "p2 arr=3572 dep=3337 drop=235 ddrop=192 adrop=43 max=20 qn=6215\n"
            "p3 arr=3337 dep=3337 drop=0 ddrop=0 adrop=0 max=11 qn=5660\n"
            "drops=428 cwnd_hash=384a7df6efbeb5f8 created=7088 delivered=6639"
            " dropped=428\n");
}

// The last five pin factories whose construction moved onto TopoSpec and
// make_topo_scenario; they were captured by building this test on the tree
// that still built them through the dumbbell and chain adapters.
TEST(CcEquivalence, Fig3TenConnections) {
  EXPECT_EQ(run_digest(fig3_ten_connections(30, 5), 20.0, 80.0),
            "c0 sent=172 retx=22 acks=140 dup=1 to=7 dlv=131\n"
            "c1 sent=307 retx=16 acks=286 dup=5 to=5 dlv=242\n"
            "c2 sent=195 retx=28 acks=166 dup=3 to=7 dlv=145\n"
            "c3 sent=182 retx=65 acks=129 dup=1 to=3 dlv=55\n"
            "c4 sent=334 retx=70 acks=282 dup=4 to=5 dlv=199\n"
            "c5 sent=215 retx=20 acks=197 dup=4 to=6 dlv=152\n"
            "c6 sent=260 retx=39 acks=232 dup=4 to=4 dlv=180\n"
            "c7 sent=199 retx=28 acks=175 dup=3 to=5 dlv=159\n"
            "c8 sent=185 retx=35 acks=155 dup=6 to=5 dlv=124\n"
            "c9 sent=252 retx=22 acks=234 dup=4 to=4 dlv=218\n"
            "p0 arr=2190 dep=1998 drop=165 ddrop=165 adrop=0 max=30 qn=3830\n"
            "p1 arr=2115 dep=2003 drop=112 ddrop=111 adrop=1 max=30 qn=3849\n"
            "drops=277 cwnd_hash=e9e10c716dd9c931 created=4305 delivered=4000"
            " dropped=277\n");
}

TEST(CcEquivalence, ZeroAckFixed) {
  EXPECT_EQ(run_digest(zero_ack_fixed(30, 25, 0.01), 20.0, 80.0),
            "c0 sent=1230 retx=0 acks=1200 dup=0 to=0 dlv=1000\n"
            "c1 sent=1061 retx=0 acks=1036 dup=0 to=0 dlv=830\n"
            "p0 arr=2269 dep=2239 drop=0 ddrop=0 adrop=0 max=55 qn=3473\n"
            "p1 arr=2264 dep=2239 drop=0 ddrop=0 adrop=0 max=26 qn=3304\n"
            "drops=0 cwnd_hash=14650fb0739d0383 created=4533 delivered=4478"
            " dropped=0\n");
}

TEST(CcEquivalence, RttHeterogeneity) {
  EXPECT_EQ(run_digest(rtt_heterogeneity(4, 0.16, 0.01, 20), 20.0, 80.0),
            "c0 sent=223 retx=22 acks=199 dup=5 to=11 dlv=114\n"
            "c1 sent=698 retx=39 acks=674 dup=8 to=1 dlv=582\n"
            "c2 sent=113 retx=19 acks=94 dup=3 to=7 dlv=69\n"
            "c3 sent=269 retx=10 acks=250 dup=3 to=4 dlv=223\n"
            "p0 arr=1303 dep=1222 drop=69 ddrop=69 adrop=0 max=20 qn=2437\n"
            "p1 arr=1220 dep=1220 drop=0 ddrop=0 adrop=0 max=2 qn=2414\n"
            "drops=69 cwnd_hash=2733def4fb9916f9 created=2524 delivered=2438"
            " dropped=69\n");
}

TEST(CcEquivalence, IncrementAblationOriginal) {
  EXPECT_EQ(run_digest(increment_ablation(false, 1.0, 20), 20.0, 80.0),
            "c0 sent=289 retx=14 acks=267 dup=2 to=1 dlv=246\n"
            "c1 sent=332 retx=44 acks=296 dup=2 to=1 dlv=237\n"
            "c2 sent=301 retx=32 acks=271 dup=2 to=1 dlv=228\n"
            "p0 arr=922 dep=859 drop=50 ddrop=50 adrop=0 max=20 qn=1521\n"
            "p1 arr=847 dep=847 drop=0 ddrop=0 adrop=0 max=1 qn=1695\n"
            "drops=50 cwnd_hash=e7b3539906c2e3bf created=1769 delivered=1681"
            " dropped=50\n");
}

TEST(CcEquivalence, CcMatrixTahoeCubic) {
  CcMatrixParams p;
  p.algos = {tcp::CcAlgorithm::kTahoe, tcp::CcAlgorithm::kCubic};
  p.warmup_sec = 10.0;
  p.duration_sec = 60.0;
  p.audit = AuditMode::kFull;
  const CcMatrixResult m = run_cc_matrix(p);
  std::ostringstream os;
  print_cc_matrix(os, m);
  os << "events=" << m.events << '\n';
  EXPECT_EQ(os.str(),
            "cc-matrix 2x2\n"
            "row share of forward bottleneck vs column:\n"
            "             tahoe    cubic\n"
            "    tahoe    0.407    0.750\n"
            "    cubic    0.291    0.439\n"
            "jain fairness per cell:\n"
            "             tahoe    cubic\n"
            "    tahoe    0.967    0.800\n"
            "    cubic    0.851    0.986\n"
            "forward utilization per cell:\n"
            "             tahoe    cubic\n"
            "    tahoe    1.000    0.999\n"
            "    cubic    0.999    0.917\n"
            "ledger: created=6951 delivered=6633 dropped=260\n"
            "events=47105\n");
}

}  // namespace
}  // namespace tcpdyn::core
