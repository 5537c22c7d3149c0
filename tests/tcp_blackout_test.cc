// Tahoe under a total link outage: the retransmission timer backs off
// exponentially (Karn), each timer firing retransmits exactly once, and the
// connection recovers through slow start when the link comes back — all
// under the full conservation ledger and checked against the event trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

#include "core/dumbbell.h"
#include "core/experiment.h"
#include "net/fault.h"
#include "net/port.h"
#include "tcp/tahoe.h"

namespace tcpdyn::core {
namespace {

constexpr double kDownSec = 30.0;  // trunk cut
constexpr double kUpSec = 80.0;    // trunk restored (50 s > several RTOs)
constexpr double kEndSec = 140.0;

struct TimeoutRecord {
  double t = 0.0;
  sim::Time rto;             // after this firing's backoff
  int backoff = 0;
  std::uint64_t retransmits = 0;  // counter snapshot at detection
  std::uint64_t data_sent = 0;
};

struct BlackoutRun {
  ExperimentResult result;
  std::vector<TimeoutRecord> timeouts;       // timer firings, any time
  std::vector<std::pair<double, double>> cwnd;  // (t, cwnd) changes
  tcp::SenderCounters counters;
  std::uint32_t snd_una_at_cut = 0;
  std::uint32_t snd_una_final = 0;
  int final_backoff = 0;
  net::FaultCounters fwd_faults;
  std::string trace;
};

BlackoutRun run_blackout() {
  BlackoutRun out;
  Experiment exp;
  exp.set_audit_mode(AuditMode::kFull);
  std::ostringstream trace;
  exp.enable_trace(trace);
  const CompiledTopology h = dumbbell_topology(DumbbellParams{}).compile(exp);

  tcp::ConnectionConfig cfg;
  cfg.id = 0;
  cfg.src_host = h.id("H1");
  cfg.dst_host = h.id("H2");
  tcp::Connection& conn = exp.add_connection(cfg);
  tcp::TahoeCc* tahoe = conn.tahoe();
  tcp::WindowSender& sender = conn.sender();

  sender.hooks().on_loss_detected = [&](sim::Time t, tcp::LossSignal signal) {
    if (signal != tcp::LossSignal::kTimeout) return;
    out.timeouts.push_back({t.sec(), sender.rtt().rto(),
                            sender.rtt().backoff_exponent(),
                            sender.counters().retransmits,
                            sender.counters().data_sent});
  };
  tahoe->on_cwnd_change = [&](sim::Time t, double cwnd, tcp::CcEvent) {
    out.cwnd.push_back({t.sec(), cwnd});
  };

  net::OutputPort* fwd = exp.network().port_between(h.id("S1"), h.id("S2"));
  net::OutputPort* rev = exp.network().port_between(h.id("S2"), h.id("S1"));
  exp.sim().schedule_at(sim::Time::seconds(kDownSec), [&out, &sender, fwd,
                                                       rev] {
    out.snd_una_at_cut = sender.snd_una();
    fwd->set_down_policy(net::DownPolicy::kDiscard);
    rev->set_down_policy(net::DownPolicy::kDiscard);
    fwd->set_link_up(false);
    rev->set_link_up(false);
  });
  exp.sim().schedule_at(sim::Time::seconds(kUpSec), [fwd, rev] {
    fwd->set_link_up(true);
    rev->set_link_up(true);
  });

  // run() throws std::logic_error if the ledger fails to close, so a normal
  // return is itself the conservation assertion for the whole blackout.
  out.result = exp.run(sim::Time::zero(), sim::Time::seconds(kEndSec));
  out.counters = sender.counters();
  out.snd_una_final = sender.snd_una();
  out.final_backoff = sender.rtt().backoff_exponent();
  out.fwd_faults = fwd->fault_counters();
  out.trace = trace.str();
  return out;
}

class TcpBlackoutTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { run = new BlackoutRun(run_blackout()); }
  static void TearDownTestSuite() {
    delete run;
    run = nullptr;
  }
  static BlackoutRun* run;

  // Timer firings inside the outage window.
  static std::vector<TimeoutRecord> blackout_timeouts() {
    std::vector<TimeoutRecord> v;
    for (const auto& r : run->timeouts) {
      if (r.t >= kDownSec && r.t < kUpSec) v.push_back(r);
    }
    return v;
  }
};

BlackoutRun* TcpBlackoutTest::run = nullptr;

TEST_F(TcpBlackoutTest, RtoBacksOffExponentially) {
  const auto firings = blackout_timeouts();
  // 50 s of outage against a 1 s minimum RTO gives several doublings.
  ASSERT_GE(firings.size(), 3u);
  for (std::size_t i = 1; i < firings.size(); ++i) {
    // No RTT samples arrive during the outage, so consecutive firings see
    // the exact doubling (saturating at the 64 s BSD maximum).
    const sim::Time expect =
        std::min(firings[i - 1].rto * 2, sim::Time::seconds(64.0));
    EXPECT_EQ(firings[i].rto, expect) << "firing " << i;
    EXPECT_EQ(firings[i].backoff, firings[i - 1].backoff + 1);
  }
  // The firings are spaced by the (backed-off) timeout, so gaps grow.
  for (std::size_t i = 2; i < firings.size(); ++i) {
    EXPECT_GT(firings[i].t - firings[i - 1].t,
              firings[i - 1].t - firings[i - 2].t);
  }
}

TEST_F(TcpBlackoutTest, ExactlyOneRetransmitPerTimerFiring) {
  const auto firings = blackout_timeouts();
  ASSERT_GE(firings.size(), 3u);
  for (std::size_t i = 1; i < firings.size(); ++i) {
    // Between two firings the only transmission is the single go-back-N
    // resend of snd_una (Karn: the window is 1 and no ACKs arrive).
    EXPECT_EQ(firings[i].retransmits - firings[i - 1].retransmits, 1u)
        << "firing " << i;
    EXPECT_EQ(firings[i].data_sent - firings[i - 1].data_sent, 1u)
        << "firing " << i;
  }
  EXPECT_EQ(run->counters.timeout_losses, run->timeouts.size());
}

TEST_F(TcpBlackoutTest, RecoversThroughSlowStartAfterLinkUp) {
  // The connection made progress again: snd_una advanced past the cut.
  EXPECT_GT(run->snd_una_final, run->snd_una_at_cut);
  EXPECT_GT(run->snd_una_at_cut, 0u);
  // Post-recovery ACKs of fresh (non-retransmitted) data re-sample the RTT,
  // which resets the backoff (Karn's rule only excludes the resends).
  EXPECT_EQ(run->final_backoff, 0);
  // Slow start after the outage: the window reopens from 1 with the 1 -> 2
  // step. (The final backed-off timer may still fire after link-up and
  // re-pin cwnd to 1, so look for the first post-link-up value above 1.)
  auto it = std::find_if(run->cwnd.begin(), run->cwnd.end(),
                         [](const std::pair<double, double>& c) {
                           return c.first >= kUpSec && c.second > 1.0;
                         });
  ASSERT_NE(it, run->cwnd.end());
  EXPECT_DOUBLE_EQ(it->second, 2.0);
}

TEST_F(TcpBlackoutTest, DropsAttributedToTheOutage) {
  // Retransmissions during the outage were rejected at the down trunk.
  EXPECT_GE(run->fwd_faults.drops_down, 2u);
  EXPECT_EQ(run->fwd_faults.drops_wire, 0u);
  // The audit attribution names them: queue + down + fault == total drops.
  const AuditTotals& a = run->result.audit;
  EXPECT_GT(a.drops_down, 0u);
  EXPECT_EQ(a.drops_queue + a.drops_down + a.drops_fault, a.dropped);
  EXPECT_EQ(a.created,
            a.delivered + a.dropped + a.in_queue + a.in_flight);
}

TEST_F(TcpBlackoutTest, EventTraceNamesTheDownDrops) {
  EXPECT_NE(run->trace.find("\"cause\":\"down-arrival\""), std::string::npos);
  // Ordinary buffer overflow still happens outside the outage and keeps its
  // own cause label.
  EXPECT_NE(run->trace.find("\"cause\":\"queue-tail\""), std::string::npos);
  EXPECT_EQ(run->trace.find("\"cause\":\"wire-loss\""), std::string::npos);
}

}  // namespace
}  // namespace tcpdyn::core
