// NewReno congestion control (RFC 6582) with SACK-assisted loss recovery
// (RFC 2018 semantics; see tcp/sack.h for the scoreboard).
//
// Outside recovery NewReno is Reno: slow start below ssthresh, the paper's
// modified 1/⌊cwnd⌋ congestion-avoidance increment above it. The difference
// is inside fast recovery, where Reno's single-retransmit design collapses
// when several packets of one window are lost (each loss costs a timeout):
//
//   * wants_sack() — the transport runs scoreboard recovery: the receiver's
//     SACK blocks mark what arrived, each further duplicate ACK retransmits
//     the next hole, and a PARTIAL ACK (one that advances snd_una without
//     reaching the recovery point) retransmits the newly exposed hole
//     immediately instead of waiting for three fresh duplicates.
//   * On a partial ACK the window deflates by the amount acknowledged and
//     re-inflates by one for the retransmission (RFC 6582 §4 step 3), never
//     below ssthresh — recovery continues at the halved rate.
//   * A FULL ACK (covering the recovery point) deflates to ssthresh and
//     resumes congestion avoidance.
//
// SACK reneging is ignored by design: marks only leave the scoreboard when
// the cumulative ACK passes them (tests/tcp_newreno_test.cc locks this in).
#pragma once

#include "tcp/reno.h"

namespace tcpdyn::tcp {

class NewRenoCc final : public TahoeCc {
 public:
  explicit NewRenoCc(TahoeParams params = {}) : TahoeCc(params) {}

  const char* name() const override { return "newreno"; }
  CcAlgorithm algorithm() const override { return CcAlgorithm::kNewReno; }
  bool wants_sack() const override { return true; }

  bool in_recovery() const { return in_recovery_; }

  void on_ack(const AckContext& ctx) override {
    if (ctx.in_recovery) {
      if (ctx.partial) {
        // Partial ACK: deflate by the amount acknowledged, add back one
        // packet for the retransmission the transport performs now, and
        // hold at least ssthresh so recovery keeps its halved rate.
        const double deflated =
            cwnd_ - static_cast<double>(ctx.newly_acked) + 1.0;
        const double floor_w = static_cast<double>(ssthresh_);
        cwnd_ = deflated > floor_w ? deflated : floor_w;
        notify(ctx.now, CcEvent::kAck);
        return;
      }
      // Full ACK: recovery point covered, resume congestion avoidance.
      in_recovery_ = false;
      cwnd_ = static_cast<double>(ssthresh_);
      notify(ctx.now, CcEvent::kRecoveryExit);
      return;
    }
    TahoeCc::on_ack(ctx);
  }

  void on_dup_ack(sim::Time now) override {
    if (!in_recovery_) return;
    // Inflation: each duplicate signals a departure from the network.
    cwnd_ = capped(cwnd_ + 1.0);
    notify(now, CcEvent::kDupAck);
  }

  void on_dup_ack_loss(sim::Time now) override {
    ssthresh_ = halved_ssthresh(cwnd_);
    in_recovery_ = true;
    cwnd_ = static_cast<double>(ssthresh_) + 3.0;
    notify(now, CcEvent::kFastRetransmit);
  }

  void on_timeout(sim::Time now) override {
    // Timeout abandons recovery entirely: slow-start from one packet.
    ssthresh_ = halved_ssthresh(cwnd_);
    in_recovery_ = false;
    cwnd_ = 1.0;
    notify(now, CcEvent::kTimeout);
  }

 private:
  bool in_recovery_ = false;
};

}  // namespace tcpdyn::tcp
