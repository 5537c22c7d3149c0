// BSD 4.3-Reno congestion control: Tahoe plus fast recovery (Jacobson's
// Tahoe -> Reno evolution, reference [7] of the paper). On the third
// duplicate ACK the sender retransmits, halves the window to
// ssthresh = max(min(cwnd/2, maxwnd), 2), and instead of collapsing to
// cwnd = 1 it inflates: cwnd = ssthresh + 3, +1 per further duplicate ACK
// (each duplicate signals a departure from the network), deflating back to
// ssthresh when new data is acknowledged. Timeouts still slow-start from 1.
//
// The paper conjectures that ACK-compression and the synchronization modes
// afflict ANY nonpaced window-based algorithm; RenoCc exists to test that
// conjecture (bench_reno_twoway) — Reno changes the loss response, not the
// ACK-triggered transmission pattern, so the phenomena should persist.
#pragma once

#include "tcp/tahoe.h"

namespace tcpdyn::tcp {

class RenoCc : public TahoeCc {
 public:
  explicit RenoCc(TahoeParams params = {}) : TahoeCc(params) {}

  const char* name() const override { return "reno"; }
  CcAlgorithm algorithm() const override { return CcAlgorithm::kReno; }

  bool in_fast_recovery() const { return in_fast_recovery_; }

  void on_ack(const AckContext& ctx) override {
    if (in_fast_recovery_) {
      // Deflate: the retransmission was acknowledged; resume congestion
      // avoidance from the halved window.
      in_fast_recovery_ = false;
      cwnd_ = static_cast<double>(ssthresh_);
      notify(ctx.now, CcEvent::kRecoveryExit);
      return;
    }
    TahoeCc::on_ack(ctx);
  }

  void on_dup_ack(sim::Time now) override {
    if (!in_fast_recovery_) return;
    // Each additional duplicate ACK signals a packet has left the network;
    // inflate so new data can be clocked out during recovery.
    cwnd_ = capped(cwnd_ + 1.0);
    notify(now, CcEvent::kDupAck);
  }

  void on_dup_ack_loss(sim::Time now) override {
    // Fast recovery: halve plus the three duplicates already seen.
    ssthresh_ = halved_ssthresh(cwnd_);
    in_fast_recovery_ = true;
    cwnd_ = static_cast<double>(ssthresh_) + 3.0;
    notify(now, CcEvent::kFastRetransmit);
  }

  void on_timeout(sim::Time now) override {
    // Timeout: slow-start from scratch, as in Tahoe.
    ssthresh_ = halved_ssthresh(cwnd_);
    in_fast_recovery_ = false;
    cwnd_ = 1.0;
    notify(now, CcEvent::kTimeout);
  }

 protected:
  bool in_fast_recovery_ = false;
};

}  // namespace tcpdyn::tcp
