// Fixed-window control: transmits with a constant window and no congestion
// reaction. Used for the paper's disentangling experiments (Figs. 8-9: fixed
// windows of 30 and 25 with infinite buffers) and the §4.3.3 zero-length-ACK
// conjecture sweeps. Loss recovery (go-back-N on dup ACKs / timeout) still
// works, but the window never changes.
#pragma once

#include "tcp/congestion_control.h"

namespace tcpdyn::tcp {

class FixedWindowCc final : public CongestionControl {
 public:
  explicit FixedWindowCc(std::uint32_t fixed_window)
      : window_(fixed_window) {}

  const char* name() const override { return "fixed"; }
  CcAlgorithm algorithm() const override {
    return CcAlgorithm::kFixedWindow;
  }
  double cwnd() const override { return static_cast<double>(window_); }
  // The raw constant, deliberately unclamped: the fixed window IS the
  // experiment parameter (it may exceed maxwnd or be zero).
  std::uint32_t usable_window() const override { return window_; }
  bool adaptive() const override { return false; }

  void on_ack(const AckContext& /*ctx*/) override {}
  void on_dup_ack_loss(sim::Time /*now*/) override {}
  void on_timeout(sim::Time /*now*/) override {}

  std::uint32_t window() const { return window_; }

  // Allows mid-run window changes (used by the §4.3.3 "suddenly increase
  // both windows by one" thought experiment made executable).
  void set_window(std::uint32_t w) {
    const bool grew = w > window_;
    window_ = w;
    // A larger window may allow immediate transmission.
    if (grew) pump();
  }

 private:
  std::uint32_t window_;
};

}  // namespace tcpdyn::tcp
