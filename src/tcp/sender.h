// WindowSender: the transport machinery shared by every sender in the
// study — sliding-window transmission of an infinite data stream (paper
// §2.2: sources always have data to send), loss detection by duplicate ACKs
// and by a coarse retransmission timer, go-back-N retransmission from the
// last acknowledged packet, Karn-rule RTT sampling, optional pacing, and
// (for controllers that want it) SACK scoreboard recovery.
//
// The window POLICY is a strategy object — tcp::CongestionControl — owned by
// the sender: Tahoe, Reno, NewReno (+SACK), CUBIC, Vegas, or the constant
// window of the paper's disentangling experiments. The transport fires the
// hook contract (on_ack / on_dup_ack / on_dup_ack_loss / on_timeout /
// on_sent) at exactly the points the original subclass-based senders fired
// their virtual handlers, so porting an algorithm onto the interface is
// byte-identical (regression-locked by tests/cc_equivalence_test.cc).
//
// "Nonpaced" operation (the paper's default) means deliver() transmits new
// data synchronously upon processing an ACK. Setting pacing_interval > 0
// (in SenderParams or from the controller) spreads transmissions out
// instead, which is the pacing ablation (E12).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "net/host.h"
#include "net/packet.h"
#include "sim/simulator.h"
#include "sim/timer.h"
#include "tcp/congestion_control.h"
#include "tcp/rtt_estimator.h"
#include "tcp/sack.h"

namespace tcpdyn::tcp {

enum class LossSignal : std::uint8_t { kDupAcks, kTimeout };

struct SenderParams {
  net::ConnId conn = 0;
  net::NodeId self = net::kInvalidNode;  // host where the sender lives
  net::NodeId peer = net::kInvalidNode;  // host where the receiver lives
  std::uint32_t data_bytes = 500;
  std::uint32_t maxwnd = 1000;           // receiver-advertised window
  std::uint32_t dupack_threshold = 3;
  sim::Time pacing_interval = sim::Time::zero();  // 0 => nonpaced
  // ECN (RFC 3168, simplified): data packets carry ECT, an ECE echo on an
  // ACK triggers the controller's on_ecn_echo (at most once per RTT) and the
  // next data packet carries CWR to stop the receiver's echo. Both endpoints
  // of a connection must agree (ConnectionConfig::ecn sets both).
  bool ecn = false;
  RttParams rtt;
};

// Tracing callbacks. Most flows are never traced, so the sender allocates
// this block only when a caller first touches hooks() — at 100k+ flows three
// empty std::functions per sender are real memory.
struct SenderHooks {
  std::function<void(sim::Time, const net::Packet&)> on_send;
  std::function<void(sim::Time, LossSignal)> on_loss_detected;
  // Fired for every accepted RTT measurement (time, rtt). The paper's
  // "effective pipe" — throughput x RTT — is computed from these.
  std::function<void(sim::Time, sim::Time)> on_rtt_sample;
};

struct SenderCounters {
  std::uint64_t data_sent = 0;          // all data transmissions
  std::uint64_t retransmits = 0;        // data_sent that were resends
  std::uint64_t acks_received = 0;
  std::uint64_t dup_ack_losses = 0;     // losses detected via dup ACKs
  std::uint64_t timeout_losses = 0;     // losses detected via timer expiry
  std::uint64_t ecn_reductions = 0;     // once-per-RTT ECE window reductions
};

class WindowSender : public net::PacketSink {
 public:
  WindowSender(sim::Simulator& sim, net::Host& host, SenderParams params,
               std::unique_ptr<CongestionControl> cc);

  // Begins transmitting at absolute time `at` (>= now): schedules
  // start_now() there.
  void start(sim::Time at);
  // Begins transmitting now: the first window leaves at once. A session's
  // arrival event calls it on the sender it has just built.
  void start_now();

  // Stops transmitting at absolute time `at` (>= now): no new data or
  // retransmissions leave after that point and all timers are cancelled.
  // Packets already in flight still propagate (and their ACKs are ignored),
  // so the conservation ledger closes normally.
  void stop(sim::Time at);
  bool stopped() const { return stopped_; }

  // net::PacketSink: handles an arriving ACK.
  void deliver(const net::Packet& ack) override;

  // Usable send window in packets, as the congestion controller dictates.
  // Always >= 1 for adaptive controllers once started.
  std::uint32_t window() const { return cc_->usable_window(); }

  CongestionControl& cc() { return *cc_; }
  const CongestionControl& cc() const { return *cc_; }

  std::uint32_t snd_una() const { return snd_una_; }
  std::uint32_t snd_nxt() const { return snd_nxt_; }
  std::uint32_t outstanding() const { return snd_nxt_ - snd_una_; }
  bool in_sack_recovery() const { return in_sack_recovery_; }
  const SackScoreboard& scoreboard() const;
  const SenderCounters& counters() const { return counters_; }
  const RttEstimator& rtt() const { return rtt_; }
  const SenderParams& params() const { return params_; }

  // Transmits whatever the current window allows. Public so a controller
  // whose window grew outside the ACK path (FixedWindowCc::set_window) can
  // trigger transmission.
  void pump() { send_available(); }

  // Tracing hooks, allocated on first touch. Hot paths fire them only when
  // the block exists.
  SenderHooks& hooks() {
    if (!hooks_) hooks_ = std::make_unique<SenderHooks>();
    return *hooks_;
  }

 protected:
  // Transmits as much as the window allows (subject to pacing).
  void send_available();

  sim::Simulator& sim_;

 private:
  void send_packet(std::uint32_t seq);
  void loss_detected(LossSignal signal);
  void retransmit_next_hole();
  void arm_rto();
  void schedule_paced_send();
  sim::Time effective_pacing_interval() const;

  net::Host& host_;
  SenderParams params_;
  std::unique_ptr<CongestionControl> cc_;
  RttEstimator rtt_;
  SenderCounters counters_;
  bool started_ = false;
  bool stopped_ = false;

  std::uint32_t snd_una_ = 0;   // lowest unacknowledged sequence
  std::uint32_t snd_nxt_ = 0;   // next sequence to transmit
  std::uint32_t high_water_ = 0;  // highest seq ever sent + 1
  std::uint32_t dupacks_ = 0;
  std::uint64_t next_uid_ = 0;

  // ECN once-per-RTT gate: echoes are ignored until the cumulative ACK
  // reaches this sequence (set to snd_nxt at the last reduction, so one
  // full in-flight window must drain first — RFC 3168 §6.1.2). cwr_pending_
  // makes the next data packet carry CWR, which stops the receiver's echo.
  std::uint32_t ecn_react_until_ = 0;
  bool cwr_pending_ = false;

  // SACK recovery state, allocated only when the controller wants SACK
  // (flyweight: most of the zoo doesn't, and at scale the empty scoreboard
  // vector still costs a cache line per flow). Recovery begins at the
  // dup-ACK threshold and ends when the cumulative ACK reaches `recover_`
  // (the highest sequence outstanding when loss was detected — RFC 6582's
  // recovery point). During recovery each further duplicate ACK retransmits
  // the next scoreboard hole; a partial ACK retransmits the new snd_una
  // immediately.
  std::unique_ptr<SackScoreboard> scoreboard_;
  bool in_sack_recovery_ = false;
  std::uint32_t recover_ = 0;
  std::uint32_t sack_retx_high_ = 0;  // everything below this was resent

  // RTT timing (one packet at a time, as BSD does; Karn's rule: timing is
  // abandoned whenever a loss forces retransmission).
  bool timing_ = false;
  std::uint32_t timed_seq_ = 0;
  sim::Time timed_at_;

  sim::Timer rto_timer_;
  // Earliest time the next data packet may leave. The pacing timer's own
  // deadline() tracks what it is armed for, so a pending wakeup whose slot
  // has moved on is re-armed rather than left firing stale (Timer::rearm_at
  // is that dedup).
  sim::Time next_pacing_slot_;
  sim::Timer pacing_timer_;

  std::unique_ptr<SenderHooks> hooks_;
};

}  // namespace tcpdyn::tcp
