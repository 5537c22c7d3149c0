// CongestionControl: the window-policy strategy interface behind every
// sender in the study. The transport machinery (sliding window, loss
// detection, retransmission, RTT sampling, pacing — tcp/sender.h) is shared;
// what varies per algorithm is how the congestion window reacts to the
// events the transport observes. Each reaction is an explicit hook:
//
//   on_ack          — an ACK advanced snd_una (AckContext carries the RTT
//                     sample and SACK-recovery state)
//   on_dup_ack      — a duplicate ACK below/beyond the loss threshold
//   on_dup_ack_loss — the dup-ACK threshold fired (fast retransmit)
//   on_timeout      — the retransmission timer expired
//   on_sent         — a data packet left the sender
//   cwnd            — the continuous congestion window, in packets
//   usable_window   — the integral send window the transport enforces
//   pacing_interval — CC-imposed minimum data-packet spacing (zero =
//                     pure ACK clocking; the rate form is 1/interval)
//
// Determinism contract: hooks may read only their arguments, the CcEnv, and
// their own state — no wall-clock, no global RNG — so a (scenario, seed)
// pair names exactly one trajectory regardless of host, worker count, or
// which other algorithms share the bottleneck. Implementations that need
// time use the sim::Time passed into the hook.
//
// The maxwnd clamps live HERE, once, as shared base helpers (the PR-3
// Tahoe fix): capped() keeps the window accumulator at or below the
// advertised window so a long loss-free stretch cannot inflate it, and
// halved_ssthresh() computes the post-loss threshold
// max(min(w/2, maxwnd), 2). Every controller funnels its loss response
// through these instead of re-implementing the clamp.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "sim/time.h"
#include "util/registry.h"

namespace tcpdyn::tcp {

class WindowSender;

// The algorithm zoo. kFixedWindow is the non-adaptive control used by the
// paper's disentangling experiments (Figs. 8-9).
enum class CcAlgorithm : std::uint8_t {
  kTahoe,
  kReno,
  kNewReno,  // + SACK-based loss recovery
  kCubic,
  kVegas,
  kBbr,      // model-based: paces from a bandwidth×RTT estimate
  kFixedWindow,
};

const char* to_string(CcAlgorithm algo);

// The single name<->algorithm table: powers the --cc flags, .topo `kind=`
// stanzas, sweep grids, --help enumeration, and did-you-mean errors
// (require()). Registration order is presentation order.
const util::Registry<CcAlgorithm>& cc_registry();

// Thin wrapper over cc_registry().find(); nullopt for unknown names.
std::optional<CcAlgorithm> parse_cc(const std::string& name);

// Why a window change fired, for the trace layer's per-algorithm
// cwnd-change attribution.
enum class CcEvent : std::uint8_t {
  kAck,            // ACK of new data opened the window
  kDupAck,         // duplicate-ACK inflation (fast recovery)
  kFastRetransmit, // dup-ACK threshold loss response
  kTimeout,        // RTO loss response
  kRecoveryExit,   // deflation when recovery completes
  kEcnEcho,        // ECE on an ACK: congestion signal without loss
};

const char* to_string(CcEvent ev);

// Read-only per-connection environment, bound once before the first hook.
struct CcEnv {
  std::uint32_t maxwnd = 1000;           // receiver-advertised window
  std::uint32_t dupack_threshold = 3;
};

// Everything an on_ack hook may react to.
struct AckContext {
  sim::Time now;
  std::uint32_t newly_acked = 0;  // packets this ACK advanced snd_una by
  std::uint32_t acked_to = 0;     // the new snd_una
  bool rtt_valid = false;         // an RTT measurement was accepted
  sim::Time rtt;                  // the accepted sample (Karn-filtered)
  // Cumulative delivery accounting, for model/rate-based controllers. With
  // the study's infinite stream and go-back-N retransmission the cumulative
  // ACK *is* the delivery count, so `delivered` equals the new snd_una and
  // `delivered_bytes` its data-byte equivalent; `inflight` is what remains
  // outstanding after this ACK was applied.
  std::uint64_t delivered = 0;        // total data packets delivered so far
  std::uint64_t delivered_bytes = 0;  // total data bytes delivered so far
  std::uint32_t inflight = 0;         // packets outstanding after this ACK
  // SACK-recovery state, maintained by the transport for controllers with
  // wants_sack(). Both false for plain controllers.
  bool in_recovery = false;       // recovery was active when the ACK arrived
  bool partial = false;           // in_recovery && ACK below the recovery
                                  // point (NewReno partial ACK)
};

class CongestionControl {
 public:
  virtual ~CongestionControl() = default;

  virtual const char* name() const = 0;
  virtual CcAlgorithm algorithm() const = 0;

  // Continuous congestion window in packets (the traced quantity). For
  // integer-math controllers this is the whole-packet window.
  virtual double cwnd() const = 0;

  // Usable send window in whole packets: what the transport enforces.
  // Default: max(1, floor(min(cwnd(), maxwnd))). FixedWindow overrides with
  // its raw constant; integer controllers override to stay float-free.
  virtual std::uint32_t usable_window() const { return usable(cwnd()); }

  // False only for the fixed-window control: adaptive connections get cwnd
  // traces and count toward the drops-per-epoch prediction.
  virtual bool adaptive() const { return true; }

  // True when the transport should run SACK scoreboard recovery for this
  // controller (the receiver then emits SACK blocks on its ACKs).
  virtual bool wants_sack() const { return false; }

  // --- event hooks -----------------------------------------------------
  virtual void on_ack(const AckContext& ctx) = 0;
  virtual void on_dup_ack(sim::Time /*now*/) {}
  virtual void on_dup_ack_loss(sim::Time now) = 0;
  virtual void on_timeout(sim::Time now) = 0;
  // An ECN echo (ECE) arrived on an ACK. The transport gates this to at
  // most once per RTT (RFC 3168 §6.1.2), so implementations react
  // unconditionally — typically like a loss response, minus retransmission.
  // Default no-op: non-ECN controllers (FixedWindow) ignore the signal.
  virtual void on_ecn_echo(sim::Time /*now*/) {}
  virtual void on_sent(sim::Time /*now*/, std::uint32_t /*seq*/,
                       std::uint32_t /*size_bytes*/, bool /*retransmit*/) {}

  // CC-imposed minimum spacing between data packets; zero means the
  // algorithm is purely ACK-clocked. The transport honors
  // max(SenderParams::pacing_interval, pacing_interval()).
  virtual sim::Time pacing_interval() const { return sim::Time::zero(); }

  // Fired by implementations whenever the window changes; the experiment
  // layer records the trace and attributes the change to (algorithm, event).
  std::function<void(sim::Time, double, CcEvent)> on_cwnd_change;

  // Bound by WindowSender before start; hooks may call pump() afterwards.
  void bind(WindowSender* sender, const CcEnv& env) {
    sender_ = sender;
    env_ = env;
  }
  const CcEnv& env() const { return env_; }

 protected:
  // The shared maxwnd clamps (see the header comment).
  double capped(double w) const {
    const double m = static_cast<double>(env_.maxwnd);
    return w < m ? w : m;
  }
  std::uint32_t capped_u32(std::uint32_t w) const {
    return w < env_.maxwnd ? w : env_.maxwnd;
  }
  std::uint32_t halved_ssthresh(double w) const {
    const double capped_half = capped(w / 2.0);
    const auto t = static_cast<std::uint32_t>(capped_half);
    return t > 2u ? t : 2u;
  }
  std::uint32_t halved_ssthresh_u32(std::uint32_t w) const {
    const std::uint32_t t = capped_u32(w / 2);
    return t > 2u ? t : 2u;
  }
  // Usable-window projection of a continuous window.
  std::uint32_t usable(double w) const {
    const double clamped = capped(w);
    const auto floored = static_cast<std::uint32_t>(clamped);
    return floored > 1u ? floored : 1u;
  }

  void notify(sim::Time t, CcEvent why) {
    if (on_cwnd_change) on_cwnd_change(t, cwnd(), why);
  }

  // Asks the transport to transmit whatever the (possibly just-grown)
  // window now allows. Used by FixedWindow's mid-run set_window.
  void pump();

 private:
  WindowSender* sender_ = nullptr;
  CcEnv env_;
};

// --- the zoo's parameter blocks -----------------------------------------

// Tahoe's block, shared by Reno and NewReno: they are Tahoe with a
// different loss recovery and start and grow the same way.
struct TahoeParams {
  double initial_cwnd = 1.0;
  std::uint32_t initial_ssthresh = UINT32_MAX;  // effectively unbounded
  // Paper §2.1: use cwnd += 1/⌊cwnd⌋ instead of 1/cwnd in congestion
  // avoidance, so that the window grows by one packet per epoch exactly.
  bool modified_ca_increment = true;
};

struct CubicParams {
  std::uint32_t initial_cwnd = 2;
  std::uint32_t initial_ssthresh = UINT32_MAX;
  // beta and C in 1/1024 units (Linux bictcp constants: 0.7 and 0.4).
  std::uint32_t beta_1024 = 717;
  std::uint32_t c_1024 = 410;
  bool fast_convergence = true;
};

struct VegasParams {
  double initial_cwnd = 2.0;
  std::uint32_t initial_ssthresh = UINT32_MAX;
  // Per-RTT backlog thresholds, in packets queued at the bottleneck.
  std::uint32_t alpha = 2;   // below: grow by one
  std::uint32_t beta = 4;    // above: shrink by one
  std::uint32_t gamma = 1;   // slow-start exit threshold
};

struct BbrParams {
  std::uint32_t initial_cwnd = 4;
  std::uint32_t min_cwnd = 4;           // ProbeRTT / post-timeout floor
  // Windowed-max bandwidth filter length, in packet-timed rounds (~RTTs).
  std::uint32_t bw_window_rounds = 10;
  // Startup exits when the bandwidth estimate fails to grow by >= 25% for
  // this many consecutive rounds (the full-pipe plateau test).
  std::uint32_t startup_full_bw_rounds = 3;
  // Windowed-min RTT filter length and the ProbeRTT dwell once inflight has
  // drained to min_cwnd.
  sim::Time min_rtt_window = sim::Time::seconds(10.0);
  sim::Time probe_rtt_duration = sim::Time::milliseconds(200);
};

// The controller choice, declared once: tcp::ConnectionConfig and
// core::ConnSpec derive from it, so a flow spec, a connection and the
// factory read the same fields. Each block is read only by its kind.
struct CcConfig {
  CcAlgorithm kind = CcAlgorithm::kTahoe;
  std::uint32_t fixed_window = 10;  // kFixedWindow
  TahoeParams tahoe;                // kTahoe, kReno, kNewReno
  CubicParams cubic;                // kCubic
  VegasParams vegas;                // kVegas
  BbrParams bbr;                    // kBbr
};

// Builds the controller `config.kind` names.
std::unique_ptr<CongestionControl> make_congestion_control(
    const CcConfig& config);

}  // namespace tcpdyn::tcp
