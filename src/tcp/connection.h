// Connection: wires a sender endpoint on one host to a receiver endpoint on
// another, per the paper's model of pre-established TCP connections with an
// infinite amount of data to send (no SYN/FIN exchange is simulated).
//
// The congestion controller is the CcConfig a ConnectionConfig derives from
// (the CcAlgorithm zoo: tahoe|reno|newreno|cubic|vegas|bbr|fixed);
// mixed-algorithm experiments just add connections with different kinds to
// one Experiment.
#pragma once

#include <memory>

#include "net/network.h"
#include "tcp/cc_bbr.h"
#include "tcp/cc_cubic.h"
#include "tcp/cc_newreno.h"
#include "tcp/cc_vegas.h"
#include "tcp/congestion_control.h"
#include "tcp/fixed_window.h"
#include "tcp/receiver.h"
#include "tcp/reno.h"
#include "tcp/sender.h"
#include "tcp/tahoe.h"

namespace tcpdyn::tcp {

struct ConnectionConfig : CcConfig {
  net::ConnId id = 0;
  net::NodeId src_host = net::kInvalidNode;  // data source
  net::NodeId dst_host = net::kInvalidNode;  // data sink / ACK source
  std::uint32_t data_bytes = 500;            // paper: 500-byte data packets
  std::uint32_t ack_bytes = 50;              // paper: 50-byte ACKs
  std::uint32_t maxwnd = 1000;               // paper: never binding
  std::uint32_t dupack_threshold = 3;
  bool delayed_ack = false;
  // ECN negotiation: both endpoints get the flag, so data carries ECT, an
  // AQM mark becomes an ECE echo, and the controller's on_ecn_echo fires.
  bool ecn = false;
  sim::Time pacing_interval = sim::Time::zero();
  sim::Time start_time = sim::Time::zero();
  sim::Time stop_time = sim::Time::zero();   // zero = transmit forever
  RttParams rtt;
};

// The two endpoints' halves of a connection's configuration. `sack` says
// whether the sender's controller runs scoreboard recovery, which the
// receiver then supports with SACK blocks (both ends negotiate the option).
SenderParams sender_params(const ConnectionConfig& config);
ReceiverParams receiver_params(const ConnectionConfig& config, bool sack);

class Connection {
 public:
  // Creates both endpoints and schedules the sender's start. The network's
  // routes must already be computed.
  Connection(net::Network& network, ConnectionConfig config);

  const ConnectionConfig& config() const { return config_; }
  WindowSender& sender() { return *sender_; }
  const WindowSender& sender() const { return *sender_; }
  Receiver& receiver() { return *receiver_; }

  // The connection's congestion controller (never null).
  CongestionControl& cc() { return sender_->cc(); }
  const CongestionControl& cc() const { return sender_->cc(); }
  CcAlgorithm algorithm() const { return sender_->cc().algorithm(); }

  // Typed controller accessors: null unless the connection runs that
  // algorithm.
  TahoeCc* tahoe();
  RenoCc* reno();
  NewRenoCc* newreno();
  CubicCc* cubic();
  VegasCc* vegas();
  BbrCc* bbr();
  FixedWindowCc* fixed();

 private:
  ConnectionConfig config_;
  std::unique_ptr<WindowSender> sender_;
  std::unique_ptr<Receiver> receiver_;
};

}  // namespace tcpdyn::tcp
