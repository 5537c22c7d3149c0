#include "tcp/connection.h"

namespace tcpdyn::tcp {

Connection::Connection(net::Network& network, ConnectionConfig config)
    : config_(config) {
  SenderParams sp;
  sp.conn = config.id;
  sp.self = config.src_host;
  sp.peer = config.dst_host;
  sp.data_bytes = config.data_bytes;
  sp.maxwnd = config.maxwnd;
  sp.dupack_threshold = config.dupack_threshold;
  sp.pacing_interval = config.pacing_interval;
  sp.ecn = config.ecn;
  sp.rtt = config.rtt;

  auto& src = network.host(config.src_host);
  auto& dst = network.host(config.dst_host);

  sender_ = std::make_unique<WindowSender>(network.sim_for(config.src_host),
                                           src, sp,
                                           make_congestion_control(config));

  ReceiverParams rp;
  rp.conn = config.id;
  rp.self = config.dst_host;
  rp.peer = config.src_host;
  rp.ack_bytes = config.ack_bytes;
  rp.delayed_ack = config.delayed_ack;
  rp.ecn = config.ecn;
  // The receiver advertises SACK blocks exactly when the sender's
  // controller runs scoreboard recovery (both ends negotiate the option).
  rp.sack = sender_->cc().wants_sack();
  receiver_ =
      std::make_unique<Receiver>(network.sim_for(config.dst_host), dst, rp);

  // The start/stop events are the only ones a connection schedules at
  // setup. They key under the source host's context, and the sender's first
  // window inherits it, whether or not the receiver shares the simulator —
  // so the key stream is the same at every shard count. Setup code after
  // this keys under the engine context again.
  sim::Simulator& ssim = network.sim_for(config.src_host);
  ssim.set_det_context(src.det_context());
  sender_->start(config.start_time);
  if (config.stop_time > sim::Time::zero()) {
    sender_->stop(config.stop_time);
  }
  ssim.activate_engine_context();
}

TahoeCc* Connection::tahoe() {
  return config_.kind == CcAlgorithm::kTahoe
             ? static_cast<TahoeCc*>(&sender_->cc())
             : nullptr;
}

RenoCc* Connection::reno() {
  return config_.kind == CcAlgorithm::kReno
             ? static_cast<RenoCc*>(&sender_->cc())
             : nullptr;
}

NewRenoCc* Connection::newreno() {
  return config_.kind == CcAlgorithm::kNewReno
             ? static_cast<NewRenoCc*>(&sender_->cc())
             : nullptr;
}

CubicCc* Connection::cubic() {
  return config_.kind == CcAlgorithm::kCubic
             ? static_cast<CubicCc*>(&sender_->cc())
             : nullptr;
}

VegasCc* Connection::vegas() {
  return config_.kind == CcAlgorithm::kVegas
             ? static_cast<VegasCc*>(&sender_->cc())
             : nullptr;
}

BbrCc* Connection::bbr() {
  return config_.kind == CcAlgorithm::kBbr
             ? static_cast<BbrCc*>(&sender_->cc())
             : nullptr;
}

FixedWindowCc* Connection::fixed() {
  return config_.kind == CcAlgorithm::kFixedWindow
             ? static_cast<FixedWindowCc*>(&sender_->cc())
             : nullptr;
}

}  // namespace tcpdyn::tcp
