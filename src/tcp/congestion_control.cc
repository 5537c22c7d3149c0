#include "tcp/congestion_control.h"

#include "tcp/cc_bbr.h"
#include "tcp/cc_cubic.h"
#include "tcp/cc_newreno.h"
#include "tcp/cc_vegas.h"
#include "tcp/fixed_window.h"
#include "tcp/reno.h"
#include "tcp/sender.h"
#include "tcp/tahoe.h"

namespace tcpdyn::tcp {

const char* to_string(CcAlgorithm algo) {
  switch (algo) {
    case CcAlgorithm::kTahoe: return "tahoe";
    case CcAlgorithm::kReno: return "reno";
    case CcAlgorithm::kNewReno: return "newreno";
    case CcAlgorithm::kCubic: return "cubic";
    case CcAlgorithm::kVegas: return "vegas";
    case CcAlgorithm::kBbr: return "bbr";
    case CcAlgorithm::kFixedWindow: return "fixed";
  }
  return "?";
}

const util::Registry<CcAlgorithm>& cc_registry() {
  static const util::Registry<CcAlgorithm> reg = [] {
    util::Registry<CcAlgorithm> r;
    r.add("tahoe", CcAlgorithm::kTahoe,
          "slow start + congestion avoidance, retransmit on loss (the paper's"
          " sender)")
        .add("reno", CcAlgorithm::kReno,
             "Tahoe + fast recovery (halve, don't collapse, on dup-ACK loss)")
        .add("newreno", CcAlgorithm::kNewReno,
             "Reno + partial-ACK retransmit and SACK-based loss recovery")
        .add("cubic", CcAlgorithm::kCubic,
             "cubic window growth anchored at the last loss point")
        .add("vegas", CcAlgorithm::kVegas,
             "delay-based: backs off on rising RTT before losses occur")
        .add("bbr", CcAlgorithm::kBbr,
             "model-based: paces from a bandwidth x RTT-min estimate")
        .add("fixed", CcAlgorithm::kFixedWindow,
             "constant window, no congestion reaction (Figs. 8-9 control)");
    return r;
  }();
  return reg;
}

std::optional<CcAlgorithm> parse_cc(const std::string& name) {
  const CcAlgorithm* v = cc_registry().find(name);
  if (v == nullptr) return std::nullopt;
  return *v;
}

const char* to_string(CcEvent ev) {
  switch (ev) {
    case CcEvent::kAck: return "ack";
    case CcEvent::kDupAck: return "dup-ack";
    case CcEvent::kFastRetransmit: return "fast-retransmit";
    case CcEvent::kTimeout: return "timeout";
    case CcEvent::kRecoveryExit: return "recovery-exit";
    case CcEvent::kEcnEcho: return "ecn-echo";
  }
  return "?";
}

void CongestionControl::pump() {
  if (sender_ != nullptr) sender_->pump();
}

std::unique_ptr<CongestionControl> make_congestion_control(
    const CcConfig& config) {
  switch (config.kind) {
    case CcAlgorithm::kTahoe:
      return std::make_unique<TahoeCc>(config.tahoe);
    case CcAlgorithm::kReno:
      return std::make_unique<RenoCc>(config.tahoe);
    case CcAlgorithm::kNewReno:
      return std::make_unique<NewRenoCc>(config.tahoe);
    case CcAlgorithm::kCubic:
      return std::make_unique<CubicCc>(config.cubic);
    case CcAlgorithm::kVegas:
      return std::make_unique<VegasCc>(config.vegas);
    case CcAlgorithm::kBbr:
      return std::make_unique<BbrCc>(config.bbr);
    case CcAlgorithm::kFixedWindow:
      return std::make_unique<FixedWindowCc>(config.fixed_window);
  }
  return nullptr;
}

}  // namespace tcpdyn::tcp
