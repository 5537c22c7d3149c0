// Experiment: owns a simulator, a network, and a set of connections, and
// instruments designated ports (queue-length traces, drop events, departure
// order) and all connections (cwnd traces, ACK arrival times at sources).
// Running it produces an ExperimentResult that the analysis layer and the
// bench harnesses consume.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "core/audit.h"
#include "core/event_trace.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "sim/timer.h"
#include "tcp/connection.h"
#include "util/streaming_series.h"
#include "util/time_series.h"

namespace tcpdyn::core {

// One packet drop at a monitored port.
struct DropEvent {
  double time = 0.0;          // seconds
  net::ConnId conn = 0;
  bool data = true;           // false => ACK drop
  std::uint32_t seq = 0;
  std::string port;           // e.g. "S1->S2"
};

// One packet departing (starting transmission at) a monitored port.
struct Departure {
  double time = 0.0;
  net::ConnId conn = 0;
  bool data = true;
};

// Trace of one monitored transmit port.
struct PortTrace {
  std::string name;
  util::TimeSeries queue;     // queue length in packets, event-driven
  double utilization = 0.0;   // busy fraction over the measurement window
  net::QueueCounters counters;
  // Every packet departure in order (data and ACK): the paper's clustering
  // claim is about consecutive queue occupants belonging to one connection,
  // which in two-way traffic mixes one connection's data with the other's
  // ACKs in the same queue.
  std::vector<Departure> departures;
  // Streaming monitor mode: `queue` and `departures` stay empty (memory is
  // independent of run length) and this summary carries the queue
  // statistics instead. `streaming` says which representation is filled.
  bool streaming = false;
  util::StreamingSummary queue_summary;
};

// How monitored ports record their traces. kFull keeps the exact queue
// TimeSeries, every departure, and every drop event — memory grows with run
// length. kStreaming keeps O(1) state per port (util::StreamingSeries) and
// aggregate counters only, so a million-flow run's monitors stay flat.
enum class MonitorMode : std::uint8_t { kFull, kStreaming };

struct ExperimentResult {
  double t_start = 0.0;       // measurement window start (sec)
  double t_end = 0.0;         // measurement window end (sec)
  double data_tx_time = 0.0;  // data-packet transmission time on port 0 (sec)
  std::vector<PortTrace> ports;
  std::vector<DropEvent> drops;                       // at monitored ports
  std::map<net::ConnId, util::TimeSeries> cwnd;       // adaptive senders only
  std::map<net::ConnId, std::vector<double>> ack_arrivals;  // at data sources
  // Accepted RTT measurements per connection: (sample time, rtt), seconds.
  std::map<net::ConnId, std::vector<std::pair<double, double>>> rtt_samples;
  std::map<net::ConnId, tcp::SenderCounters> senders;
  std::map<net::ConnId, std::uint64_t> delivered;     // in-order packets
                                                      // delivered inside the
                                                      // measurement window
  // Conservation-audit totals for the whole run (see core/audit.h). Filled
  // according to the configured AuditMode; zeros when the audit is off.
  AuditTotals audit;
};

class Experiment {
 public:
  Experiment() : net_(sim_) {}
  Experiment(const Experiment&) = delete;
  Experiment& operator=(const Experiment&) = delete;

  sim::Simulator& sim() { return sim_; }
  net::Network& network() { return net_; }

  // Adds a connection (the network's routes must already be computed) and
  // instruments it: cwnd trace for Tahoe senders, ACK-arrival trace at the
  // source host.
  tcp::Connection& add_connection(const tcp::ConnectionConfig& config);

  std::size_t connection_count() const { return conns_.size(); }
  tcp::Connection& connection(std::size_t i) { return *conns_.at(i); }

  // Attaches queue/drop/departure tracing to the transmit port from->to.
  // Ports are reported in ExperimentResult::ports in monitor() call order.
  void monitor(net::NodeId from, net::NodeId to);

  // Selects the monitor representation (default kFull). Must be called
  // before the first monitor() — the recording hooks are chosen per port at
  // monitor() time.
  void set_monitor_mode(MonitorMode mode);
  MonitorMode monitor_mode() const { return monitor_mode_; }

  // When off, add_connection skips the per-flow hooks (cwnd trace, RTT
  // samples, loss events, ACK arrivals at the source host): flows carry
  // aggregate SenderCounters only. The flyweight setting for runs whose
  // flow count makes per-flow traces unaffordable; applies to connections
  // added after the call.
  void set_flow_instrumentation(bool on);
  bool flow_instrumentation() const { return instrument_flows_; }

  // A one-shot timer owned by this experiment, bound to its simulator —
  // the RAII home for scripted interventions (fault plans). References
  // stay valid for the experiment's lifetime.
  sim::Timer& add_timer();
  // Variant bound to an explicit simulator: in sharded runs a fault shot
  // must fire on the clock of the shard owning the port it manipulates.
  sim::Timer& add_timer(sim::Simulator& sim);

  // Strength of the conservation check run() performs (default: kFull in
  // Debug builds, kCounters otherwise). run() throws std::logic_error if
  // the check finds a violation.
  void set_audit_mode(AuditMode mode);
  AuditMode audit_mode() const { return audit_mode_; }

  // Enables the JSONL event trace (see core/event_trace.h) for this run.
  // Must be called before run(). The file variant throws std::runtime_error
  // if the path cannot be opened; the stream variant writes to a
  // caller-owned stream. Tracing forces at least a full-ledger observer.
  void enable_trace(const std::string& path);
  void enable_trace(std::ostream& os);

  // Runs warmup + duration and returns traces/metrics for the measurement
  // window [warmup, warmup + duration]. May be called once per Experiment.
  ExperimentResult run(sim::Time warmup, sim::Time duration);

 private:
  // The sharded engine drives an Experiment through its private surface:
  // it replaces run()'s event loop with barrier rounds over shard
  // simulators but reuses the instrumentation, assembly, and audit
  // machinery unchanged (see core/shard_engine.h).
  friend class ShardedEngine;

  struct MonitoredPort {
    net::OutputPort* port;
    util::TimeSeries queue;
    std::vector<Departure> departures;
    // Streaming mode: fixed-memory stats + a short tail of recent points.
    util::StreamingSeries stream{64};
  };

  void hook_host(net::NodeId host_id);

  // Result assembly shared by run() and the sharded engine: port traces,
  // drops, per-connection series, and window-relative delivery counts.
  // delivered_at_warmup[i] is conns_[i]'s delivery count at the start of
  // the window. Leaves the audit section to close_audit.
  ExperimentResult assemble_result(
      sim::Time warmup, sim::Time end,
      std::span<const std::uint64_t> delivered_at_warmup);

  // Closes the run's conservation books into r.audit, shared by run() and
  // the sharded engine: finalizes `ledger` at `end` when there is one, else
  // runs the counter check in kCounters mode. Throws std::logic_error on a
  // violation — a run whose books don't balance must not produce figures.
  void close_audit(ExperimentResult& r, Audit* ledger, sim::Time end);

  sim::Simulator sim_;
  net::Network net_;
  std::vector<std::unique_ptr<tcp::Connection>> conns_;
  std::vector<std::unique_ptr<MonitoredPort>> monitored_;
  std::vector<DropEvent> drops_;
  std::map<net::ConnId, util::TimeSeries> cwnd_;
  std::map<net::ConnId, std::vector<double>> ack_arrivals_;
  std::map<net::ConnId, std::vector<std::pair<double, double>>> rtt_samples_;
  std::vector<net::NodeId> hooked_hosts_;
  std::deque<sim::Timer> timers_;  // deque: stable references as it grows
  MonitorMode monitor_mode_ = MonitorMode::kFull;
  bool instrument_flows_ = true;
  AuditMode audit_mode_ = kDefaultAuditMode;
  std::unique_ptr<Audit> audit_;
  std::unique_ptr<EventTrace> trace_;
  bool ran_ = false;
};

}  // namespace tcpdyn::core
