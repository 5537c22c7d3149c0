// Experiment: owns a simulator, a network, and a set of flows, and
// instruments designated ports (queue-length traces, drop events, departure
// order) and all flows (cwnd traces, ACK arrival times at sources). A flow
// is a closed connection, built at setup, or a session of an open-loop
// Poisson spec, whose endpoints exist only while it runs (DESIGN.md §13.4).
// Running it produces an ExperimentResult that the analysis layer and the
// bench harnesses consume.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/audit.h"
#include "core/conn_spec.h"
#include "core/event_trace.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "sim/timer.h"
#include "tcp/connection.h"
#include "util/rng.h"
#include "util/streaming_series.h"
#include "util/time_series.h"

namespace tcpdyn::core {

// warmup + duration, the end of a run. Throws std::invalid_argument naming
// both when the sum breaks util::ValueKind kDelay's rule (0 <= s < 9.2e9),
// past which sim::Time's nanoseconds overflow.
sim::Time run_end(sim::Time warmup, sim::Time duration);

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

// The record of one declared flow, kept for the whole run whether or not
// its endpoints still exist; ExperimentResult::senders and ::delivered are
// read from it. In a sharded run the source half is written only on the
// source host's shard and the destination half only on the destination
// host's.
struct FlowRecord {
  net::ConnId id = 0;
  net::NodeId dst = net::kInvalidNode;
  tcp::Connection* connection = nullptr;  // a closed flow's endpoints
  // --- source half ---------------------------------------------------
  // When the flow starts and stops sending (stop zero: never). A session's
  // are set when it arrives, and after the run also for the sessions it
  // ended before, at the times their spec's stream drew for them.
  sim::Time start;
  sim::Time stop;
  std::unique_ptr<tcp::WindowSender> sender;  // a session, while it runs
  tcp::SenderCounters sent;                   // a session, once it stopped
  // --- destination half ----------------------------------------------
  std::unique_ptr<tcp::Receiver> receiver;  // a session, from its first data
  std::uint64_t delivered_at_warmup = 0;    // in-order count at warmup
};

class Experiment {
 public:
  Experiment() : net_(sim_) {}
  Experiment(const Experiment&) = delete;
  Experiment& operator=(const Experiment&) = delete;

  sim::Simulator& sim() { return sim_; }
  net::Network& network() { return net_; }

  // Adds a closed connection (the network's routes must already be
  // computed) and instruments it: cwnd trace for adaptive senders, ACK
  // arrival trace at the source host.
  tcp::Connection& add_connection(const tcp::ConnectionConfig& config);

  // Declares the spec.count sessions of an open-loop spec
  // (spec.arrival_rate > 0) from `src` to `dst`, with ids flow_count()
  // onwards. Only the spec's next arrival is pending: a session's sender
  // is built when it arrives and freed when it stops, and its receiver is
  // built by the destination host when the first data packet lands. Each
  // arrival and stop runs at the key it would have had as a connection
  // added here, because its ties are reserved from the source host's
  // context now.
  void add_sessions(const ConnSpec& spec, net::NodeId src, net::NodeId dst);

  // The closed connections, in add order; sessions are not among them.
  std::size_t connection_count() const { return conns_.size(); }
  tcp::Connection& connection(std::size_t i) { return *conns_.at(i); }

  // Every declared flow, closed or session, in declaration order.
  std::size_t flow_count() const { return flows_.size(); }
  const FlowRecord& flow(std::size_t i) const { return flows_.at(i); }
  // Room for `n` records in all, so a large declaration grows the table
  // once.
  void reserve_flows(std::size_t n);

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

  // One open-loop spec's sessions: what they share and the chain of
  // arrivals, of which only the next is pending. Its events key under the
  // source host's context with ties reserved at setup: session j's arrival
  // takes first_tie + ties_each * j and its stop the tie after.
  struct SessionSource {
    SessionSource() = default;
    SessionSource(const SessionSource&) = delete;  // events hold its address
    SessionSource& operator=(const SessionSource&) = delete;

    tcp::ConnectionConfig config;  // every session's, but id and times
    std::size_t first = 0;         // flows_ index (and id) of session 0
    std::size_t count = 0;
    sim::Time session;  // each session's length; zero: config.stop_time
    double rate = 0.0;
    net::Host* host = nullptr;      // the source host
    sim::Simulator* sim = nullptr;  // the source host's
    std::uint64_t birth = 0;  // setup clock (ns), every key's birth time
    std::uint64_t first_tie = 0;
    std::uint64_t ties_each = 1;  // 2 when sessions stop
    // The controller's facts, read once from a prototype.
    bool sack = false;
    bool adaptive = false;
    double initial_cwnd = 0.0;
    bool traced = false;  // per-flow traces were on when declared
    // The chain, advanced on the source host's shard: the pending
    // arrival's session index and its accumulated Poisson gaps.
    util::Rng rng{0};
    std::size_t next = 0;
    double arrival_sec = 0.0;
  };

  void hook_host(net::NodeId host_id);
  // The trace entries of an instrumented flow, made at setup so no shared
  // map grows during the run. The recorders attach to its sender when the
  // sender is built.
  void declare_traces(net::ConnId id, bool adaptive);
  void trace_sender(tcp::WindowSender& sender, net::ConnId id);

  // The session chain. An arrival stamps its record, builds and starts its
  // sender, schedules its own stop and the next arrival; a stop folds the
  // sender's counters into the record and frees it. stamp_arrival sets the
  // pending arrival's times (and, traced, its first cwnd point);
  // draw_next_arrival moves the chain on and is false past the last.
  FlowRecord& stamp_arrival(SessionSource& s);
  bool draw_next_arrival(SessionSource& s);
  void schedule_arrival(SessionSource& s);
  void schedule_stop(SessionSource& s, std::size_t j, sim::Time at);
  void arrive(SessionSource& s);
  void retire(SessionSource& s, std::size_t j);
  // The demux miss at a session's hosts: the destination builds the
  // receiver at the first data packet, and an ACK for a retired sender is
  // ignored. Null for a packet of no session.
  const SessionSource* source_of(net::ConnId id) const;
  net::PacketSink* session_endpoint(const net::Packet& p);
  // After the run: stamps the sessions it ended before.
  void finish_sessions();

  // A flow's counters and in-order delivery count, wherever they live now.
  static const tcp::SenderCounters& counters(const FlowRecord& f);
  static std::uint64_t next_expected(const FlowRecord& f);

  // Result assembly shared by run() and the sharded engine: port traces,
  // drops, per-flow series, and window-relative delivery counts from the
  // records. Leaves the audit section to close_audit.
  ExperimentResult assemble_result(sim::Time warmup, sim::Time end);

  // Closes the run's conservation books into r.audit, shared by run() and
  // the sharded engine: finalizes `ledger` at `end` when there is one, else
  // runs the counter check in kCounters mode. Throws std::logic_error on a
  // violation — a run whose books don't balance must not produce figures.
  void close_audit(ExperimentResult& r, Audit* ledger, sim::Time end);

  sim::Simulator sim_;
  net::Network net_;
  std::vector<std::unique_ptr<tcp::Connection>> conns_;
  std::vector<FlowRecord> flows_;  // sized at setup, never during the run
  std::deque<SessionSource> sessions_;  // deque: events hold references
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
