#include "core/experiment.h"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <stdexcept>

#include "util/value.h"

namespace tcpdyn::core {

sim::Time run_end(sim::Time warmup, sim::Time duration) {
  using util::ValueKind;
  if (!util::fits(ValueKind::kDelay, warmup.sec() + duration.sec())) {
    std::ostringstream got;
    got << warmup.sec() << " + " << duration.sec();
    throw util::rejection(ValueKind::kDelay, "warmup + duration", got.str());
  }
  return warmup + duration;
}

void Experiment::hook_host(net::NodeId host_id) {
  if (std::find(hooked_hosts_.begin(), hooked_hosts_.end(), host_id) !=
      hooked_hosts_.end()) {
    return;
  }
  hooked_hosts_.push_back(host_id);
  net_.host(host_id).on_deliver = [this](sim::Time t, const net::Packet& p) {
    if (net::is_ack(p)) ack_arrivals_[p.conn].push_back(t.sec());
  };
}

tcp::Connection& Experiment::add_connection(
    const tcp::ConnectionConfig& config) {
  if (ran_) throw std::logic_error("Experiment already ran");
  conns_.push_back(std::make_unique<tcp::Connection>(net_, config));
  tcp::Connection& conn = *conns_.back();
  if (!instrument_flows_) return conn;  // flyweight: counters only

  // cwnd trace (adaptive controllers only): seed with the initial value at
  // start time so the step function is defined from the beginning. Every
  // change is attributed to (algorithm, event) in the JSONL trace.
  tcp::CongestionControl& cc = conn.cc();
  if (cc.adaptive()) {
    cwnd_[config.id].record(config.start_time.sec(), cc.cwnd());
    cc.on_cwnd_change = [this, id = config.id, algo = cc.name()](
                            sim::Time t, double w, tcp::CcEvent why) {
      cwnd_[id].record(t.sec(), w);
      if (trace_) trace_->cwnd_change(t, id, w, algo, tcp::to_string(why));
    };
  }
  conn.sender().hooks().on_rtt_sample = [this, id = config.id](sim::Time t,
                                                       sim::Time rtt) {
    rtt_samples_[id].emplace_back(t.sec(), rtt.sec());
  };
  conn.sender().hooks().on_loss_detected = [this, id = config.id](
                                       sim::Time t, tcp::LossSignal signal) {
    if (trace_ && signal == tcp::LossSignal::kTimeout) trace_->rto(t, id);
  };
  // ACK arrival instrumentation lives on the source host.
  hook_host(config.src_host);
  ack_arrivals_.try_emplace(config.id);
  return conn;
}

void Experiment::monitor(net::NodeId from, net::NodeId to) {
  if (ran_) throw std::logic_error("Experiment already ran");
  net::OutputPort* port = net_.port_between(from, to);
  if (port == nullptr) {
    throw std::logic_error("monitor: no link between the given nodes");
  }
  port->enable_busy_record();  // needed for the utilization report
  auto mp = std::make_unique<MonitoredPort>();
  mp->port = port;
  auto* raw = mp.get();
  if (monitor_mode_ == MonitorMode::kStreaming) {
    // O(1) per port: running queue stats only. Departures and per-drop
    // events are skipped (the aggregate QueueCounters still count drops).
    raw->stream.record(0.0, 0.0);
    port->on_queue_change = [raw](sim::Time t, std::size_t len) {
      raw->stream.record(t.sec(), static_cast<double>(len));
    };
  } else {
    mp->queue.record(0.0, 0.0);
    port->on_queue_change = [raw](sim::Time t, std::size_t len) {
      raw->queue.record(t.sec(), static_cast<double>(len));
    };
    port->on_depart = [raw](sim::Time t, const net::Packet& p) {
      raw->departures.push_back({t.sec(), p.conn, net::is_data(p)});
    };
    port->on_drop = [this, raw](sim::Time t, const net::Packet& p) {
      drops_.push_back(
          {t.sec(), p.conn, net::is_data(p), p.seq, raw->port->name()});
    };
  }
  monitored_.push_back(std::move(mp));
}

void Experiment::set_monitor_mode(MonitorMode mode) {
  if (ran_) throw std::logic_error("Experiment already ran");
  if (!monitored_.empty()) {
    throw std::logic_error("set_monitor_mode must precede monitor()");
  }
  monitor_mode_ = mode;
}

void Experiment::set_flow_instrumentation(bool on) {
  if (ran_) throw std::logic_error("Experiment already ran");
  instrument_flows_ = on;
}

sim::Timer& Experiment::add_timer() { return add_timer(sim_); }

sim::Timer& Experiment::add_timer(sim::Simulator& sim) {
  timers_.emplace_back(sim);
  return timers_.back();
}

void Experiment::set_audit_mode(AuditMode mode) {
  if (ran_) throw std::logic_error("Experiment already ran");
  audit_mode_ = mode;
}

void Experiment::enable_trace(const std::string& path) {
  if (ran_) throw std::logic_error("Experiment already ran");
  trace_ = EventTrace::to_file(path);
}

void Experiment::enable_trace(std::ostream& os) {
  if (ran_) throw std::logic_error("Experiment already ran");
  trace_ = std::make_unique<EventTrace>(os);
}

ExperimentResult Experiment::run(sim::Time warmup, sim::Time duration) {
  if (ran_) throw std::logic_error("Experiment already ran");
  ran_ = true;

  // The full ledger needs to see every event from the first packet on, so
  // the observer goes in before the simulator starts. Tracing rides on the
  // same observer slot (Audit forwards), so a trace forces the ledger.
  if (audit_mode_ == AuditMode::kFull || trace_) {
    audit_ = std::make_unique<Audit>();
    audit_->set_trace(trace_.get());
    net_.set_observer(audit_.get());
  }

  // Snapshot per-receiver delivery counts, in connection order, at the
  // start of the measurement window so `delivered` covers only the window.
  // Keyed by the engine context, as in the sharded engine: it sorts after
  // every node's events at the same (firing, birth) time.
  std::vector<std::uint64_t> delivered_at_warmup(conns_.size(), 0);
  sim_.activate_engine_context();
  sim_.schedule(warmup, [this, &delivered_at_warmup] {
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      delivered_at_warmup[i] = conns_[i]->receiver().next_expected();
    }
  });

  const sim::Time end = run_end(warmup, duration);
  sim_.run_until(end);

  ExperimentResult r = assemble_result(warmup, end, delivered_at_warmup);
  close_audit(r, audit_.get(), sim_.now());
  if (trace_) trace_->flush();
  return r;
}

void Experiment::close_audit(ExperimentResult& r, Audit* ledger,
                             sim::Time end) {
  AuditReport report;
  if (ledger != nullptr) {
    report = ledger->finalize(net_, end);
    if (!report.ok) {
      throw std::logic_error("conservation audit failed:\n" +
                             report.to_string());
    }
  } else if (audit_mode_ == AuditMode::kCounters) {
    report = audit_counters_check(net_);
    if (!report.ok) {
      throw std::logic_error("conservation counter check failed:\n" +
                             report.to_string());
    }
  } else {
    return;
  }
  r.audit = report.totals;
}

ExperimentResult Experiment::assemble_result(
    sim::Time warmup, sim::Time end,
    std::span<const std::uint64_t> delivered_at_warmup) {
  ExperimentResult r;
  r.t_start = warmup.sec();
  r.t_end = end.sec();
  for (auto& mp : monitored_) {
    PortTrace pt;
    pt.name = mp->port->name();
    pt.utilization = mp->port->utilization(warmup, end);
    pt.counters = mp->port->counters();
    if (monitor_mode_ == MonitorMode::kStreaming) {
      pt.streaming = true;
      pt.queue_summary = mp->stream.summary();
      if (pt.queue_summary.count > 0) {
        // Extend the last step to the end of the run so the time-weighted
        // mean covers the same span the TimeSeries mean would.
        pt.queue_summary.mean = mp->stream.time_weighted_mean_until(end.sec());
      }
    } else {
      pt.queue = std::move(mp->queue);
      pt.departures = std::move(mp->departures);
    }
    r.ports.push_back(std::move(pt));
  }
  if (!r.ports.empty() && !conns_.empty()) {
    r.data_tx_time =
        sim::Time::transmission(conns_.front()->config().data_bytes,
                                monitored_.front()->port->bits_per_second())
            .sec();
  }
  r.drops = std::move(drops_);
  r.cwnd = std::move(cwnd_);
  r.ack_arrivals = std::move(ack_arrivals_);
  r.rtt_samples = std::move(rtt_samples_);
  // Scenarios add connections in id order, so inserting at end() is O(1)
  // and the tables build in linear time (any other order is still correct).
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    tcp::Connection& c = *conns_[i];
    const net::ConnId id = c.config().id;
    r.senders.insert_or_assign(r.senders.end(), id, c.sender().counters());
    r.delivered.insert_or_assign(
        r.delivered.end(), id,
        c.receiver().next_expected() - delivered_at_warmup[i]);
  }
  return r;
}

}  // namespace tcpdyn::core
