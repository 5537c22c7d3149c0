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

namespace {

// The endpoint of a retired session's late ACKs: the host has counted and
// observed the ACK, and it goes no further, as a stopped sender ignores
// one. Stateless, so every shard may share it.
class IgnoreAcks final : public net::PacketSink {
 public:
  void deliver(const net::Packet& /*ack*/) override {}
};
IgnoreAcks g_ignore_acks;

}  // namespace

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

void Experiment::declare_traces(net::ConnId id, bool adaptive) {
  ack_arrivals_.try_emplace(id);
  rtt_samples_.try_emplace(id);  // assemble_result drops the empty ones
  if (adaptive) cwnd_.try_emplace(id);
}

void Experiment::trace_sender(tcp::WindowSender& sender, net::ConnId id) {
  // cwnd trace (adaptive controllers only), its first point recorded at
  // the flow's start. Every change is attributed to (algorithm, event) in
  // the JSONL trace.
  tcp::CongestionControl& cc = sender.cc();
  if (cc.adaptive()) {
    cc.on_cwnd_change = [this, series = &cwnd_.at(id), id, algo = cc.name()](
                            sim::Time t, double w, tcp::CcEvent why) {
      series->record(t.sec(), w);
      if (trace_) trace_->cwnd_change(t, id, w, algo, tcp::to_string(why));
    };
  }
  sender.hooks().on_rtt_sample = [samples = &rtt_samples_.at(id)](
                                     sim::Time t, sim::Time rtt) {
    samples->emplace_back(t.sec(), rtt.sec());
  };
  sender.hooks().on_loss_detected = [this, id](sim::Time t,
                                               tcp::LossSignal signal) {
    if (trace_ && signal == tcp::LossSignal::kTimeout) trace_->rto(t, id);
  };
}

void Experiment::reserve_flows(std::size_t n) { flows_.reserve(n); }

tcp::Connection& Experiment::add_connection(
    const tcp::ConnectionConfig& config) {
  if (ran_) throw std::logic_error("Experiment already ran");
  conns_.push_back(std::make_unique<tcp::Connection>(net_, config));
  tcp::Connection& conn = *conns_.back();
  FlowRecord& f = flows_.emplace_back();
  f.id = config.id;
  f.dst = config.dst_host;
  f.connection = &conn;
  f.start = config.start_time;
  f.stop = config.stop_time;
  if (!instrument_flows_) return conn;  // flyweight: counters only

  // ACK arrival instrumentation lives on the source host.
  hook_host(config.src_host);
  declare_traces(config.id, conn.cc().adaptive());
  if (conn.cc().adaptive()) {
    cwnd_.at(config.id).record(config.start_time.sec(), conn.cc().cwnd());
  }
  trace_sender(conn.sender(), config.id);
  return conn;
}

void Experiment::add_sessions(const ConnSpec& spec, net::NodeId src,
                              net::NodeId dst) {
  if (ran_) throw std::logic_error("Experiment already ran");
  if (!(spec.arrival_rate > 0.0)) {
    throw std::invalid_argument("add_sessions needs arrival_rate > 0");
  }
  tcp::ConnectionConfig config = spec.to_config();
  config.src_host = src;
  config.dst_host = dst;
  net::Host& src_host = net_.host(src);
  net::Host& dst_host = net_.host(dst);
  const std::unique_ptr<tcp::CongestionControl> proto =
      tcp::make_congestion_control(config);
  // The ties the sessions' start and stop events would have drawn here,
  // one session after another, had each been built now.
  const bool stops = spec.session_time > sim::Time::zero() ||
                     config.stop_time > sim::Time::zero();
  const std::uint64_t ties_each = stops ? 2 : 1;
  const std::uint64_t first_tie =
      sim::det_tie_reserve(*src_host.det_context(), ties_each * spec.count);

  SessionSource& s = sessions_.emplace_back();
  s.config = config;
  s.first = flows_.size();
  s.count = spec.count;
  s.session = spec.session_time;
  s.rate = spec.arrival_rate;
  s.host = &src_host;
  s.sim = &net_.sim_for(src);
  s.birth = static_cast<std::uint64_t>(s.sim->now().ns());
  s.first_tie = first_tie;
  s.ties_each = ties_each;
  s.sack = proto->wants_sack();
  s.adaptive = proto->adaptive();
  s.initial_cwnd = proto->cwnd();
  s.traced = instrument_flows_;
  s.rng = util::Rng(spec.seed);

  flows_.resize(s.first + s.count);
  if (s.traced) hook_host(src);
  for (std::size_t i = s.first; i < flows_.size(); ++i) {
    flows_[i].id = static_cast<net::ConnId>(i);
    flows_[i].dst = dst;
    if (s.traced) declare_traces(flows_[i].id, s.adaptive);
  }
  const auto miss = [this](const net::Packet& p) {
    return session_endpoint(p);
  };
  src_host.set_miss_handler(miss);
  dst_host.set_miss_handler(miss);

  if (s.count == 0) return;
  s.arrival_sec = s.rng.exponential(s.rate);
  schedule_arrival(s);
  // Sessions that share the spec's stop time stop in one chain at it.
  if (s.session == sim::Time::zero() && stops) {
    schedule_stop(s, 0, config.stop_time);
  }
}

FlowRecord& Experiment::stamp_arrival(SessionSource& s) {
  FlowRecord& f = flows_[s.first + s.next];
  f.start = s.config.start_time + sim::Time::seconds(s.arrival_sec);
  f.stop = s.session > sim::Time::zero() ? f.start + s.session
                                         : s.config.stop_time;
  if (s.traced && s.adaptive) {
    cwnd_.at(f.id).record(f.start.sec(), s.initial_cwnd);
  }
  return f;
}

bool Experiment::draw_next_arrival(SessionSource& s) {
  if (++s.next == s.count) return false;
  s.arrival_sec += s.rng.exponential(s.rate);
  return true;
}

void Experiment::schedule_arrival(SessionSource& s) {
  s.sim->schedule_at_keyed(
      s.config.start_time + sim::Time::seconds(s.arrival_sec), s.birth,
      s.first_tie + s.ties_each * s.next, s.host->det_context(),
      [this, &s] { arrive(s); });
}

void Experiment::schedule_stop(SessionSource& s, std::size_t j,
                               sim::Time at) {
  s.sim->schedule_at_keyed(at, s.birth, s.first_tie + s.ties_each * j + 1,
                           s.host->det_context(),
                           [this, &s, j] { retire(s, j); });
}

void Experiment::arrive(SessionSource& s) {
  const std::size_t j = s.next;
  FlowRecord& f = stamp_arrival(s);
  // A session whose stop fell before its arrival never sends.
  if (f.stop == sim::Time::zero() || f.stop >= f.start) {
    tcp::SenderParams params = tcp::sender_params(s.config);
    params.conn = f.id;
    f.sender = std::make_unique<tcp::WindowSender>(
        *s.sim, *s.host, params, tcp::make_congestion_control(s.config));
    if (s.traced) trace_sender(*f.sender, f.id);
    f.sender->start_now();
  }
  if (s.session > sim::Time::zero()) schedule_stop(s, j, f.stop);
  if (draw_next_arrival(s)) schedule_arrival(s);
}

void Experiment::retire(SessionSource& s, std::size_t j) {
  FlowRecord& f = flows_[s.first + j];
  if (f.sender) {
    f.sent = f.sender->counters();
    s.host->unregister_endpoint(f.id, net::PacketKind::kAck);
    f.sender.reset();
  }
  if (s.session == sim::Time::zero() && j + 1 < s.count) {
    schedule_stop(s, j + 1, s.config.stop_time);
  }
}

const Experiment::SessionSource* Experiment::source_of(net::ConnId id) const {
  // Sessions are declared in id order, so `first` ascends.
  auto it = std::upper_bound(
      sessions_.begin(), sessions_.end(), id,
      [](net::ConnId v, const SessionSource& s) { return v < s.first; });
  if (it == sessions_.begin()) return nullptr;
  --it;
  return id < it->first + it->count ? &*it : nullptr;
}

net::PacketSink* Experiment::session_endpoint(const net::Packet& p) {
  const SessionSource* s = source_of(p.conn);
  if (s == nullptr) return nullptr;
  if (net::is_ack(p)) return &g_ignore_acks;  // its sender stopped
  // The flow's first data packet: its receiver is built here, on the
  // destination's shard, and registers itself for the packets after it.
  FlowRecord& f = flows_[p.conn];
  assert(!f.receiver);
  tcp::ReceiverParams params = tcp::receiver_params(s->config, s->sack);
  params.conn = p.conn;
  f.receiver = std::make_unique<tcp::Receiver>(
      net_.sim_for(params.self), net_.host(params.self), params);
  return f.receiver.get();
}

void Experiment::finish_sessions() {
  for (SessionSource& s : sessions_) {
    if (s.next == s.count) continue;
    do {
      stamp_arrival(s);
    } while (draw_next_arrival(s));
  }
}

const tcp::SenderCounters& Experiment::counters(const FlowRecord& f) {
  if (f.connection != nullptr) return f.connection->sender().counters();
  return f.sender ? f.sender->counters() : f.sent;
}

std::uint64_t Experiment::next_expected(const FlowRecord& f) {
  if (f.connection != nullptr) return f.connection->receiver().next_expected();
  return f.receiver ? f.receiver->next_expected() : 0;
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

  // Snapshot per-receiver delivery counts into the records at the start of
  // the measurement window so `delivered` covers only the window. Keyed by
  // the engine context, as in the sharded engine: it sorts after every
  // node's events at the same (firing, birth) time.
  sim_.activate_engine_context();
  sim_.schedule(warmup, [this] {
    for (FlowRecord& f : flows_) f.delivered_at_warmup = next_expected(f);
  });

  const sim::Time end = run_end(warmup, duration);
  sim_.run_until(end);

  ExperimentResult r = assemble_result(warmup, end);
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

ExperimentResult Experiment::assemble_result(sim::Time warmup,
                                             sim::Time end) {
  finish_sessions();
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
  if (!r.ports.empty() && !flows_.empty()) {
    const FlowRecord& first = flows_.front();
    const std::uint32_t bytes = first.connection != nullptr
                                    ? first.connection->config().data_bytes
                                    : source_of(first.id)->config.data_bytes;
    r.data_tx_time =
        sim::Time::transmission(bytes,
                                monitored_.front()->port->bits_per_second())
            .sec();
  }
  r.drops = std::move(drops_);
  r.cwnd = std::move(cwnd_);
  r.ack_arrivals = std::move(ack_arrivals_);
  r.rtt_samples = std::move(rtt_samples_);
  // A flow's RTT series is declared at setup but reported only once it
  // holds a sample.
  std::erase_if(r.rtt_samples,
                [](const auto& entry) { return entry.second.empty(); });
  // Scenarios declare flows in id order, so inserting at end() is O(1) and
  // the tables build in linear time (any other order is still correct).
  for (const FlowRecord& f : flows_) {
    r.senders.insert_or_assign(r.senders.end(), f.id, counters(f));
    r.delivered.insert_or_assign(r.delivered.end(), f.id,
                                 next_expected(f) - f.delivered_at_warmup);
  }
  return r;
}

}  // namespace tcpdyn::core
