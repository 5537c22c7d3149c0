#include "shared_options.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <ostream>
#include <set>
#include <stdexcept>
#include <string>

#include "core/cc_matrix.h"
#include "core/dumbbell.h"
#include "core/fault_plan.h"
#include "core/shard_engine.h"
#include "core/topo_scenarios.h"
#include "core/topology.h"
#include "sim/time.h"
#include "util/value.h"

namespace tcpdyn::tools {

namespace {

using util::ValueKind;
using enum util::ValueKind;

// Every scenario parameter, as a flag and, unless it is a 0|1 switch (a
// boolean flag), as a grid axis. Its kind checks both (util/value.h).
struct Param {
  const char* name;
  ValueKind kind;
  const char* placeholder;  // the usage text's value name; none for kSwitch
  const char* help;
};

constexpr Param kParams[] = {
    {"tau", kDelay, "SEC", "bottleneck propagation delay"},
    {"buffer", kBuffer, "PKTS", "bottleneck buffer"},
    {"conns", kCount, "N", "connection / flow count"},
    {"w1", kU32, "PKTS", "fixed-window size, forward"},
    {"w2", kU32, "PKTS", "fixed-window size, reverse"},
    {"maxwnd", kU32, "PKTS", "delayed-ack scenario window cap"},
    {"spread", kDelay, "SEC", "rtt scenario access-delay spread"},
    {"pacing", kDelay, "SEC", "oneway/twoway pacing interval (0 = none)"},
    {"delayed-ack", kSwitch, "", "oneway/twoway receivers delay their ACKs"},
    {"ecn", kSwitch, "", "flows negotiate ECN (oneway/twoway/red-wave)"},
    {"hops", kCount, "N", "parking-lot/red-wave trunk links"},
    {"long-flows", kCount, "N", "parking-lot end-to-end flows"},
    {"cross-per-hop", kCount, "N", "parking-lot cross flows per trunk"},
    {"switches", kCount, "N", "ring/waxman switch count"},
    {"loss", kProbability, "PROB", "chaos reverse-trunk burst-loss peak"},
    {"outage", kDelay, "SEC", "chaos trunk-flap duration"},
    {"flap-period", kDelay, "SEC", "chaos gap between trunk flaps"},
    {"flaps", kCount, "N", "chaos trunk-flap count"},
    {"discard-on-down", kSwitch, "", "chaos down links discard, not drain"},
    {"senders", kCount, "N", "datacenter fan-in width (sender hosts)"},
    {"flows-per-sender", kCount, "N", "datacenter sessions per sender"},
    {"arrival-rate", kRate, "R",
     "datacenter per-sender session arrivals/sec (0 = closed population)"},
    {"session", kDelay, "SEC", "datacenter session length (0 = forever)"},
    {"warmup", kDelay, "SEC", "scenario warmup"},
    {"duration", kDelay, "SEC", "measured duration"},
};

// The flags beyond kParams that a scenario reads or ignores.
constexpr const char* kTextParams[] = {"file", "cc", "qdisc"};

// One scenario's parameter values: the point's axis, else the flag, else
// `fallback`, the scenario's default. Every value was checked by its kind,
// so the casts are exact. Each parameter read is noted, so a parameter that
// is set but never read, which the run would ignore, can be refused.
struct Inputs {
  const core::SweepPoint& point;
  const util::Flags& flags;
  const SharedOptions& opts;
  mutable std::set<std::string> read = {};

  bool has(const std::string& name) const {
    read.insert(name);
    return point.has(name) || flags.has(name);
  }
  double num(const std::string& name, double fallback) const {
    read.insert(name);
    return point.value_or(name, flags.get_double(name, fallback));
  }
  template <class T>
  T count(const std::string& name, T fallback) const {
    return static_cast<T>(num(name, static_cast<double>(fallback)));
  }
  bool on(const std::string& name) const {
    read.insert(name);
    return flags.get_bool(name);
  }
  // `value`, a text parameter's (--file, --cc, --qdisc), noted as read.
  template <class T>
  const T& note(const std::string& name, const T& value) const {
    read.insert(name);
    return value;
  }
  // The dumbbell's bottleneck at the paper's small pipe, and its flows.
  double tau(double fallback = 0.01) const { return num("tau", fallback); }
  std::size_t buffer(std::size_t fallback = 20) const {
    return count("buffer", fallback);
  }
  std::size_t conns(std::size_t fallback) const {
    return count("conns", fallback);
  }

  // Throws naming `scenario` and the first axis (but rep) or parameter
  // flag that is set but was never read.
  void reject_unread(const std::string& scenario) const {
    const auto refuse = [&](const std::string& param) {
      throw std::invalid_argument("scenario '" + scenario +
                                  "' does not read " + param);
    };
    for (const auto& [name, value] : point.params) {
      if (name != "rep" && !read.contains(name)) {
        refuse("grid axis '" + name + "'");
      }
    }
    const auto check_flag = [&](const std::string& name) {
      if (flags.has(name) && !read.contains(name)) refuse("--" + name);
    };
    for (const char* name : kTextParams) check_flag(name);
    for (const Param& p : kParams) check_flag(p.name);
  }
};
using In = const Inputs&;

// The oneway/twoway dumbbell, configured flag by flag: --conns flows, the
// first half forward and the rest reverse when two-way, their controllers
// cycling through --cc (Tahoe when unset).
core::TopoSpec custom_dumbbell(In in, bool two_way) {
  core::DumbbellParams p =
      core::dumbbell_params(in.tau(), net::QueueLimit::of(in.buffer()));
  if (in.note("qdisc", in.opts.qdisc)) p.bottleneck_qdisc = *in.opts.qdisc;

  core::TopoSpec spec;
  spec.name = two_way ? "twoway" : "oneway";
  spec.topo = core::dumbbell_topology(p);
  spec.warmup = sim::Time::seconds(100.0);
  spec.duration = sim::Time::seconds(400.0);
  spec.epoch_gap_sec = p.tau >= sim::Time::seconds(0.5) ? 8.0 : 2.0;
  const std::size_t n = in.conns(2);
  const std::vector<tcp::CcAlgorithm>& cc = in.note("cc", in.opts.cc);
  const bool delayed_ack = in.on("delayed-ack");
  const bool ecn = in.on("ecn");
  const sim::Time pacing = sim::Time::seconds(in.num("pacing", 0.0));
  for (std::size_t i = 0; i < n; ++i) {
    core::ConnSpec c = core::dumbbell_flow(!two_way || i < (n + 1) / 2);
    if (!cc.empty()) c.kind = cc[i % cc.size()];
    c.delayed_ack = delayed_ack;
    c.ecn = ecn;
    c.pacing_interval = pacing;
    c.start_time = sim::Time::seconds(0.37 * static_cast<double>(i));
    spec.traffic.add(std::move(c));
  }
  return spec;
}

// A paper factory of (tau, buffer) at the small pipe.
template <core::TopoSpec (*Factory)(double, std::size_t)>
core::TopoSpec small_pipe(In in) {
  return Factory(in.tau(), in.buffer());
}

core::TopoSpec fixed_window(In in, double tau_sec) {
  return core::fig8_fixed_window(in.tau(tau_sec), in.count("w1", 30u),
                                 in.count("w2", 25u));
}

core::TopoSpec ring(In in) {
  core::RingParams p;
  p.switches = in.count("switches", p.switches);
  p.flows = in.conns(p.flows);
  p.seed = in.point.seed;
  return core::ring_spec(p);
}

core::TopoSpec parking_lot(In in) {
  core::ParkingLotParams p;
  p.hops = in.count("hops", p.hops);
  p.long_flows = in.count("long-flows", p.long_flows);
  p.cross_per_hop = in.count("cross-per-hop", p.cross_per_hop);
  p.seed = in.point.seed;
  return core::parking_lot_spec(p);
}

core::TopoSpec waxman(In in) {
  core::WaxmanParams p;
  p.switches = in.count("switches", p.switches);
  p.flows = in.conns(p.flows);
  p.seed = in.point.seed;
  return core::waxman_spec(p);
}

core::TopoSpec chaos(In in) {
  core::ChaosParams p;
  p.tau_sec = in.tau(p.tau_sec);
  p.buffer = in.buffer(p.buffer);
  p.flows = in.conns(p.flows);
  p.ge_loss_bad = in.num("loss", p.ge_loss_bad);
  p.outage_sec = in.num("outage", p.outage_sec);
  p.flap_period_sec = in.num("flap-period", p.flap_period_sec);
  p.flaps = in.count("flaps", p.flaps);
  p.discard_on_down = in.on("discard-on-down");
  p.cc = in.note("cc", in.opts.cc);
  // The flaps are timed from the warmup boundary, so a shortened run must
  // reach the params, not only the built spec.
  p.warmup_sec = in.num("warmup", p.warmup_sec);
  p.duration_sec = in.num("duration", p.duration_sec);
  p.seed = in.point.seed;
  return core::chaos_spec(p);
}

core::TopoSpec red_wave(In in) {
  core::RedWaveParams p;
  p.hops = in.count("hops", p.hops);
  p.tau_sec = in.tau(p.tau_sec);
  p.buffer = in.buffer(p.buffer);
  p.flows = in.conns(p.flows);
  if (in.note("qdisc", in.opts.qdisc)) p.qdisc = *in.opts.qdisc;
  p.ecn = in.on("ecn");
  if (!in.note("cc", in.opts.cc).empty()) p.cc = in.opts.cc.front();
  p.seed = in.point.seed;
  return core::red_wave_spec(p);
}

core::TopoSpec datacenter(In in) {
  core::IncastParams p;
  p.senders = in.count("senders", p.senders);
  p.flows_per_sender = in.count("flows-per-sender", p.flows_per_sender);
  p.buffer = in.buffer(p.buffer);
  p.arrival_rate = in.num("arrival-rate", p.arrival_rate);
  p.session_sec = in.num("session", p.session_sec);
  if (!in.note("cc", in.opts.cc).empty()) p.cc = in.opts.cc.front();
  p.seed = in.point.seed;
  return core::incast_spec(p);
}

core::TopoSpec topo_file(In in) {
  const std::string file = in.note("file", in.flags.get("file"));
  if (file.empty()) {
    throw std::invalid_argument("scenario topo requires --file");
  }
  return core::load_topology_file(file);
}

// Every scenario of both tools, in --help order: the paper's figures and
// ablations from their core factories, the rest from their params.
struct ScenarioEntry {
  const char* name;
  core::TopoSpec (*build)(In);
};

constexpr ScenarioEntry kScenarios[] = {
    {"fig2",
     [](In in) {
       return core::fig2_one_way(in.conns(3), in.tau(1.0), in.buffer());
     }},
    {"fig3",  // --conns counts both directions
     [](In in) {
       return core::fig3_ten_connections(in.buffer(30), in.conns(10) / 2);
     }},
    {"fig4", small_pipe<core::fig4_twoway>},
    {"fig6",
     [](In in) { return core::fig6_twoway(in.tau(1.0), in.buffer()); }},
    {"fig8", [](In in) { return fixed_window(in, 0.01); }},
    {"fig9", [](In in) { return fixed_window(in, 1.0); }},
    {"fixed", [](In in) { return fixed_window(in, 0.01); }},
    {"oneway", [](In in) { return custom_dumbbell(in, false); }},
    {"twoway", [](In in) { return custom_dumbbell(in, true); }},
    {"reno", small_pipe<core::reno_twoway>},
    {"paced", small_pipe<core::paced_twoway>},
    {"random-drop", small_pipe<core::random_drop_twoway>},
    {"delayed-ack",
     [](In in) {
       return core::delayed_ack_twoway(in.count("maxwnd", 64u), in.tau(),
                                       in.buffer());
     }},
    {"rtt",
     [](In in) {
       return core::rtt_heterogeneity(in.conns(4), in.num("spread", 0.0),
                                      in.tau(), in.buffer());
     }},
    {"ccmix",
     [](In in) {
       using enum tcp::CcAlgorithm;
       return core::ccmix_twoway(
           in.note("cc", in.opts.cc).empty()
               ? std::vector{kTahoe, kReno, kNewReno, kCubic, kVegas}
               : in.opts.cc,
           in.conns(6), in.tau(), in.buffer());
     }},
    // The chain's layout is random: the point's seed lets replicas
    // ("rep=0;1;2;..." axis) draw independent layouts.
    {"chain",
     [](In in) {
       return core::four_switch_chain(in.conns(50), in.point.seed);
     }},
    {"ring", ring},
    {"parking-lot", parking_lot},
    {"waxman", waxman},
    {"chaos", chaos},
    {"red-wave", red_wave},
    {"datacenter", datacenter},
    {"topo", topo_file},
};

}  // namespace

void declare_scenario_flags(util::Flags& flags) {
  flags.flag("file", "PATH", "topology file (scenario topo)", "")
      .flag("faults", "PATH",
            "fault-schedule file added to the scenario's own faults; a seed "
            "line replaces the plan seed (see core/fault_plan.h for the "
            "grammar)",
            "")
      .flag("cc", "LIST",
            "comma-separated congestion controllers (" +
                tcp::cc_registry().names_joined() +
                "): oneway/twoway/chaos flows cycle through the list, ccmix's "
                "too (default tahoe,reno,newreno,cubic,vegas); red-wave and "
                "datacenter take the first",
            "")
      .flag("qdisc", "NAME",
            "bottleneck queue discipline (" +
                net::qdisc_registry().names_joined() +
                "); oneway/twoway/red-wave",
            "");
  for (const Param& p : kParams) {
    if (p.kind == kSwitch) {
      flags.flag(p.name, p.help, false);
    } else {
      flags.flag(p.name, p.placeholder, p.help, "");
    }
  }
  flags.flag("audit", "off|counters|full", "conservation-check strength", "");
}

std::string scenario_names() {
  std::string names;
  for (const ScenarioEntry& s : kScenarios) {
    if (!names.empty()) names += '|';
    names += s.name;
  }
  return names;
}

SharedOptions parse_shared_flags(const util::Flags& flags) {
  for (const Param& param : kParams) {
    if (!flags.has(param.name)) continue;
    if (param.kind == kSwitch) {
      flags.get_bool(param.name);  // throws naming the flag and value
    } else {
      util::read(param.kind, flags.get(param.name),
                 std::string("--") + param.name);
    }
  }

  SharedOptions opts;
  if (flags.has("jobs")) {
    opts.jobs = util::read_as<std::size_t>(kCount, flags.get("jobs"), "--jobs");
  }
  // "--cc tahoe,cubic,vegas"; the registry throws on an unknown name with a
  // did-you-mean suggestion and the valid list.
  const std::string list = flags.get("cc");
  for (std::size_t pos = 0; pos <= list.size();) {
    const std::size_t comma = std::min(list.find(',', pos), list.size());
    const std::string name = list.substr(pos, comma - pos);
    if (!name.empty()) {
      opts.cc.push_back(
          tcp::cc_registry().require(name, "congestion controller"));
    }
    pos = comma + 1;
  }
  if (const std::string name = flags.get("qdisc"); !name.empty()) {
    const net::QdiscChoice& choice =
        net::qdisc_registry().require(name, "queue discipline");
    net::QdiscConfig config;
    config.kind = choice.kind;
    config.red.ecn = choice.ecn;
    opts.qdisc = config;
  }
  if (flags.has("audit")) {
    opts.audit = core::parse_audit_mode(flags.get("audit"));
    if (!opts.audit) {
      throw std::invalid_argument("unknown --audit mode '" +
                                  flags.get("audit") + "' (off|counters|full)");
    }
  }
  opts.shards =
      util::read_as<std::size_t>(kCount, flags.get("shards"), "--shards");
  if (opts.shards < 1) throw std::invalid_argument("--shards must be >= 1");
  return opts;
}

std::vector<core::SweepAxis> parse_grid(const std::string& spec) {
  return core::parse_grid(spec, [](const std::string& name) {
    if (name == "rep") return kNumber;
    std::string numeric;  // the names an axis may take
    for (const Param& p : kParams) {
      if (p.kind == kSwitch) continue;
      if (name == p.name) return p.kind;
      numeric += std::string(p.name) + '|';
    }
    throw std::invalid_argument("grid axis '" + name +
                                "' names no numeric scenario parameter (" +
                                numeric + "rep)");
  });
}

core::TopoSpec scenario_spec(const std::string& which,
                             const core::SweepPoint& point,
                             const util::Flags& flags,
                             const SharedOptions& opts) {
  // `incast`, the name the datacenter spec prints, builds it too.
  const std::string name = which == "incast" ? "datacenter" : which;
  const auto entry =
      std::find_if(std::begin(kScenarios), std::end(kScenarios),
                   [&](const ScenarioEntry& s) { return name == s.name; });
  if (entry == std::end(kScenarios)) {
    throw std::invalid_argument("unknown scenario '" + which + "'");
  }
  const Inputs in{point, flags, opts};
  core::TopoSpec spec = entry->build(in);
  if (flags.has("faults")) {
    core::load_fault_file(flags.get("faults"), spec.faults);
  }
  if (in.has("warmup")) spec.warmup = sim::Time::seconds(in.num("warmup", 0));
  if (in.has("duration")) {
    spec.duration = sim::Time::seconds(in.num("duration", 0));
  }
  in.reject_unread(which);
  spec.faults.check_run_end(core::run_end(spec.warmup, spec.duration));
  return spec;
}

core::CcMatrixParams cc_matrix_params(const util::Flags& flags,
                                      const SharedOptions& opts) {
  const core::SweepPoint point;
  const Inputs in{point, flags, opts};
  core::CcMatrixParams p;
  if (!in.note("cc", opts.cc).empty()) p.algos = opts.cc;
  p.tau_sec = in.tau(p.tau_sec);
  p.buffer = in.buffer(p.buffer);
  p.flows_per_algo = in.conns(p.flows_per_algo);
  p.fixed_window = in.count("w1", p.fixed_window);
  p.warmup_sec = in.num("warmup", p.warmup_sec);
  p.duration_sec = in.num("duration", p.duration_sec);
  if (opts.audit) p.audit = *opts.audit;
  in.reject_unread("cc-matrix");
  return p;
}

core::ScenarioSummary run_spec(const core::TopoSpec& spec,
                               const SharedOptions& opts,
                               const std::string& trace_path,
                               std::ostream* log) {
  const core::AuditMode audit = opts.audit.value_or(core::kDefaultAuditMode);
  if (opts.shards <= 1) {
    core::Scenario scenario(spec);
    scenario.exp->set_audit_mode(audit);
    if (!trace_path.empty()) scenario.exp->enable_trace(trace_path);
    return core::run_scenario(scenario);
  }
  if (!trace_path.empty()) {
    throw std::invalid_argument(
        "--trace is not supported with --shards "
        "(one JSONL stream, many shard clocks)");
  }
  core::ShardedEngine engine(spec, opts.shards, audit);
  const auto wall0 = std::chrono::steady_clock::now();
  core::ExperimentResult result = engine.run();
  const double wall_sec = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - wall0)
                              .count();
  if (log != nullptr) {
    // The plan shape, event count and throughput all vary with the shard
    // count, so they go to the log, never into the summary, which must be
    // byte-identical across shard counts.
    const core::ShardPlan& plan = engine.plan();
    *log << "sharded: shards=" << plan.shards
         << " cut-links=" << plan.cut_links.size()
         << " lookahead=" << plan.lookahead.sec() << " s"
         << " events=" << engine.events_executed() << " ("
         << static_cast<double>(engine.events_executed()) / wall_sec
         << " events/s)\n";
  }
  return core::summarize_result(std::move(result), spec.epoch_gap_sec);
}

}  // namespace tcpdyn::tools
