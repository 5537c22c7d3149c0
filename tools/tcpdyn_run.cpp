// tcpdyn_run — run any configuration of the study from the command line.
//
//   tcpdyn_run --scenario fig4                       # a paper figure
//   tcpdyn_run --scenario twoway --tau 0.1 --buffer 40 --cc reno
//   tcpdyn_run --scenario oneway --conns 5 --duration 600 --chart
//   tcpdyn_run --scenario fixed --w1 30 --w2 25 --tau 1
//   tcpdyn_run --scenario chain --conns 50 --csv-dir out/
//   tcpdyn_run topo --file examples/topos/dumbbell.topo
//   tcpdyn_run --scenario parking-lot --long-flows 128 --cross-per-hop 96
//
// The scenario may be given positionally (tcpdyn_run topo ...) or via
// --scenario. Run with --help for the full flag list.
//
// Every scenario but cc-matrix is built from the flags as one
// core::TopoSpec, which --faults extends and tools::run_spec runs: serially
// at --shards 1, on the sharded engine above, with the same output bytes.
#include <filesystem>
#include <iostream>

#include "core/cc_matrix.h"
#include "core/csv_export.h"
#include "core/dumbbell.h"
#include "core/fault_plan.h"
#include "core/report.h"
#include "core/scenarios.h"
#include "core/topo_scenarios.h"
#include "core/topology.h"
#include "net/queue.h"
#include "shared_options.h"
#include "tcp/congestion_control.h"
#include "util/flags.h"

using namespace tcpdyn;
using tools::SharedOptions;

namespace {

void declare_flags(util::Flags& flags) {
  flags
      .flag("scenario", "NAME",
            "fig2|fig3|fig4|fig6|fig8|fig9|oneway|twoway|fixed|chain|ring|"
            "parking-lot|waxman|chaos|red-wave|datacenter|topo|cc-matrix "
            "(also accepted positionally)",
            "fig4")
      .flag("file", "PATH", "topology file (scenario topo)", "")
      .flag("faults", "PATH",
            "fault-schedule file added to the scenario's own faults; a seed "
            "line replaces the plan seed (see core/fault_plan.h for the "
            "grammar)",
            "")
      .flag("loss", "PROB", "chaos reverse-trunk burst-loss peak", 0.5)
      .flag("outage", "SEC", "chaos trunk-flap duration", 2.0)
      .flag("flap-period", "SEC", "chaos gap between trunk flaps", 60.0)
      .flag("flaps", "N", "chaos trunk-flap count", 3)
      .flag("discard-on-down", "chaos down links discard instead of drain",
            false)
      .flag("tau", "SEC", "bottleneck propagation delay", 0.01)
      .flag("buffer", "PKTS", "bottleneck buffer", 20)
      .flag("conns", "N", "connection / flow count", 2)
      .flag("cc", "LIST",
            "comma-separated congestion controllers (" +
                tcp::cc_registry().names_joined() +
                "); oneway/twoway cycle flows through the list, cc-matrix "
                "uses it as the algorithm set",
            "")
      .flag("delayed-ack", "receiver delayed-ACK option", false)
      .flag("pacing", "SEC", "pacing interval (0 = nonpaced)", 0.0)
      .flag("qdisc", "NAME",
            "bottleneck queue discipline (" +
                net::qdisc_registry().names_joined() +
                "); oneway/twoway/red-wave",
            "")
      .flag("ecn", "flows negotiate ECN (oneway/twoway/red-wave)", false)
      .flag("w1", "PKTS", "fixed-window size, forward", 30)
      .flag("w2", "PKTS", "fixed-window size, reverse", 25)
      .flag("seed", "N", "seed for randomized scenarios", 7)
      .flag("hops", "N", "parking-lot trunk links", 4)
      .flag("long-flows", "N", "parking-lot end-to-end flows", 128)
      .flag("cross-per-hop", "N", "parking-lot cross flows per trunk", 96)
      .flag("switches", "N", "ring/waxman switch count", 0)
      .flag("senders", "N", "datacenter fan-in width (sender hosts)", 64)
      .flag("flows-per-sender", "N", "datacenter sessions per sender", 4)
      .flag("arrival-rate", "R",
            "datacenter per-sender Poisson session arrivals/sec "
            "(0 = closed population)",
            0.0)
      .flag("session", "SEC",
            "datacenter per-session transmit time (0 = forever)", 0.0)
      .flag("warmup", "SEC", "override scenario warmup", "")
      .flag("duration", "SEC", "override measured duration", "")
      .flag("chart", "print ASCII queue charts", false)
      .flag("csv-dir", "DIR", "export raw traces as CSV here", "")
      .flag("audit", "off|counters|full", "conservation-check strength", "")
      .flag("shards", "N",
            "partition the run across N shard simulators with conservative "
            "lookahead (identical results at any N)",
            1)
      .flag("trace", "PATH", "write a JSONL event trace here", "");
}

int fail(const util::Flags& flags, const std::string& msg) {
  std::cerr << "tcpdyn_run: " << msg << '\n'
            << flags.usage("tcpdyn_run [scenario]");
  return 2;
}

// The oneway/twoway dumbbell under the tool's flags: --conns flows, the
// first half forward and the rest reverse when two-way.
core::TopoSpec custom_dumbbell(const util::Flags& flags,
                               const SharedOptions& opts, bool two_way) {
  core::DumbbellParams p = core::dumbbell_params(
      flags.get_double("tau"),
      net::QueueLimit::of(tools::count_flag<std::size_t>(flags, "buffer")));
  if (opts.qdisc) p.bottleneck_qdisc = *opts.qdisc;

  core::TopoSpec spec;
  spec.name = two_way ? "twoway" : "oneway";
  spec.topo = core::dumbbell_topology(p);
  spec.warmup = sim::Time::seconds(100.0);
  spec.duration = sim::Time::seconds(400.0);
  spec.epoch_gap_sec = p.tau >= sim::Time::seconds(0.5) ? 8.0 : 2.0;
  const auto n = tools::count_flag<std::size_t>(flags, "conns");
  for (std::size_t i = 0; i < n; ++i) {
    core::ConnSpec c = core::dumbbell_flow(!two_way || i < (n + 1) / 2);
    // --cc may mix algorithms across the flows; Tahoe when unset.
    if (!opts.cc.empty()) c.kind = opts.cc[i % opts.cc.size()];
    c.delayed_ack = flags.get_bool("delayed-ack");
    c.ecn = flags.get_bool("ecn");
    c.pacing_interval = sim::Time::seconds(flags.get_double("pacing"));
    c.start_time = sim::Time::seconds(0.37 * static_cast<double>(i));
    spec.traffic.add(std::move(c));
  }
  return spec;
}

// The TopoSpec of `which` under the tool's flags: the scenarios the tool
// configures flag by flag from their params, the paper figures and the
// chain from their core factories. run_spec runs it on one engine or the
// other.
core::TopoSpec build_spec(const std::string& which, const util::Flags& flags,
                          const SharedOptions& opts) {
  const auto size = [&](const std::string& name) {
    return tools::count_flag<std::size_t>(flags, name);
  };
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  if (which == "oneway" || which == "twoway") {
    return custom_dumbbell(flags, opts, /*two_way=*/which == "twoway");
  }
  if (which == "ring") {
    core::RingParams p;
    if (flags.has("switches")) p.switches = size("switches");
    if (flags.has("conns")) p.flows = size("conns");
    p.seed = seed;
    return core::ring_spec(p);
  }
  if (which == "parking-lot") {
    core::ParkingLotParams p;
    p.hops = size("hops");
    p.long_flows = size("long-flows");
    p.cross_per_hop = size("cross-per-hop");
    p.seed = seed;
    return core::parking_lot_spec(p);
  }
  if (which == "waxman") {
    core::WaxmanParams p;
    if (flags.has("switches")) p.switches = size("switches");
    if (flags.has("conns")) p.flows = size("conns");
    p.seed = seed;
    return core::waxman_spec(p);
  }
  if (which == "chaos") {
    core::ChaosParams p;
    if (flags.has("tau")) p.tau_sec = flags.get_double("tau");
    if (flags.has("buffer")) p.buffer = size("buffer");
    if (flags.has("conns")) p.flows = size("conns");
    p.ge_loss_bad = flags.get_double("loss");
    p.outage_sec = flags.get_double("outage");
    p.flap_period_sec = flags.get_double("flap-period");
    p.flaps = size("flaps");
    p.discard_on_down = flags.get_bool("discard-on-down");
    p.cc = opts.cc;
    // Flap times are anchored to the warmup boundary, so the overrides must
    // reach the params (the override of the built spec alone would leave
    // the flaps scheduled past the end of a shortened run).
    if (flags.has("warmup")) p.warmup_sec = flags.get_double("warmup");
    if (flags.has("duration")) p.duration_sec = flags.get_double("duration");
    p.seed = seed;
    return core::chaos_spec(p);
  }
  if (which == "red-wave") {
    core::RedWaveParams p;
    if (flags.has("hops")) p.hops = size("hops");
    if (flags.has("tau")) p.tau_sec = flags.get_double("tau");
    if (flags.has("buffer")) p.buffer = size("buffer");
    if (flags.has("conns")) p.flows = size("conns");
    if (opts.qdisc) p.qdisc = *opts.qdisc;
    p.ecn = flags.get_bool("ecn");
    if (!opts.cc.empty()) p.cc = opts.cc.front();
    p.seed = seed;
    return core::red_wave_spec(p);
  }
  if (which == "datacenter" || which == "incast") {
    core::IncastParams p;
    p.senders = size("senders");
    p.flows_per_sender = size("flows-per-sender");
    if (flags.has("buffer")) p.buffer = size("buffer");
    p.arrival_rate = flags.get_double("arrival-rate");
    p.session_sec = flags.get_double("session");
    if (!opts.cc.empty()) p.cc = opts.cc.front();
    p.seed = seed;
    return core::incast_spec(p);
  }
  if (which == "topo") {
    const std::string file = flags.get("file");
    if (file.empty()) {
      throw std::invalid_argument("scenario topo requires --file");
    }
    return core::load_topology_file(file);
  }
  if (which == "fig2") {
    return core::fig2_one_way(flags.has("conns") ? size("conns") : 3,
                              flags.has("tau") ? flags.get_double("tau") : 1.0,
                              size("buffer"));
  }
  if (which == "fig3") {
    return core::fig3_ten_connections(
        flags.has("buffer") ? size("buffer") : 30);
  }
  if (which == "fig4") {
    return core::fig4_twoway(flags.get_double("tau"), size("buffer"));
  }
  if (which == "fig6") {
    return core::fig6_twoway(flags.has("tau") ? flags.get_double("tau") : 1.0,
                             size("buffer"));
  }
  if (which == "fig8" || which == "fig9" || which == "fixed") {
    return core::fig8_fixed_window(
        flags.has("tau") ? flags.get_double("tau")
                         : (which == "fig9" ? 1.0 : 0.01),
        tools::count_flag<std::uint32_t>(flags, "w1"),
        tools::count_flag<std::uint32_t>(flags, "w2"));
  }
  if (which == "chain") {
    return core::four_switch_chain(flags.has("conns") ? size("conns") : 50,
                                   seed);
  }
  throw std::invalid_argument("unknown scenario '" + which + "'");
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags;
  declare_flags(flags);
  try {
    flags.parse(argc, argv);
  } catch (const std::exception& e) {
    return fail(flags, e.what());
  }
  if (flags.help_requested()) {
    std::cout << flags.usage("tcpdyn_run [scenario]");
    return 0;
  }
  if (flags.positional().size() > 1) {
    return fail(flags, "at most one positional scenario argument");
  }
  const std::string which = flags.positional().empty()
                                ? flags.get("scenario")
                                : flags.positional()[0];

  SharedOptions opts;
  try {
    opts = tools::parse_shared_flags(flags);
  } catch (const std::exception& e) {
    return fail(flags, e.what());
  }

  if (which == "cc-matrix") {
    // Every cell is its own serial, untraced, unfaulted experiment: reject
    // the flags that ask otherwise rather than ignore them.
    if (opts.shards > 1) {
      return fail(flags, "cc-matrix does not support --shards");
    }
    for (const char* flag : {"trace", "faults"}) {
      if (flags.has(flag)) {
        return fail(flags, std::string("cc-matrix does not support --") + flag);
      }
    }
    core::CcMatrixParams p;
    if (!opts.cc.empty()) p.algos = opts.cc;
    if (flags.has("tau")) p.tau_sec = flags.get_double("tau");
    if (flags.has("buffer")) {
      p.buffer = tools::count_flag<std::size_t>(flags, "buffer");
    }
    if (flags.has("conns")) {
      p.flows_per_algo = tools::count_flag<std::size_t>(flags, "conns");
    }
    if (flags.has("w1")) {
      p.fixed_window = tools::count_flag<std::uint32_t>(flags, "w1");
    }
    if (flags.has("warmup")) p.warmup_sec = flags.get_double("warmup");
    if (flags.has("duration")) p.duration_sec = flags.get_double("duration");
    if (opts.audit) p.audit = *opts.audit;
    core::print_cc_matrix(std::cout, core::run_cc_matrix(p));
    return 0;
  }

  std::string name;
  core::ScenarioSummary s;
  try {
    core::TopoSpec spec = build_spec(which, flags, opts);
    if (flags.has("faults")) {
      core::load_fault_file(flags.get("faults"), spec.faults);
    }
    if (flags.has("warmup")) {
      spec.warmup = sim::Time::seconds(flags.get_double("warmup"));
    }
    if (flags.has("duration")) {
      spec.duration = sim::Time::seconds(flags.get_double("duration"));
    }
    name = spec.name;
    s = tools::run_spec(spec, opts, flags.get("trace"), &std::cerr);
  } catch (const std::exception& e) {
    return fail(flags, e.what());
  }
  core::print_summary(std::cout, name, s);

  if (name == "red-wave") {
    const core::WaveStats w = core::analyze_waves(
        s.result.ports, s.result.t_start, s.result.t_end);
    std::cout << "\ncongestion wave (" << w.hops << " hops):\n"
              << "  adjacent lag        " << w.mean_adjacent_lag_sec
              << " s (corr " << w.mean_adjacent_correlation << ")\n"
              << "  wave speed          " << w.wave_speed_hops_per_sec
              << " hops/s\n"
              << "  correlation length  " << w.correlation_length_hops
              << " hops\n"
              << "  queue amplitude     " << w.mean_amplitude
              << " packets (stddev, detrended)\n"
              << "  mean utilization    " << w.mean_utilization << '\n';
  }

  if (flags.get_bool("chart")) {
    std::cout << '\n';
    for (const auto& port : s.result.ports) {
      core::print_queue_chart(std::cout, port.queue, s.result.t_start,
                              std::min(s.result.t_end,
                                       s.result.t_start + 60.0),
                              100, 8, "queue " + port.name + " (packets)");
    }
  }
  if (flags.has("csv-dir")) {
    const std::string dir = flags.get("csv-dir");
    std::filesystem::create_directories(dir);
    const auto written = core::export_csv(s.result, dir, name);
    std::cout << "\nwrote " << written.size() << " CSV files to " << dir
              << '\n';
  }
  return 0;
}
