// tcpdyn_sweep — run a grid of scenarios in parallel and emit one result row
// per point as JSON and/or CSV.
//
//   tcpdyn_sweep --scenario fig4 --grid "tau=0.01:1:log10,buffer=10:80:10"
//                --jobs 8 --out sweep.json
//   tcpdyn_sweep --scenario fig2 --grid "buffer=10;20;40;80" --csv sweep.csv
//   tcpdyn_sweep --scenario ring --grid "conns=4:24:4" --jobs 0
//
// Grid axes (comma-separated): name=v | name=v1;v2;v3 | name=lo:hi:step
// (linear, inclusive) | name=lo:hi:logN (N log-spaced points). Axis names
// override the matching scenario parameter; parameters that are not axes
// come from the flag of the same name or the scenario default.
//
// Run with --help for the full flag list.
//
// Determinism: output depends only on (scenario, grid, seed) — never on
// --jobs or --shards. Every scenario is built per point as one
// core::TopoSpec and run by tools::run_spec, serially or sharded. CI diffs
// --jobs 1 against --jobs 4, and serial against sharded, byte for byte on
// every push.
#include <fstream>
#include <iostream>
#include <string>

#include "core/cc_matrix.h"
#include "core/report.h"
#include "core/scenarios.h"
#include "core/sweep.h"
#include "core/topo_scenarios.h"
#include "net/queue.h"
#include "shared_options.h"
#include "tcp/congestion_control.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/table.h"
#include "util/thread_pool.h"

using namespace tcpdyn;
using tools::SharedOptions;

namespace {

void declare_flags(util::Flags& flags) {
  flags
      .flag("scenario", "NAME",
            "fig2|fig3|fig4|fig6|fixed|reno|paced|random-drop|delayed-ack|"
            "rtt|chain|ring|parking-lot|waxman|chaos|red-wave|ccmix",
            "fig4")
      .flag("grid", "SPEC", "axis spec (required)", "")
      .flag("jobs", "N", "worker threads (0 = all hardware threads)", 0)
      .flag("seed", "N", "sweep seed; point i runs with hash(seed, i)", 1)
      .flag("out", "PATH", "write JSON here ('-' = stdout)", "-")
      .flag("csv", "PATH", "also write CSV here", "")
      .flag("warmup", "SEC", "override scenario warmup", "")
      .flag("duration", "SEC", "override measured duration", "")
      .flag("tau", "SEC", "bottleneck propagation delay", "")
      .flag("buffer", "PKTS", "bottleneck buffer", "")
      .flag("conns", "N", "connection / flow count", "")
      .flag("cc", "LIST",
            "ccmix controller cycle, comma-separated (" +
                tcp::cc_registry().names_joined() + ")",
            "tahoe,reno,newreno,cubic,vegas")
      .flag("w1", "PKTS", "fixed-window size, forward", "")
      .flag("w2", "PKTS", "fixed-window size, reverse", "")
      .flag("spread", "SEC", "rtt scenario access-delay spread", "")
      .flag("maxwnd", "PKTS", "delayed-ack scenario window cap", "")
      .flag("hops", "N", "parking-lot/red-wave trunk links", "")
      .flag("qdisc", "NAME",
            "red-wave trunk discipline (" +
                net::qdisc_registry().names_joined() +
                "); grid axes are numeric, so the discipline is a flag, "
                "not an axis",
            "")
      .flag("ecn", "red-wave flows negotiate ECN", false)
      .flag("long-flows", "N", "parking-lot end-to-end flows", "")
      .flag("cross-per-hop", "N", "parking-lot cross flows per trunk", "")
      .flag("switches", "N", "ring/waxman switch count", "")
      .flag("loss", "PROB", "chaos reverse-trunk burst-loss peak", "")
      .flag("outage", "SEC", "chaos trunk-flap duration", "")
      .flag("flap-period", "SEC", "chaos gap between trunk flaps", "")
      .flag("flaps", "N", "chaos trunk-flap count", "")
      .flag("shards", "N",
            "run every point through the sharded engine on N shard "
            "simulators (identical results at any N; composes with --jobs)",
            1)
      .flag("progress", "log per-point progress and ETA to stderr", false)
      .flag("quiet", "suppress the summary table on stdout", false)
      .flag("audit", "off|counters|full", "conservation-check strength", "")
      .flag("trace", "PREFIX",
            "JSONL event-trace prefix; point N writes PREFIX.pointN.jsonl",
            "");
}

int usage(const util::Flags& flags, const std::string& msg) {
  std::cerr << "tcpdyn_sweep: " << msg << '\n'
            << flags.usage("tcpdyn_sweep");
  return 2;
}

// Axis value if the point sweeps this parameter, else the flag, else the
// scenario default.
double param(const core::SweepPoint& pt, const util::Flags& flags,
             const std::string& name, double fallback) {
  return pt.value_or(name, flags.get_double(name, fallback));
}

// The TopoSpec of `which` at one grid point: the scenarios beyond the
// paper from their params, the paper figures, ccmix and the chain from
// their core factories. run_spec runs it on one engine or the other.
core::TopoSpec build_point_spec(const std::string& which,
                                const core::SweepPoint& pt,
                                const util::Flags& flags,
                                const SharedOptions& opts) {
  const auto as_size = [](double v) { return static_cast<std::size_t>(v); };
  const auto as_u32 = [](double v) { return static_cast<std::uint32_t>(v); };
  if (which == "ring") {
    core::RingParams p;
    p.switches = as_size(param(pt, flags, "switches", 6));
    p.flows = as_size(param(pt, flags, "conns", 12));
    p.seed = pt.seed;
    return core::ring_spec(p);
  }
  if (which == "parking-lot") {
    core::ParkingLotParams p;
    p.hops = as_size(param(pt, flags, "hops", 4));
    p.long_flows = as_size(param(pt, flags, "long-flows", 128));
    p.cross_per_hop = as_size(param(pt, flags, "cross-per-hop", 96));
    p.seed = pt.seed;
    return core::parking_lot_spec(p);
  }
  if (which == "waxman") {
    core::WaxmanParams p;
    p.switches = as_size(param(pt, flags, "switches", 8));
    p.flows = as_size(param(pt, flags, "conns", 32));
    p.seed = pt.seed;
    return core::waxman_spec(p);
  }
  if (which == "red-wave") {
    core::RedWaveParams p;
    p.hops = as_size(param(pt, flags, "hops", static_cast<double>(p.hops)));
    p.tau_sec = param(pt, flags, "tau", p.tau_sec);
    p.buffer = as_size(param(pt, flags, "buffer",
                             static_cast<double>(p.buffer)));
    p.flows = as_size(param(pt, flags, "conns",
                            static_cast<double>(p.flows)));
    if (opts.qdisc) p.qdisc = *opts.qdisc;
    p.ecn = flags.get_bool("ecn");
    p.seed = pt.seed;
    return core::red_wave_spec(p);
  }
  if (which == "chaos") {
    core::ChaosParams p;
    p.tau_sec = param(pt, flags, "tau", p.tau_sec);
    p.buffer = as_size(param(pt, flags, "buffer",
                             static_cast<double>(p.buffer)));
    p.flows = as_size(param(pt, flags, "conns",
                            static_cast<double>(p.flows)));
    p.ge_loss_bad = param(pt, flags, "loss", p.ge_loss_bad);
    p.outage_sec = param(pt, flags, "outage", p.outage_sec);
    p.flap_period_sec = param(pt, flags, "flap-period", p.flap_period_sec);
    p.flaps = as_size(param(pt, flags, "flaps",
                            static_cast<double>(p.flaps)));
    // Flap times anchor to the warmup boundary; route the overrides into
    // the params so shortened runs still see their outages.
    if (flags.has("warmup")) {
      p.warmup_sec = flags.get_double("warmup", p.warmup_sec);
    }
    if (flags.has("duration")) {
      p.duration_sec = flags.get_double("duration", p.duration_sec);
    }
    p.seed = pt.seed;
    return core::chaos_spec(p);
  }
  if (which == "fig2" || which == "oneway") {
    return core::fig2_one_way(as_size(param(pt, flags, "conns", 3)),
                              param(pt, flags, "tau", 1.0),
                              as_size(param(pt, flags, "buffer", 20)));
  }
  if (which == "fig3") {
    return core::fig3_ten_connections(
        as_size(param(pt, flags, "buffer", 30)),
        as_size(param(pt, flags, "conns", 10)) / 2);
  }
  if (which == "fig4" || which == "twoway") {
    return core::fig4_twoway(param(pt, flags, "tau", 0.01),
                             as_size(param(pt, flags, "buffer", 20)));
  }
  if (which == "fig6") {
    return core::fig6_twoway(param(pt, flags, "tau", 1.0),
                             as_size(param(pt, flags, "buffer", 20)));
  }
  if (which == "fixed" || which == "fig8" || which == "fig9") {
    return core::fig8_fixed_window(
        param(pt, flags, "tau", which == "fig9" ? 1.0 : 0.01),
        as_u32(param(pt, flags, "w1", 30)),
        as_u32(param(pt, flags, "w2", 25)));
  }
  if (which == "reno") {
    return core::reno_twoway(param(pt, flags, "tau", 0.01),
                             as_size(param(pt, flags, "buffer", 20)));
  }
  if (which == "paced") {
    return core::paced_twoway(param(pt, flags, "tau", 0.01),
                              as_size(param(pt, flags, "buffer", 20)));
  }
  if (which == "random-drop") {
    return core::random_drop_twoway(param(pt, flags, "tau", 0.01),
                                    as_size(param(pt, flags, "buffer", 20)));
  }
  if (which == "delayed-ack") {
    return core::delayed_ack_twoway(as_u32(param(pt, flags, "maxwnd", 64)),
                                    param(pt, flags, "tau", 0.01),
                                    as_size(param(pt, flags, "buffer", 20)));
  }
  if (which == "rtt") {
    return core::rtt_heterogeneity(as_size(param(pt, flags, "conns", 4)),
                                   param(pt, flags, "spread", 0.0),
                                   param(pt, flags, "tau", 0.01),
                                   as_size(param(pt, flags, "buffer", 20)));
  }
  if (which == "ccmix") {
    // Mixed congestion controllers sharing one bottleneck. The cycle comes
    // from --cc (names are not sweepable axes, but conns/tau/buffer are).
    return core::ccmix_twoway(opts.cc, as_size(param(pt, flags, "conns", 6)),
                              param(pt, flags, "tau", 0.01),
                              as_size(param(pt, flags, "buffer", 20)));
  }
  if (which == "chain") {
    // The chain scenario's connection layout is random: use the per-point
    // seed so replicas ("rep=0;1;2;..." axis) draw independent topologies.
    return core::four_switch_chain(as_size(param(pt, flags, "conns", 50)),
                                   pt.seed);
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
    return usage(flags, e.what());
  }
  if (flags.help_requested()) {
    std::cout << flags.usage("tcpdyn_sweep");
    return 0;
  }
  if (!flags.has("grid")) {
    return usage(flags, "--grid is required");
  }
  const std::string which = flags.get("scenario");

  SharedOptions shared;
  try {
    shared = tools::parse_shared_flags(flags);
  } catch (const std::exception& e) {
    return usage(flags, e.what());
  }

  core::SweepGrid grid;
  try {
    grid = core::SweepGrid(core::parse_grid(flags.get("grid")));
    // Count and seconds flags were checked by parse_shared_flags, so the
    // builders' casts above see only valid values.
    tools::check_grid_axes(grid.axes());
  } catch (const std::exception& e) {
    return usage(flags, e.what());
  }

  core::SweepOptions opts;
  try {
    opts.jobs = tools::count_flag<std::size_t>(flags, "jobs");
    opts.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
    opts.progress = flags.get_bool("progress");
  } catch (const std::exception& e) {
    return usage(flags, e.what());
  }
  if (opts.progress) {
    util::set_log_level(util::LogLevel::kInfo);
  }

  const std::string trace_prefix = flags.get("trace");
  // --shards > 1 runs every point on the sharded engine, whose per-run
  // worker threads compose with the sweep's --jobs pool; it cannot trace.
  if (shared.shards > 1 && !trace_prefix.empty()) {
    return usage(flags, "--trace is not supported with --shards");
  }

  core::SweepRunner runner(std::move(grid), opts);
  core::SweepTable table;
  try {
    table = runner.run([&](const core::SweepPoint& pt) {
      core::TopoSpec spec = build_point_spec(which, pt, flags, shared);
      if (flags.has("warmup")) {
        spec.warmup = sim::Time::seconds(flags.get_double("warmup"));
      }
      if (flags.has("duration")) {
        spec.duration = sim::Time::seconds(flags.get_double("duration"));
      }
      const std::string trace =
          trace_prefix.empty() ? ""
                               : trace_prefix + ".point" +
                                     std::to_string(pt.index) + ".jsonl";
      return core::summary_row(pt,
                               tools::run_spec(spec, shared, trace, nullptr));
    });
  } catch (const std::exception& e) {
    std::cerr << "tcpdyn_sweep: " << e.what() << '\n';
    return 1;
  }

  const std::string out = flags.get("out");
  if (out == "-") {
    table.write_json(std::cout);
  } else {
    std::ofstream os(out, std::ios::binary);
    if (!os) return usage(flags, "cannot open --out file '" + out + "'");
    table.write_json(os);
  }
  if (flags.has("csv")) {
    std::ofstream os(flags.get("csv"), std::ios::binary);
    if (!os) return usage(flags, "cannot open --csv file");
    table.write_csv(os);
  }

  if (!flags.get_bool("quiet") && out != "-") {
    std::vector<std::string> header;
    for (const auto& axis : runner.grid().axes()) header.push_back(axis.name);
    header.insert(header.end(), {"util_fwd", "util_rev", "sync (cwnd)",
                                 "drops/epoch"});
    util::Table t(header);
    for (const auto& row : table.rows()) {
      std::vector<std::string> cells;
      for (const auto& axis : runner.grid().axes()) {
        cells.push_back(util::fmt(row.number(axis.name), 3));
      }
      cells.push_back(util::fmt_pct(row.number("util_fwd")));
      cells.push_back(util::fmt_pct(row.number("util_rev")));
      cells.push_back(row.text("cwnd_sync_mode") + " (rho=" +
                      util::fmt(row.number("cwnd_sync_rho")) + ")");
      cells.push_back(util::fmt(row.number("drops_per_epoch"), 1));
      t.add_row(cells);
    }
    std::cout << "sweep: scenario=" << which << ", " << table.rows().size()
              << " points\n";
    t.print(std::cout);
  }
  return 0;
}
