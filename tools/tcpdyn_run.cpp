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
// --scenario; --seed seeds it. Run with --help for the full flag list.
//
// tools::scenario_spec builds every scenario but cc-matrix, as it does each
// tcpdyn_sweep point, and tools::run_spec runs it: serially at --shards 1,
// on the sharded engine above, with the same output bytes. This file keeps
// the summary, charts, CSV export and the cc-matrix.
#include <filesystem>
#include <iostream>
#include <system_error>

#include "core/cc_matrix.h"
#include "core/csv_export.h"
#include "core/report.h"
#include "core/sweep.h"
#include "shared_options.h"
#include "util/flags.h"
#include "util/value.h"

using namespace tcpdyn;
using tools::SharedOptions;

namespace {

void declare_flags(util::Flags& flags) {
  flags.flag("scenario", "NAME",
             tools::scenario_names() +
                 "|cc-matrix (also accepted positionally; cc-matrix takes "
                 "--cc as its algorithm set); a parameter left unset takes "
                 "the scenario's default",
             "fig4");
  tools::declare_scenario_flags(flags);
  flags.flag("seed", "N", "seed for randomized scenarios", 7)
      .flag("chart", "print ASCII queue charts", false)
      .flag("csv-dir", "DIR", "export raw traces as CSV here", "")
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
    try {
      p = tools::cc_matrix_params(flags, opts);
    } catch (const std::exception& e) {
      return fail(flags, e.what());
    }
    core::print_cc_matrix(std::cout, core::run_cc_matrix(p));
    return 0;
  }

  std::string name;
  core::ScenarioSummary s;
  try {
    core::SweepPoint point;
    point.seed = util::read_seed(flags.get("seed"), "--seed");
    const core::TopoSpec spec = tools::scenario_spec(which, point, flags, opts);
    // Made before the run, so a directory that cannot be made costs no run.
    if (flags.has("csv-dir")) {
      std::error_code error;
      std::filesystem::create_directories(flags.get("csv-dir"), error);
      if (error) {
        throw std::invalid_argument("cannot create --csv-dir '" +
                                    flags.get("csv-dir") +
                                    "': " + error.message());
      }
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
    const auto written = core::export_csv(s.result, dir, name);
    std::cout << "\nwrote " << written.size() << " CSV files to " << dir
              << '\n';
  }
  return 0;
}
