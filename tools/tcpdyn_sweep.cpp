// tcpdyn_sweep — run a grid of scenarios in parallel and emit one result row
// per point as JSON and/or CSV.
//
//   tcpdyn_sweep --scenario fig4 --grid "tau=0.01:1:log10,buffer=10:80:10"
//                --jobs 8 --out sweep.json
//   tcpdyn_sweep --scenario fig2 --grid "buffer=10;20;40;80" --csv sweep.csv
//   tcpdyn_sweep --scenario ring --grid "conns=4:24:4" --jobs 0
//
// Grid axes (comma-separated): name=v | name=v1;v2;v3 | name=lo:hi:step
// (linear, inclusive) | name=lo:hi:logN (N log-spaced points). An axis
// names a numeric scenario parameter and beats its flag; `rep` only numbers
// replicas. Run with --help for the full flag list.
//
// Determinism: output depends only on (scenario, grid, seed) — never on
// --jobs or --shards. Point i is seeded hash(seed, i), built by
// tools::scenario_spec as tcpdyn_run builds its run, and run by
// tools::run_spec, serially or sharded. CI diffs --jobs 1 against --jobs 4,
// and serial against sharded, byte for byte. This file keeps the grid, the
// worker pool and the JSON/CSV tables.
#include <fstream>
#include <iostream>
#include <string>

#include "core/report.h"
#include "core/sweep.h"
#include "shared_options.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/table.h"
#include "util/value.h"

using namespace tcpdyn;
using tools::SharedOptions;

namespace {

void declare_flags(util::Flags& flags) {
  flags
      .flag("scenario", "NAME",
            tools::scenario_names() +
                "; a parameter that is neither an axis nor a flag takes the "
                "scenario's default",
            "fig4")
      .flag("grid", "SPEC", "axis spec (required)", "")
      .flag("jobs", "N", "worker threads (0 = all hardware threads)", 0)
      .flag("seed", "N", "sweep seed; point i runs with hash(seed, i)", 1)
      .flag("out", "PATH", "write JSON here ('-' = stdout)", "-")
      .flag("csv", "PATH", "also write CSV here", "");
  tools::declare_scenario_flags(flags);
  flags
      .flag("shards", "N",
            "run every point through the sharded engine on N shard "
            "simulators (identical results at any N; composes with --jobs)",
            1)
      .flag("progress", "log per-point progress and ETA to stderr", false)
      .flag("quiet", "suppress the summary table on stdout", false)
      .flag("trace", "PREFIX",
            "JSONL event-trace prefix; point N writes PREFIX.pointN.jsonl",
            "");
}

int usage(const util::Flags& flags, const std::string& msg) {
  std::cerr << "tcpdyn_sweep: " << msg << '\n'
            << flags.usage("tcpdyn_sweep");
  return 2;
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
  core::SweepOptions opts;
  try {
    // Flags were checked by parse_shared_flags and axes are checked here,
    // so scenario_spec sees only valid values. Building every point
    // refuses, before any point runs, a parameter the scenario never reads
    // and a value only some points break (a run end past sim::Time's
    // range, a fault past the run end).
    grid = core::SweepGrid(tools::parse_grid(flags.get("grid")));
    opts.jobs = shared.jobs;
    opts.seed = util::read_seed(flags.get("seed"), "--seed");
    opts.progress = flags.get_bool("progress");
    for (std::size_t i = 0; i < grid.size(); ++i) {
      tools::scenario_spec(which, grid.point(i, opts.seed), flags, shared);
    }
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

  // Both files open before any point runs, so a path that cannot be
  // opened costs no run.
  const std::string out = flags.get("out");
  std::ofstream out_file;
  if (out != "-") {
    out_file.open(out, std::ios::binary);
    if (!out_file) return usage(flags, "cannot open --out file '" + out + "'");
  }
  std::ofstream csv_file;
  if (flags.has("csv")) {
    csv_file.open(flags.get("csv"), std::ios::binary);
    if (!csv_file) return usage(flags, "cannot open --csv file");
  }

  core::SweepRunner runner(std::move(grid), opts);
  core::SweepTable table;
  try {
    table = runner.run([&](const core::SweepPoint& pt) {
      const std::string trace =
          trace_prefix.empty() ? ""
                               : trace_prefix + ".point" +
                                     std::to_string(pt.index) + ".jsonl";
      return core::summary_row(
          pt, tools::run_spec(tools::scenario_spec(which, pt, flags, shared),
                              shared, trace, nullptr));
    });
  } catch (const std::exception& e) {
    std::cerr << "tcpdyn_sweep: " << e.what() << '\n';
    return 1;
  }

  table.write_json(out == "-" ? std::cout : out_file);
  if (csv_file.is_open()) table.write_csv(csv_file);

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
