// What tcpdyn_run and tcpdyn_sweep share: the scenario table, the scenario
// parameters and their checks, and the one function that runs a scenario.
// Every scenario name and parameter flag (--tau ... --duration) is declared
// here once, so both tools accept the same names and values, with the same
// messages; a parameter left unset takes the scenario's default. Each tool
// keeps only its own I/O.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "core/audit.h"
#include "core/cc_matrix.h"
#include "core/scenarios.h"
#include "core/sweep.h"
#include "net/queue.h"
#include "tcp/congestion_control.h"
#include "util/flags.h"

namespace tcpdyn::tools {

struct SharedOptions {
  std::vector<tcp::CcAlgorithm> cc;       // --cc in list order; may be empty
  std::optional<net::QdiscConfig> qdisc;  // nullopt when --qdisc is unset
  std::optional<core::AuditMode> audit;   // nullopt when --audit is unset
  std::size_t shards = 1;                 // > 1 runs the sharded engine
  std::size_t jobs = 0;                   // --jobs where the tool has it
};

// Declares every scenario parameter with an empty default, plus --file,
// --faults, --cc, --qdisc and --audit.
void declare_scenario_flags(util::Flags& flags);

// The names scenario_spec builds, '|'-separated, for the --scenario help.
std::string scenario_names();

// Parses the shared flags, checking each parameter that is set by its kind
// (util/value.h; README "Input values"), --jobs where the tool declares it
// and --shards, a count of at least 1. Throws std::invalid_argument with
// the message the tool prints above its usage.
SharedOptions parse_shared_flags(const util::Flags& flags);

// Parses the --grid spec, checking each axis's values by the kind of the
// parameter it names, before any point runs; the message names the axis.
// An axis must name a numeric parameter, or be `rep`, which takes any
// number: it only numbers replicas, each point having its own seed.
std::vector<core::SweepAxis> parse_grid(const std::string& spec);

// The TopoSpec of scenario `which` at `point`: each parameter is the
// point's axis, else its flag, else the scenario's default, and point.seed
// seeds the randomized scenarios. The --faults file adds to the scenario's
// faults, and a warmup or duration axis or flag sets the run length. The
// values must have passed the checks above. Throws std::invalid_argument
// for an unknown name; for an axis (but rep), parameter flag, --file, --cc
// or --qdisc that is set but that the scenario never reads, naming both;
// for a parsed fault timed after the final run end, naming its line; and
// whatever the factory or file parser throws.
core::TopoSpec scenario_spec(const std::string& which,
                             const core::SweepPoint& point,
                             const util::Flags& flags,
                             const SharedOptions& opts);

// tcpdyn_run cc-matrix's parameters: --cc, --tau, --buffer, --conns (flows
// per algorithm), --w1 (the fixed window), --warmup, --duration and
// --audit. Throws std::invalid_argument naming any other parameter that is
// set, as scenario_spec does.
core::CcMatrixParams cc_matrix_params(const util::Flags& flags,
                                      const SharedOptions& opts);

// Runs `spec` under opts.audit (core::kDefaultAuditMode when unset) and
// summarizes it: through Experiment::run at one shard, writing a JSONL
// event trace to `trace_path` unless it is empty, and on the sharded engine
// above, with the same bytes, writing the partition and event rate to `log`
// unless it is null. Throws std::invalid_argument for a trace above one
// shard, and whatever building or running the spec throws.
core::ScenarioSummary run_spec(const core::TopoSpec& spec,
                               const SharedOptions& opts,
                               const std::string& trace_path,
                               std::ostream* log);

}  // namespace tcpdyn::tools
