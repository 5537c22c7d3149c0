// What tcpdyn_run and tcpdyn_sweep share: the option parsing, and the one
// function that runs a scenario. --cc, --qdisc, --audit and --shards are
// parsed and validated here once, and so is every flag given in seconds and
// every count, so their values and error messages cannot drift apart
// between the tools. Each tool still declares the flags itself, with its
// own help wording, and builds a core::TopoSpec from them; run_spec then
// picks the engine.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/audit.h"
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
};

// Parses and validates the shared flags. Every flag either tool reads in
// seconds (--warmup, --duration, --tau, --pacing, ...) must convert to a
// sim::Time, and every count flag (--buffer, --conns, --hops, --w1, ...)
// must be a whole number its type holds; --buffer must also be at least 1.
// Throws std::invalid_argument with the message the tool prints above its
// usage.
SharedOptions parse_shared_flags(const util::Flags& flags);

// Applies the same checks to the values of the grid axes that name those
// parameters, before any point runs; the message names the axis.
void check_grid_axes(std::span<const core::SweepAxis> axes);

// Count flag `name` (its value, or its declared default) as a T, which is
// std::size_t or std::uint32_t. Throws std::invalid_argument naming the
// flag when the value is negative, NaN, not a whole number or above T's
// maximum: the cast would then wrap or be undefined.
template <class T>
T count_flag(const util::Flags& flags, const std::string& name);

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
