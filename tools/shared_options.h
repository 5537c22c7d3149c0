// The option parsing tcpdyn_run and tcpdyn_sweep share: --cc, --qdisc,
// --audit and --shards are parsed and validated here once, and so is every
// flag given in seconds, so their values and error messages cannot drift
// apart between the tools. Each tool still declares the flags itself, with
// its own help wording.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "core/audit.h"
#include "net/queue.h"
#include "tcp/congestion_control.h"
#include "util/flags.h"

namespace tcpdyn::tools {

struct SharedOptions {
  std::vector<tcp::CcAlgorithm> cc;       // --cc in list order; may be empty
  std::optional<net::QdiscConfig> qdisc;  // nullopt when --qdisc is unset
  std::optional<core::AuditMode> audit;   // nullopt when --audit is unset
  std::size_t shards = 1;                 // > 1 runs core::ShardedEngine
};

// Parses and validates the shared flags. A flag given in seconds (--warmup,
// --duration, --tau, --pacing, ...) must convert to a sim::Time. Throws
// std::invalid_argument with the message the tool prints above its usage.
SharedOptions parse_shared_flags(const util::Flags& flags);

}  // namespace tcpdyn::tools
