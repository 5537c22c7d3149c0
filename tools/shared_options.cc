#include "shared_options.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "sim/time.h"

namespace tcpdyn::tools {

SharedOptions parse_shared_flags(const util::Flags& flags) {
  // Every flag either tool reads in seconds; the value later becomes a
  // sim::Time, whose conversion is undefined for NaN, inf and overflow.
  for (const char* name : {"warmup", "duration", "tau", "pacing", "spread",
                           "outage", "flap-period", "session"}) {
    if (flags.has(name) &&
        !sim::Time::checked_seconds(flags.get_double(name, 0.0))) {
      throw std::invalid_argument(
          std::string("--") + name +
          " must be finite seconds with |s| < 9.2e9, got '" +
          flags.get(name) + "'");
    }
  }

  SharedOptions opts;
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
  const std::int64_t shards = flags.get_int("shards");
  if (shards < 1) throw std::invalid_argument("--shards must be >= 1");
  opts.shards = static_cast<std::size_t>(shards);
  return opts;
}

}  // namespace tcpdyn::tools
