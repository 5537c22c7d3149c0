#include "shared_options.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <string>

#include "core/shard_engine.h"
#include "sim/time.h"

namespace tcpdyn::tools {

namespace {

// How the tools read each numeric flag or grid axis that a cast or a
// sim::Time conversion could get wrong: NaN, inf and |s| >= 9.2e9 seconds
// overflow Time's int64 nanoseconds, and a negative, fractional or too
// large count wraps or is undefined when cast to an unsigned type. A buffer
// is a count that must also hold the packet in service: with 0 packets
// every packet drops (a dead link is spelled `fault down`).
enum class Kind { kSeconds, kSize, kBuffer, kU32 };

struct Param {
  const char* name;
  Kind kind;
};

constexpr Param kParams[] = {
    {"warmup", Kind::kSeconds},        {"duration", Kind::kSeconds},
    {"tau", Kind::kSeconds},           {"pacing", Kind::kSeconds},
    {"spread", Kind::kSeconds},        {"outage", Kind::kSeconds},
    {"flap-period", Kind::kSeconds},   {"session", Kind::kSeconds},
    {"buffer", Kind::kBuffer},         {"conns", Kind::kSize},
    {"hops", Kind::kSize},             {"long-flows", Kind::kSize},
    {"cross-per-hop", Kind::kSize},    {"switches", Kind::kSize},
    {"flaps", Kind::kSize},            {"senders", Kind::kSize},
    {"flows-per-sender", Kind::kSize}, {"jobs", Kind::kSize},
    {"w1", Kind::kU32},                {"w2", Kind::kU32},
    {"maxwnd", Kind::kU32},
};

std::invalid_argument bad_value(const std::string& what,
                                const std::string& rule,
                                const std::string& got) {
  return std::invalid_argument(what + " must be " + rule + ", got '" + got +
                               "'");
}

// The shortest text that reads back as `value`.
std::string shortest(double value) {
  char text[32];
  const auto end = std::to_chars(text, text + sizeof(text), value).ptr;
  return std::string(text, end);
}

// `value` as a T, or throws naming `what` and quoting `got`.
template <class T>
T checked_count(double value, const std::string& what,
                const std::string& got) {
  // 2^digits is the first value above T's range, exact as a double. NaN
  // fails both comparisons.
  const double limit = std::ldexp(1.0, std::numeric_limits<T>::digits);
  if (!(value >= 0.0 && value < limit) || std::trunc(value) != value) {
    throw bad_value(what,
                    "a whole number from 0 to " +
                        std::to_string(std::numeric_limits<T>::max()),
                    got);
  }
  return static_cast<T>(value);
}

void check(const Param& param, double value, const std::string& what,
           const std::string& got) {
  switch (param.kind) {
    case Kind::kSeconds:
      if (!sim::Time::checked_seconds(value)) {
        throw bad_value(what, "finite seconds with |s| < 9.2e9", got);
      }
      return;
    case Kind::kSize:
      checked_count<std::size_t>(value, what, got);
      return;
    case Kind::kBuffer:
      if (checked_count<std::size_t>(value, what, got) == 0) {
        throw bad_value(what, ">= 1 packet", got);
      }
      return;
    case Kind::kU32:
      checked_count<std::uint32_t>(value, what, got);
      return;
  }
}

}  // namespace

SharedOptions parse_shared_flags(const util::Flags& flags) {
  for (const Param& param : kParams) {
    if (flags.has(param.name)) {
      check(param, flags.get_double(param.name, 0.0),
            std::string("--") + param.name, flags.get(param.name));
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

void check_grid_axes(std::span<const core::SweepAxis> axes) {
  for (const core::SweepAxis& axis : axes) {
    const auto param =
        std::find_if(std::begin(kParams), std::end(kParams),
                     [&](const Param& p) { return axis.name == p.name; });
    if (param == std::end(kParams)) continue;
    for (const double v : axis.values) {
      check(*param, v, "grid axis '" + axis.name + "'", shortest(v));
    }
  }
}

template <class T>
T count_flag(const util::Flags& flags, const std::string& name) {
  return checked_count<T>(flags.get_double(name), "--" + name,
                          flags.get(name));
}

template std::size_t count_flag<std::size_t>(const util::Flags&,
                                             const std::string&);
template std::uint32_t count_flag<std::uint32_t>(const util::Flags&,
                                                 const std::string&);

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
