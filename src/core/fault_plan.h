// FaultPlan: a declarative, seeded schedule of mid-run network events —
// link outages (down/up), rate and propagation-delay changes, and per-link
// wire impairments (net/fault.h) — compiled onto an Experiment the same way
// core::Topology compiles its graph.
//
// Determinism: apply() translates every entry into ordinary scheduler
// events before the run starts (no wall-clock anywhere), and each impaired
// port gets its own RNG stream seeded mix_seed(plan seed, attachment
// index), where the index follows declaration order. Same plan + same seed
// therefore reproduces the identical event sequence, byte for byte, at any
// sweep parallelism.
//
// Plans come from three places: built in code (the `chaos` scenario),
// `fault ...` stanzas inside a .topo file (parse_topology), or a standalone
// fault file, which `tcpdyn_run --faults=PATH` adds to any scenario's own
// plan. All share one grammar — see parse_fault_directive.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "net/fault.h"
#include "sim/time.h"

namespace tcpdyn::core {

class Experiment;
struct CompiledTopology;

// Which transmit direction(s) of a duplex link an entry applies to.
enum class FaultDir : std::uint8_t { kAB, kBA, kBoth };

// A link named by its endpoints, as declared in the topology.
struct FaultLinkRef {
  std::string a;
  std::string b;
  FaultDir dir = FaultDir::kBoth;
};

// What every entry has: its link, and where it was parsed from ("topology
// file line 4", "fault file 'f.txt' line 2"), so a later check can name the
// line. An entry built in code has no origin.
struct FaultEntry {
  FaultLinkRef link;
  std::string origin;
};

struct LinkOutage : FaultEntry {
  sim::Time at;
  sim::Time duration;
  net::DownPolicy policy = net::DownPolicy::kDrain;
};

struct RateChange : FaultEntry {
  sim::Time at;
  std::int64_t bits_per_second = 0;
};

struct DelayChange : FaultEntry {
  sim::Time at;
  sim::Time delay;
};

// Impairments have no `at`: they attach before the run and shape the whole
// wire. Several entries may target the same link; their fields merge (a
// later gilbert stanza composes with an earlier reorder stanza, say).
struct LinkImpairment : FaultEntry {
  net::Impairment model;
};

class FaultPlan {
 public:
  void set_seed(std::uint64_t seed) { seed_ = seed; }
  std::uint64_t seed() const { return seed_; }

  void add_outage(LinkOutage o) { outages_.push_back(std::move(o)); }
  void add_rate_change(RateChange c) { rate_changes_.push_back(std::move(c)); }
  void add_delay_change(DelayChange c) {
    delay_changes_.push_back(std::move(c));
  }
  void add_impairment(LinkImpairment i) {
    impairments_.push_back(std::move(i));
  }

  bool empty() const {
    return outages_.empty() && rate_changes_.empty() &&
           delay_changes_.empty() && impairments_.empty();
  }

  const std::vector<LinkOutage>& outages() const { return outages_; }
  const std::vector<RateChange>& rate_changes() const { return rate_changes_; }
  const std::vector<DelayChange>& delay_changes() const {
    return delay_changes_;
  }
  const std::vector<LinkImpairment>& impairments() const {
    return impairments_;
  }

  // Resolves every link reference against the compiled topology, attaches
  // merged impairments (one RNG stream per port, seeded by declaration
  // order), and schedules every outage / rate / delay entry as simulator
  // events. Call after Topology::compile and before Experiment::run.
  // Overlapping outages on one port merge naively: any up event re-raises
  // the link. Throws std::invalid_argument for unknown nodes or links,
  // naming the entry's origin.
  void apply(Experiment& exp, const CompiledTopology& topo) const;

  // Throws std::invalid_argument naming its origin when a parsed down, rate
  // or delay entry is timed after `end` (warmup + duration): it would never
  // fire. One at `end` still runs; entries built in code are not checked.
  void check_run_end(sim::Time end) const;

 private:
  std::uint64_t seed_ = 1;
  std::vector<LinkOutage> outages_;
  std::vector<RateChange> rate_changes_;
  std::vector<DelayChange> delay_changes_;
  std::vector<LinkImpairment> impairments_;
};

// Parses one fault directive — the words after the `fault` keyword of a
// .topo stanza, or one line of a --faults file:
//   down A B AT_SEC DUR_SEC [drain|discard] [dir=ab|ba|both]
//   rate A B AT_SEC BPS [dir=...]
//   delay A B AT_SEC SEC [dir=...]
//   loss A B PROB [dir=...]
//   gilbert A B P_GB P_BG LOSS_GOOD LOSS_BAD [dir=...]
//   corrupt A B PROB [dir=...]
//   reorder A B PROB MAX_SEC [dir=...]
//   seed N
// Times, durations and delays are non-negative seconds, BPS a whole number
// of b/s, each PROB a probability and N a seed: README "Input values" gives
// each kind's rule. Adds the entry to `plan` with `origin` and returns its
// link (nullptr for seed). Throws std::invalid_argument naming `lineno` on
// malformed input.
const FaultLinkRef* parse_fault_directive(FaultPlan& plan,
                                          const std::vector<std::string>& args,
                                          std::size_t lineno,
                                          const std::string& origin = {});

// Reads a standalone fault file into `plan`: one directive per line (the
// `fault` keyword is optional), '#' comments and blank lines ignored. Each
// entry is appended after the plan's own, in file order, with origin
// "fault file 'PATH' line N"; a `seed` line replaces the plan's seed, which
// is kept otherwise. Throws std::runtime_error when the file cannot be
// opened and std::invalid_argument naming the line of a malformed
// directive.
void load_fault_file(const std::string& path, FaultPlan& plan);

}  // namespace tcpdyn::core
