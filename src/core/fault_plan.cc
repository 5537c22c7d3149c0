#include "core/fault_plan.h"

#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "core/experiment.h"
#include "core/topology.h"
#include "net/network.h"
#include "net/port.h"
#include "util/rng.h"

namespace tcpdyn::core {

namespace {

[[noreturn]] void fail(int lineno, const std::string& msg) {
  throw std::invalid_argument("fault directive, line " +
                              std::to_string(lineno) + ": " + msg);
}

double to_double(const std::string& s, int lineno, const char* what) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(s, &pos);
    if (pos != s.size()) throw std::invalid_argument(s);
    return v;
  } catch (const std::exception&) {
    fail(lineno, std::string("bad ") + what + " '" + s + "'");
  }
}

sim::Time to_time(const std::string& s, int lineno, const char* what) {
  const std::optional<sim::Time> t =
      sim::Time::checked_seconds(to_double(s, lineno, what));
  if (!t) {
    fail(lineno, std::string(what) +
                     " must be finite seconds with |s| < 9.2e9, got '" + s +
                     "'");
  }
  return *t;
}

double to_prob(const std::string& s, int lineno, const char* what) {
  const double v = to_double(s, lineno, what);
  if (v < 0.0 || v > 1.0) {
    fail(lineno, std::string(what) + " must be in [0,1], got '" + s + "'");
  }
  return v;
}

std::int64_t to_int64(const std::string& s, int lineno, const char* what) {
  try {
    std::size_t pos = 0;
    const long long v = std::stoll(s, &pos);
    if (pos != s.size()) throw std::invalid_argument(s);
    return static_cast<std::int64_t>(v);
  } catch (const std::exception&) {
    fail(lineno, std::string("bad ") + what + " '" + s + "'");
  }
}

// Extracts an optional trailing dir=ab|ba|both token, removing it from
// `args` so the positional grammar below sees only its own operands.
FaultDir take_dir(std::vector<std::string>& args, int lineno) {
  for (auto it = args.begin(); it != args.end(); ++it) {
    if (it->rfind("dir=", 0) != 0) continue;
    const std::string v = it->substr(4);
    args.erase(it);
    if (v == "ab") return FaultDir::kAB;
    if (v == "ba") return FaultDir::kBA;
    if (v == "both") return FaultDir::kBoth;
    fail(lineno, "bad dir '" + v + "' (ab|ba|both)");
  }
  return FaultDir::kBoth;
}

void want(const std::vector<std::string>& args, std::size_t n,
          const char* usage, int lineno) {
  if (args.size() != n) fail(lineno, std::string("usage: ") + usage);
}

}  // namespace

void parse_fault_directive(FaultPlan& plan, const std::vector<std::string>& in,
                           int lineno) {
  if (in.empty()) fail(lineno, "empty fault directive");
  std::vector<std::string> args(in.begin() + 1, in.end());
  const std::string& kind = in.front();
  if (kind == "seed") {
    want(args, 1, "seed N", lineno);
    plan.set_seed(
        static_cast<std::uint64_t>(to_int64(args[0], lineno, "seed")));
    return;
  }
  const FaultDir dir = take_dir(args, lineno);
  if (kind == "down") {
    // Optional trailing policy word.
    net::DownPolicy policy = net::DownPolicy::kDrain;
    if (!args.empty() &&
        (args.back() == "drain" || args.back() == "discard")) {
      policy = args.back() == "discard" ? net::DownPolicy::kDiscard
                                        : net::DownPolicy::kDrain;
      args.pop_back();
    }
    want(args, 4, "down A B AT_SEC DUR_SEC [drain|discard] [dir=...]", lineno);
    LinkOutage o;
    o.link = {args[0], args[1], dir};
    o.at = to_time(args[2], lineno, "outage time");
    o.duration = to_time(args[3], lineno, "outage duration");
    o.policy = policy;
    plan.add_outage(std::move(o));
    return;
  }
  if (kind == "rate") {
    want(args, 4, "rate A B AT_SEC BPS [dir=...]", lineno);
    RateChange c;
    c.link = {args[0], args[1], dir};
    c.at = to_time(args[2], lineno, "change time");
    c.bits_per_second = to_int64(args[3], lineno, "rate");
    if (c.bits_per_second <= 0) fail(lineno, "rate must be positive");
    plan.add_rate_change(std::move(c));
    return;
  }
  if (kind == "delay") {
    want(args, 4, "delay A B AT_SEC SEC [dir=...]", lineno);
    DelayChange c;
    c.link = {args[0], args[1], dir};
    c.at = to_time(args[2], lineno, "change time");
    c.delay = to_time(args[3], lineno, "delay");
    plan.add_delay_change(std::move(c));
    return;
  }
  if (kind == "loss") {
    want(args, 3, "loss A B PROB [dir=...]", lineno);
    LinkImpairment i;
    i.link = {args[0], args[1], dir};
    i.model.loss = to_prob(args[2], lineno, "loss probability");
    plan.add_impairment(std::move(i));
    return;
  }
  if (kind == "gilbert") {
    want(args, 6,
         "gilbert A B P_GB P_BG LOSS_GOOD LOSS_BAD [dir=...]", lineno);
    LinkImpairment i;
    i.link = {args[0], args[1], dir};
    net::GilbertElliott ge;
    ge.p_good_to_bad = to_prob(args[2], lineno, "p_good_to_bad");
    ge.p_bad_to_good = to_prob(args[3], lineno, "p_bad_to_good");
    ge.loss_good = to_prob(args[4], lineno, "loss_good");
    ge.loss_bad = to_prob(args[5], lineno, "loss_bad");
    i.model.gilbert = ge;
    plan.add_impairment(std::move(i));
    return;
  }
  if (kind == "corrupt") {
    want(args, 3, "corrupt A B PROB [dir=...]", lineno);
    LinkImpairment i;
    i.link = {args[0], args[1], dir};
    i.model.corrupt = to_prob(args[2], lineno, "corruption probability");
    plan.add_impairment(std::move(i));
    return;
  }
  if (kind == "reorder") {
    want(args, 4, "reorder A B PROB MAX_SEC [dir=...]", lineno);
    LinkImpairment i;
    i.link = {args[0], args[1], dir};
    i.model.reorder = to_prob(args[2], lineno, "reorder probability");
    i.model.reorder_max = to_time(args[3], lineno, "reorder bound");
    if (i.model.reorder_max < sim::Time::zero()) {
      fail(lineno, "reorder bound must be non-negative");
    }
    plan.add_impairment(std::move(i));
    return;
  }
  fail(lineno, "unknown fault kind '" + kind +
                   "' (down|rate|delay|loss|gilbert|corrupt|reorder|seed)");
}

void load_fault_file(const std::string& path, FaultPlan& plan) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open fault file '" + path + "'");
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    std::vector<std::string> words;
    std::string w;
    while (ls >> w) words.push_back(w);
    if (words.empty()) continue;
    // Accept both bare directives and the .topo spelling with the leading
    // `fault` keyword, so a stanza can be copied between the two formats.
    if (words.front() == "fault") words.erase(words.begin());
    parse_fault_directive(plan, words, lineno);
  }
}

namespace {

// A transmit port an entry applies to, with the node that owns it — the
// shard whose clock any scripted shot against the port must fire on.
struct ResolvedPort {
  net::OutputPort* port;
  net::NodeId owner;
};

// The transmit ports an entry applies to, in (a->b, b->a) order.
std::vector<ResolvedPort> resolve_ports(Experiment& exp,
                                        const CompiledTopology& topo,
                                        const FaultLinkRef& link) {
  net::NodeId a, b;
  try {
    a = topo.id(link.a);
    b = topo.id(link.b);
  } catch (const std::out_of_range&) {
    throw std::invalid_argument("fault plan references unknown node in link " +
                                link.a + " - " + link.b);
  }
  std::vector<ResolvedPort> ports;
  if (link.dir != FaultDir::kBA) {
    net::OutputPort* p = exp.network().port_between(a, b);
    if (p == nullptr) {
      throw std::invalid_argument("fault plan references missing link " +
                                  link.a + " -> " + link.b);
    }
    ports.push_back({p, a});
  }
  if (link.dir != FaultDir::kAB) {
    net::OutputPort* p = exp.network().port_between(b, a);
    if (p == nullptr) {
      throw std::invalid_argument("fault plan references missing link " +
                                  link.b + " -> " + link.a);
    }
    ports.push_back({p, b});
  }
  return ports;
}

// Arms one shot on the simulator of the port's owner — the owning node's
// shard clock under a sharded run, the experiment-wide simulator otherwise —
// keyed under the owner's context, so the fault schedule orders identically
// at any shard count. The engine context is active again afterwards.
void arm_shot(Experiment& exp, net::NodeId owner, sim::Time at,
              sim::Scheduler::Action action) {
  sim::Simulator& sim = exp.network().sim_for(owner);
  sim.set_det_context(exp.network().node(owner).det_context());
  exp.add_timer(sim).arm_at(at, std::move(action));
  sim.activate_engine_context();
}

}  // namespace

void FaultPlan::apply(Experiment& exp, const CompiledTopology& topo) const {
  // Impairments first: merge every entry targeting the same port into one
  // model, then attach each with a stream seeded by first-reference order —
  // a pure function of the plan's declaration sequence.
  std::map<net::OutputPort*, net::Impairment> merged;
  std::vector<net::OutputPort*> order;
  for (const LinkImpairment& entry : impairments_) {
    for (const ResolvedPort& rp : resolve_ports(exp, topo, entry.link)) {
      net::OutputPort* port = rp.port;
      auto [it, inserted] = merged.try_emplace(port);
      if (inserted) order.push_back(port);
      net::Impairment& m = it->second;
      if (entry.model.loss > 0.0) m.loss = entry.model.loss;
      if (entry.model.gilbert.has_value()) m.gilbert = entry.model.gilbert;
      if (entry.model.corrupt > 0.0) m.corrupt = entry.model.corrupt;
      if (entry.model.reorder > 0.0) {
        m.reorder = entry.model.reorder;
        m.reorder_max = entry.model.reorder_max;
      }
    }
  }
  for (std::size_t k = 0; k < order.size(); ++k) {
    order[k]->attach_impairment(merged[order[k]],
                                util::mix_seed(seed_, k));
  }

  // Scripted interventions ride on experiment-owned RAII timers: the
  // Experiment outlives every shot, and arm_at preserves schedule order (one
  // schedule_at per intervention, in declaration order), so runs are byte
  // identical to the former raw schedule_at calls.
  for (const LinkOutage& o : outages_) {
    for (const ResolvedPort& rp : resolve_ports(exp, topo, o.link)) {
      net::OutputPort* port = rp.port;
      auto down = [port, policy = o.policy] {
        port->set_down_policy(policy);
        port->set_link_up(false);
      };
      static_assert(sim::Scheduler::Action::fits<decltype(down)>,
                    "link-down event must not heap-allocate");
      arm_shot(exp, rp.owner, o.at, std::move(down));
      auto up = [port] { port->set_link_up(true); };
      static_assert(sim::Scheduler::Action::fits<decltype(up)>,
                    "link-up event must not heap-allocate");
      arm_shot(exp, rp.owner, o.at + o.duration, std::move(up));
    }
  }
  for (const RateChange& c : rate_changes_) {
    for (const ResolvedPort& rp : resolve_ports(exp, topo, c.link)) {
      net::OutputPort* port = rp.port;
      auto change = [port, bps = c.bits_per_second] { port->set_rate(bps); };
      static_assert(sim::Scheduler::Action::fits<decltype(change)>,
                    "rate-change event must not heap-allocate");
      arm_shot(exp, rp.owner, c.at, std::move(change));
    }
  }
  for (const DelayChange& c : delay_changes_) {
    for (const ResolvedPort& rp : resolve_ports(exp, topo, c.link)) {
      net::OutputPort* port = rp.port;
      auto change = [port, delay = c.delay] {
        port->set_propagation_delay(delay);
      };
      static_assert(sim::Scheduler::Action::fits<decltype(change)>,
                    "delay-change event must not heap-allocate");
      arm_shot(exp, rp.owner, c.at, std::move(change));
    }
  }
}

}  // namespace tcpdyn::core
