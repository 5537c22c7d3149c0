#include "core/fault_plan.h"

#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "core/experiment.h"
#include "core/topology.h"
#include "net/network.h"
#include "net/port.h"
#include "util/rng.h"
#include "util/value.h"

namespace tcpdyn::core {

namespace {

using util::ValueKind;

[[noreturn]] void fail(const std::string& msg) {
  throw std::invalid_argument(msg);
}

// Extracts an optional trailing dir=ab|ba|both token, removing it from
// `args` so the positional grammar below sees only its own operands.
FaultDir take_dir(std::vector<std::string>& args) {
  for (auto it = args.begin(); it != args.end(); ++it) {
    if (it->rfind("dir=", 0) != 0) continue;
    const std::string v = it->substr(4);
    args.erase(it);
    if (v == "ab") return FaultDir::kAB;
    if (v == "ba") return FaultDir::kBA;
    if (v == "both") return FaultDir::kBoth;
    fail("bad dir '" + v + "' (ab|ba|both)");
  }
  return FaultDir::kBoth;
}

void want(const std::vector<std::string>& args, std::size_t n,
          const char* usage) {
  if (args.size() != n) fail(std::string("usage: ") + usage);
}

sim::Time seconds(const std::string& s, const char* what) {
  return sim::Time::seconds(util::read(ValueKind::kDelay, s, what));
}

double prob(const std::string& s, const char* what) {
  return util::read(ValueKind::kProbability, s, what);
}

// parse_fault_directive's grammar; errors carry no line yet.
const FaultLinkRef* add_directive(FaultPlan& plan,
                                  const std::vector<std::string>& in,
                                  const std::string& origin) {
  if (in.empty()) fail("empty fault directive");
  std::vector<std::string> args(in.begin() + 1, in.end());
  const std::string& kind = in.front();
  if (kind == "seed") {
    want(args, 1, "seed N");
    plan.set_seed(util::read_seed(args[0], "seed"));
    return nullptr;
  }
  const FaultDir dir = take_dir(args);
  // Called once `want` has checked the operand count.
  const auto entry = [&] {
    return FaultEntry{{args[0], args[1], dir}, origin};
  };
  if (kind == "down") {
    // Optional trailing policy word.
    net::DownPolicy policy = net::DownPolicy::kDrain;
    if (!args.empty() &&
        (args.back() == "drain" || args.back() == "discard")) {
      if (args.back() == "discard") policy = net::DownPolicy::kDiscard;
      args.pop_back();
    }
    want(args, 4, "down A B AT_SEC DUR_SEC [drain|discard] [dir=...]");
    plan.add_outage({entry(), seconds(args[2], "outage time"),
                     seconds(args[3], "outage duration"), policy});
    return &plan.outages().back().link;
  }
  if (kind == "rate") {
    want(args, 4, "rate A B AT_SEC BPS [dir=...]");
    plan.add_rate_change({entry(), seconds(args[2], "change time"),
                          util::read_as<std::int64_t>(
                              ValueKind::kBitsPerSecond, args[3], "rate")});
    return &plan.rate_changes().back().link;
  }
  if (kind == "delay") {
    want(args, 4, "delay A B AT_SEC SEC [dir=...]");
    plan.add_delay_change({entry(), seconds(args[2], "change time"),
                           seconds(args[3], "delay")});
    return &plan.delay_changes().back().link;
  }
  net::Impairment model;
  if (kind == "loss") {
    want(args, 3, "loss A B PROB [dir=...]");
    model.loss = prob(args[2], "loss probability");
  } else if (kind == "gilbert") {
    want(args, 6, "gilbert A B P_GB P_BG LOSS_GOOD LOSS_BAD [dir=...]");
    model.gilbert = net::GilbertElliott{
        prob(args[2], "p_good_to_bad"), prob(args[3], "p_bad_to_good"),
        prob(args[4], "loss_good"), prob(args[5], "loss_bad")};
  } else if (kind == "corrupt") {
    want(args, 3, "corrupt A B PROB [dir=...]");
    model.corrupt = prob(args[2], "corruption probability");
  } else if (kind == "reorder") {
    want(args, 4, "reorder A B PROB MAX_SEC [dir=...]");
    model.reorder = prob(args[2], "reorder probability");
    model.reorder_max = seconds(args[3], "reorder bound");
  } else {
    fail("unknown fault kind '" + kind +
         "' (down|rate|delay|loss|gilbert|corrupt|reorder|seed)");
  }
  plan.add_impairment({entry(), model});
  return &plan.impairments().back().link;
}

}  // namespace

const FaultLinkRef* parse_fault_directive(FaultPlan& plan,
                                          const std::vector<std::string>& args,
                                          std::size_t lineno,
                                          const std::string& origin) {
  try {
    return add_directive(plan, args, origin);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument("fault directive, line " +
                                std::to_string(lineno) + ": " + e.what());
  }
}

void load_fault_file(const std::string& path, FaultPlan& plan) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open fault file '" + path + "'");
  util::for_each_line(in, [&](std::size_t lineno,
                              std::vector<std::string>& words) {
    // Accept both bare directives and the .topo spelling with the leading
    // `fault` keyword, so a stanza can be copied between the two formats.
    if (words.front() == "fault") words.erase(words.begin());
    parse_fault_directive(
        plan, words, lineno,
        "fault file '" + path + "' line " + std::to_string(lineno));
  });
}

void FaultPlan::check_run_end(sim::Time end) const {
  const auto check = [end](sim::Time at, const std::string& origin) {
    if (at <= end) return;
    std::ostringstream msg;
    if (!origin.empty()) msg << origin << ": ";
    msg << "fault at " << at.sec()
        << " s is past the run end (warmup + duration = " << end.sec()
        << " s)";
    throw std::invalid_argument(msg.str());
  };
  for (const LinkOutage& o : outages_) check(o.at, o.origin);
  for (const RateChange& c : rate_changes_) check(c.at, c.origin);
  for (const DelayChange& c : delay_changes_) check(c.at, c.origin);
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
                                        const FaultEntry& entry) {
  const FaultLinkRef& link = entry.link;
  const auto reject = [&](const std::string& msg) {
    throw std::invalid_argument(
        (entry.origin.empty() ? "" : entry.origin + ": ") + msg);
  };
  net::NodeId a = 0, b = 0;
  try {
    a = topo.id(link.a);
    b = topo.id(link.b);
  } catch (const std::out_of_range&) {
    reject("fault plan references unknown node in link " + link.a + " - " +
           link.b);
  }
  std::vector<ResolvedPort> ports;
  const auto add = [&](net::NodeId from, net::NodeId to, const std::string& x,
                       const std::string& y) {
    net::OutputPort* p = exp.network().port_between(from, to);
    if (p == nullptr) {
      reject("fault plan references missing link " + x + " -> " + y);
    }
    ports.push_back({p, from});
  };
  if (link.dir != FaultDir::kBA) add(a, b, link.a, link.b);
  if (link.dir != FaultDir::kAB) add(b, a, link.b, link.a);
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
    for (const ResolvedPort& rp : resolve_ports(exp, topo, entry)) {
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
    for (const ResolvedPort& rp : resolve_ports(exp, topo, o)) {
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
    for (const ResolvedPort& rp : resolve_ports(exp, topo, c)) {
      net::OutputPort* port = rp.port;
      auto change = [port, bps = c.bits_per_second] { port->set_rate(bps); };
      static_assert(sim::Scheduler::Action::fits<decltype(change)>,
                    "rate-change event must not heap-allocate");
      arm_shot(exp, rp.owner, c.at, std::move(change));
    }
  }
  for (const DelayChange& c : delay_changes_) {
    for (const ResolvedPort& rp : resolve_ports(exp, topo, c)) {
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
