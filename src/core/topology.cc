#include "core/topology.h"

#include <algorithm>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <utility>

#include "util/rng.h"
#include "util/value.h"

namespace tcpdyn::core {

net::NodeId CompiledTopology::id(const std::string& name) const {
  auto it = by_name.find(name);
  if (it == by_name.end()) {
    throw std::out_of_range("topology has no node named '" + name + "'");
  }
  return it->second;
}

std::size_t Topology::add_node(std::string name, bool host) {
  if (index_.contains(name)) {
    throw std::invalid_argument("duplicate node name '" + name + "'");
  }
  const std::size_t idx = nodes_.size();
  index_[name] = idx;
  nodes_.push_back({std::move(name), host});
  host_link_count_.push_back(0);
  return idx;
}

std::size_t Topology::add_host(std::string name) {
  return add_node(std::move(name), /*host=*/true);
}

std::size_t Topology::add_switch(std::string name) {
  return add_node(std::move(name), /*host=*/false);
}

void Topology::add_link(const LinkSpec& link) {
  if (link.a >= nodes_.size() || link.b >= nodes_.size()) {
    throw std::invalid_argument("link endpoint index out of range");
  }
  if (link.a == link.b) {
    throw std::invalid_argument("link endpoints must differ ('" +
                                nodes_[link.a].name + "')");
  }
  const auto reject = [&](const std::string& what) {
    throw std::invalid_argument("link '" + nodes_[link.a].name + "'-'" +
                                nodes_[link.b].name + "': " + what);
  };
  if (link.bits_per_second <= 0) {
    reject("rate must be > 0 b/s, got " +
           std::to_string(link.bits_per_second));
  }
  if (link.delay < sim::Time::zero()) {
    reject("delay must be >= 0, got " + std::to_string(link.delay.ns()) +
           " ns");
  }
  for (const std::size_t end : {link.a, link.b}) {
    if (nodes_[end].host && host_link_count_[end] > 0) {
      throw std::invalid_argument("host '" + nodes_[end].name +
                                  "' already has its access link");
    }
  }
  ++host_link_count_[link.a];
  ++host_link_count_[link.b];
  links_.push_back(link);
}

void Topology::add_link(std::size_t a, std::size_t b,
                        std::int64_t bits_per_second, sim::Time delay,
                        net::QueueLimit buffer,
                        const net::QdiscConfig& qdisc) {
  LinkSpec l;
  l.a = a;
  l.b = b;
  l.bits_per_second = bits_per_second;
  l.delay = delay;
  l.buffer_ab = buffer;
  l.buffer_ba = buffer;
  l.qdisc = qdisc;
  add_link(l);
}

void Topology::monitor(std::size_t a, std::size_t b) {
  for (const LinkSpec& l : links_) {
    if ((l.a == a && l.b == b) || (l.a == b && l.b == a)) {
      monitors_.emplace_back(a, b);
      return;
    }
  }
  throw std::invalid_argument("monitor: no link between '" +
                              nodes_.at(a).name + "' and '" +
                              nodes_.at(b).name + "'");
}

std::size_t Topology::index(const std::string& name) const {
  auto it = index_.find(name);
  if (it == index_.end()) {
    throw std::out_of_range("topology has no node named '" + name + "'");
  }
  return it->second;
}

bool Topology::has_node(const std::string& name) const {
  return index_.contains(name);
}

std::size_t Topology::host_count() const {
  std::size_t n = 0;
  for (const NodeDecl& d : nodes_) n += d.host;
  return n;
}

std::optional<std::size_t> Topology::first_unreachable() const {
  if (nodes_.empty()) return std::nullopt;
  std::vector<std::vector<std::size_t>> adj(nodes_.size());
  for (const LinkSpec& l : links_) {
    adj[l.a].push_back(l.b);
    adj[l.b].push_back(l.a);
  }
  std::vector<bool> seen(nodes_.size(), false);
  std::vector<std::size_t> stack{0};
  seen[0] = true;
  while (!stack.empty()) {
    const std::size_t u = stack.back();
    stack.pop_back();
    for (const std::size_t v : adj[u]) {
      if (!seen[v]) {
        seen[v] = true;
        stack.push_back(v);
      }
    }
  }
  const auto it = std::find(seen.begin(), seen.end(), false);
  if (it == seen.end()) return std::nullopt;
  return static_cast<std::size_t>(it - seen.begin());
}

std::string Topology::unreachable_message(std::size_t node) const {
  return "node '" + nodes_.at(node).name + "' is unreachable from '" +
         nodes_.front().name + "'";
}

void Topology::check_connected() const {
  if (nodes_.empty()) throw std::invalid_argument("topology has no nodes");
  if (const auto node = first_unreachable()) {
    throw std::invalid_argument("topology is disconnected: " +
                                unreachable_message(*node));
  }
}

CompiledTopology Topology::compile(Experiment& exp,
                                   std::int64_t route_ref_bytes) const {
  check_connected();
  net::Network& net = exp.network();
  CompiledTopology out;
  out.node_ids.reserve(nodes_.size());
  for (const NodeDecl& d : nodes_) {
    const net::NodeId id =
        d.host ? net.add_host(d.name) : net.add_switch(d.name);
    out.node_ids.push_back(id);
    out.by_name[d.name] = id;
  }
  for (const LinkSpec& l : links_) {
    net.connect(out.node_ids[l.a], out.node_ids[l.b], l.bits_per_second,
                l.delay, l.buffer_ab, l.buffer_ba, l.qdisc);
  }
  net.compute_routes(route_ref_bytes);
  for (const auto& [a, b] : monitors_) {
    exp.monitor(out.node_ids[a], out.node_ids[b]);
  }
  return out;
}

// --------------------------------------------------------- TrafficMatrix

std::size_t TrafficMatrix::add(ConnSpec spec) {
  if (spec.count == 0) {
    throw std::invalid_argument("ConnSpec count must be >= 1");
  }
  specs_.push_back(std::move(spec));
  return specs_.size() - 1;
}

std::size_t TrafficMatrix::flow_count() const {
  std::size_t n = 0;
  for (const ConnSpec& s : specs_) n += s.count;
  return n;
}

std::size_t TrafficMatrix::instantiate(Experiment& exp,
                                       const CompiledTopology& topo) const {
  net::ConnId next_id = static_cast<net::ConnId>(exp.connection_count());
  std::size_t added = 0;
  for (const ConnSpec& s : specs_) {
    const net::NodeId src = topo.id(s.src);
    const net::NodeId dst = topo.id(s.dst);
    util::Rng rng(s.seed);
    double arrival_sec = 0.0;  // accumulated Poisson inter-arrival gaps
    for (std::size_t j = 0; j < s.count; ++j) {
      tcp::ConnectionConfig cfg = s.to_config();
      cfg.id = next_id++;
      cfg.src_host = src;
      cfg.dst_host = dst;
      if (s.arrival_rate > 0.0) {
        arrival_sec += rng.exponential(s.arrival_rate);
        cfg.start_time = s.start_time + sim::Time::seconds(arrival_sec);
        if (s.session_time > sim::Time::zero()) {
          cfg.stop_time = cfg.start_time + s.session_time;
        }
      } else if (s.start_spread > sim::Time::zero()) {
        cfg.start_time =
            s.start_time +
            sim::Time::seconds(rng.uniform(0.0, s.start_spread.sec()));
      }
      exp.add_connection(cfg);
      ++added;
    }
  }
  return added;
}

// ----------------------------------------------------------- file parser

namespace {

using util::read_as;
using util::ValueKind;

[[noreturn]] void parse_error(std::size_t line, const std::string& msg) {
  throw std::invalid_argument("topology file line " + std::to_string(line) +
                              ": " + msg);
}

// A malformed line; parse_topology adds the line number.
[[noreturn]] void fail(const std::string& msg) {
  throw std::invalid_argument(msg);
}

sim::Time seconds(ValueKind kind, const std::string& tok,
                  const std::string& what) {
  return sim::Time::seconds(util::read(kind, tok, what));
}

// A buffer of at least one packet, or "inf". A 0-packet buffer cannot hold
// the packet in service, so every packet would drop; a dead link is spelled
// `fault down`.
net::QueueLimit buffer(const std::string& tok) {
  if (tok == "inf") return net::QueueLimit::infinite();
  return net::QueueLimit::of(
      read_as<std::size_t>(ValueKind::kBuffer, tok, "buffer"));
}

// The key and value of a key=value option.
std::pair<std::string, std::string> option(const std::string& arg,
                                           const char* what) {
  const auto eq = arg.find('=');
  if (eq == std::string::npos) {
    fail(std::string(what) + " options are key=value, got '" + arg + "'");
  }
  return {arg.substr(0, eq), arg.substr(eq + 1)};
}

// `link`'s optional discipline word and its key=value options.
void parse_qdisc(net::QdiscConfig& q, const std::vector<std::string>& args) {
  // The registry supplies the did-you-mean error text.
  const net::QdiscChoice& choice =
      net::qdisc_registry().require(args[6], "queue discipline");
  q.kind = choice.kind;
  q.red.ecn = choice.ecn;
  const bool red = q.kind == net::QdiscKind::kRed;
  const bool drr = q.kind == net::QdiscKind::kDrr;
  if (!red && !drr && args.size() > 7) {
    fail("'" + args[6] + "' takes no options");
  }
  // Each option belongs to one discipline; naming it on another would be
  // accepted and then ignored.
  const auto owned_by = [&](bool owner, const std::string& key,
                            const char* discipline) {
    if (!owner) {
      fail("'" + key + "' is a " + discipline + " option, but the link runs '" +
           args[6] + "'");
    }
  };
  for (std::size_t i = 7; i < args.size(); ++i) {
    const auto [key, val] = option(args[i], "qdisc");
    if (key == "min_th") {
      owned_by(red, key, "RED");
      q.red.min_th = read_as<std::size_t>(ValueKind::kCount, val, key);
    } else if (key == "max_th") {
      owned_by(red, key, "RED");
      q.red.max_th = read_as<std::size_t>(ValueKind::kCount, val, key);
    } else if (key == "wq_shift") {
      owned_by(red, key, "RED");
      // The EWMA weight is 2^-wq_shift of a 64-bit average.
      const double shift = util::read(ValueKind::kCount, val, key);
      if (shift > 63) fail("wq_shift must be in 0..63, got '" + val + "'");
      q.red.wq_shift = static_cast<unsigned>(shift);
    } else if (key == "max_p") {
      owned_by(red, key, "RED");
      // The queue keeps max_p in 1/65536ths; a 0 there never drops early.
      const double p = util::read(ValueKind::kProbability, val, key);
      q.red.max_p_65536 = static_cast<std::uint32_t>(p * 65536.0 + 0.5);
      if (q.red.max_p_65536 == 0) {
        fail("max_p must round to at least 1/65536, got '" + val + "'");
      }
    } else if (key == "quantum") {
      owned_by(drr, key, "DRR");
      q.drr.quantum_bytes = read_as<std::size_t>(ValueKind::kCount, val, key);
      if (q.drr.quantum_bytes == 0) {
        fail("quantum must be >= 1 byte, got '" + val + "'");
      }
    } else {
      fail("unknown qdisc option '" + key + "'");
    }
  }
  // min_th >= max_th leaves RED no probabilistic band: every arrival at an
  // average of max_th or more is force-dropped.
  if (red && q.red.min_th >= q.red.max_th) {
    fail("RED needs min_th < max_th, got min_th=" +
         std::to_string(q.red.min_th) +
         " max_th=" + std::to_string(q.red.max_th));
  }
}

ConnSpec parse_flow(const TopoSpec& spec, const std::vector<std::string>& args,
                    std::uint64_t seed) {
  ConnSpec c;
  c.src = args[0];
  c.dst = args[1];
  if (!spec.topo.has_node(c.src) || !spec.topo.has_node(c.dst)) {
    fail("flow endpoints must be declared nodes");
  }
  c.seed = seed;
  for (std::size_t i = 2; i < args.size(); ++i) {
    const auto [key, val] = option(args[i], "flow");
    if (key == "count") {
      c.count = read_as<std::size_t>(ValueKind::kCount, val, key);
    } else if (key == "kind") {
      // Full CcAlgorithm zoo, straight from the registry (with
      // did-you-mean errors).
      c.kind = tcp::cc_registry().require(val, "sender kind");
    } else if (key == "window") {
      c.fixed_window = read_as<std::uint32_t>(ValueKind::kU32, val, key);
    } else if (key == "start") {
      c.start_time = seconds(ValueKind::kSeconds, val, key);
    } else if (key == "spread") {
      c.start_spread = seconds(ValueKind::kSeconds, val, key);
    } else if (key == "stop") {
      c.stop_time = seconds(ValueKind::kSeconds, val, key);
    } else if (key == "seed") {
      c.seed = util::read_seed(val, key);
    } else if (key == "maxwnd") {
      c.maxwnd = read_as<std::uint32_t>(ValueKind::kU32, val, key);
    } else if (key == "delayed_ack") {
      c.delayed_ack = util::read(ValueKind::kSwitch, val, key) != 0.0;
    } else if (key == "ecn") {
      c.ecn = util::read(ValueKind::kSwitch, val, key) != 0.0;
    } else if (key == "pacing") {
      c.pacing_interval = seconds(ValueKind::kSeconds, val, key);
    } else if (key == "rate") {
      // Open-loop Poisson session arrivals (flows/sec); see ConnSpec.
      c.arrival_rate = util::read(ValueKind::kRate, val, key);
    } else if (key == "session") {
      c.session_time = seconds(ValueKind::kSeconds, val, key);
    } else if (key == "data") {
      c.data_bytes = read_as<std::uint32_t>(ValueKind::kU32, val, key);
    } else if (key == "ack") {
      c.ack_bytes = read_as<std::uint32_t>(ValueKind::kU32, val, key);
    } else {
      fail("unknown flow option '" + key + "'");
    }
  }
  return c;
}

}  // namespace

TopoSpec parse_topology(std::istream& in) {
  TopoSpec spec;
  bool seen_seed = false;
  std::size_t flow_index = 0;
  std::vector<std::size_t> node_lines;  // the line declaring each node
  util::for_each_line(in, [&](std::size_t lineno,
                              std::vector<std::string>& args) {
    const std::string word = args.front();
    args.erase(args.begin());
    if (word == "fault") {
      // Node and link references resolve when the plan is applied, after
      // compile; the endpoints are checked here for a line-numbered error.
      // The fault grammar names its own line.
      const FaultLinkRef* link = parse_fault_directive(
          spec.faults, args, lineno,
          "topology file line " + std::to_string(lineno));
      if (link != nullptr &&
          !(spec.topo.has_node(link->a) && spec.topo.has_node(link->b))) {
        parse_error(lineno, "fault endpoints must be declared nodes");
      }
      return;
    }
    const auto want = [&](std::size_t n, const char* usage) {
      if (args.size() < n) fail(std::string("usage: ") + usage);
    };
    try {
      if (word == "name") {
        want(1, "name NAME");
        spec.name = args[0];
      } else if (word == "host" || word == "switch") {
        want(1, word == "host" ? "host NAME" : "switch NAME");
        if (word == "host") {
          spec.topo.add_host(args[0]);
        } else {
          spec.topo.add_switch(args[0]);
        }
        node_lines.push_back(lineno);
      } else if (word == "link") {
        want(6,
             "link A B BPS DELAY_SEC BUF_AB BUF_BA "
             "[droptail|randomdrop|red|red-ecn|drr] [key=value...]");
        LinkSpec l;
        l.a = spec.topo.index(args[0]);
        l.b = spec.topo.index(args[1]);
        l.bits_per_second = read_as<std::int64_t>(ValueKind::kBitsPerSecond,
                                                  args[2], "link rate");
        l.delay = seconds(ValueKind::kDelay, args[3], "link delay");
        l.buffer_ab = buffer(args[4]);
        l.buffer_ba = buffer(args[5]);
        if (args.size() > 6) parse_qdisc(l.qdisc, args);
        spec.topo.add_link(l);
      } else if (word == "monitor") {
        want(2, "monitor A B");
        spec.topo.monitor(spec.topo.index(args[0]), spec.topo.index(args[1]));
      } else if (word == "flow") {
        want(2, "flow SRC DST [key=value...]");
        spec.traffic.add(
            parse_flow(spec, args, util::mix_seed(spec.seed, flow_index)));
        ++flow_index;
      } else if (word == "warmup") {
        want(1, "warmup SEC");
        spec.warmup = seconds(ValueKind::kDelay, args[0], word);
      } else if (word == "duration") {
        want(1, "duration SEC");
        spec.duration = seconds(ValueKind::kDelay, args[0], word);
      } else if (word == "epoch_gap") {
        want(1, "epoch_gap SEC");
        spec.epoch_gap_sec = util::read(ValueKind::kDelay, args[0], word);
      } else if (word == "seed") {
        want(1, "seed N");
        if (seen_seed) fail("duplicate seed directive");
        if (flow_index > 0) fail("seed must come before the first flow");
        seen_seed = true;
        spec.seed = util::read_seed(args[0], word);
      } else {
        fail("unknown directive '" + word + "'");
      }
    } catch (const std::logic_error& e) {  // invalid_argument, out_of_range
      parse_error(lineno, e.what());
    }
  });
  if (spec.topo.node_count() == 0) {
    throw std::invalid_argument("topology file declares no nodes");
  }
  if (const auto node = spec.topo.first_unreachable()) {
    parse_error(node_lines[*node], spec.topo.unreachable_message(*node));
  }
  spec.faults.check_run_end(spec.warmup + spec.duration);
  return spec;
}

TopoSpec load_topology_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot open topology file '" + path + "'");
  }
  return parse_topology(in);
}

}  // namespace tcpdyn::core
