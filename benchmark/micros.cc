#include "micros.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>
#include <vector>

#include "core/experiment.h"
#include "core/topology.h"
#include "net/queue.h"
#include "sim/simulator.h"
#include "trace.h"
#include "util/rng.h"
#include "util/streaming_series.h"

namespace tcpdyn::bench {

namespace {

constexpr int kReps = 3;  // each micro reports its fastest repetition

template <typename F>
double fastest(F&& once) {
  double best = once();
  for (int i = 1; i < kReps; ++i) best = std::min(best, once());
  return best;
}

// Scheduler churn at a fixed pending-set size: `pending` self-rescheduling
// chains with uniform delays, plus a decoy re-armed every third firing and
// cancelled before it can fire, so one scheduled event in four is
// cancelled. Nanoseconds per scheduled event.
double sched_ns(std::size_t pending, std::uint64_t firings) {
  struct Load {
    sim::Simulator sim;
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    std::uint64_t fired = 0;
    std::uint64_t limit = 0;
    std::uint64_t scheduled = 0;
    std::int64_t span_ns = 10'000'000;
    sim::EventHandle decoy;

    std::int64_t draw() {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return static_cast<std::int64_t>(x % static_cast<std::uint64_t>(span_ns));
    }
    void chain() {
      sim.schedule(sim::Time::nanoseconds(draw()), [this] { fire(); });
      ++scheduled;
    }
    void fire() {
      if (++fired == limit) sim.stop();
      chain();
      if (fired % 3 == 0) {
        // Three firings take far less than span_ns with >= 2 chains, so the
        // decoy is always still pending here.
        decoy.cancel();
        decoy = sim.schedule(sim::Time::nanoseconds(span_ns), [] {});
        ++scheduled;
      }
    }
  };
  return fastest([&] {
    auto load = std::make_unique<Load>();
    load->limit = firings;
    for (std::size_t i = 0; i < pending; ++i) load->chain();
    const std::uint64_t before = load->scheduled;
    const std::int64_t t0 = now_ns();
    load->sim.run_all();
    const std::int64_t t1 = now_ns();
    return static_cast<double>(t1 - t0) /
           static_cast<double>(load->scheduled - before);
  });
}

// The paper's dumbbell (Fig. 1) as .topo text.
constexpr const char* kDumbbellTopo =
    "switch S1\nswitch S2\nhost H1\nhost H2\n"
    "link H1 S1 10000000 0.0001 inf inf\n"
    "link S1 S2 50000 0.01 20 20\n"
    "link H2 S2 10000000 0.0001 inf inf\n";

// Switch::receive on a compiled network: packets for every host in turn
// (shuffled), 32 per batch, through the switch with the most ports. Only
// the receive calls are timed; between batches the switch's ports are
// flushed so buffers never fill and the forwarding path, not the drop
// path, is measured. Monitor lines are dropped so no trace hook runs.
double switch_fwd_ns(const std::string& topo_text, std::uint64_t receives) {
  std::istringstream in(topo_text);
  std::string unmonitored;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("monitor", 0) != 0) unmonitored += line + "\n";
  }
  std::istringstream text(unmonitored);
  core::Experiment exp;
  core::parse_topology(text).topo.compile(exp);
  net::Network& net = exp.network();
  std::vector<net::NodeId> hosts;
  net::Switch* sw = nullptr;
  for (net::NodeId id = 0; id < net.node_count(); ++id) {
    if (net.is_host(id)) {
      hosts.push_back(id);
    } else if (sw == nullptr ||
               net.switch_node(id).port_count() > sw->port_count()) {
      sw = &net.switch_node(id);
    }
  }
  util::Rng rng(7);
  for (std::size_t i = hosts.size(); i > 1; --i) {
    std::swap(hosts[i - 1], hosts[rng.next_below(i)]);
  }
  for (std::size_t i = 0; i < sw->port_count(); ++i) {
    sw->port(i).set_down_policy(net::DownPolicy::kDiscard);
  }
  net::Packet pkt;
  pkt.size_bytes = 500;
  pkt.src = hosts.front();
  constexpr std::size_t kBatch = 32;
  return fastest([&] {
    std::int64_t busy = 0;
    std::size_t next = 0;
    for (std::uint64_t done = 0; done < receives; done += kBatch) {
      const std::int64_t t0 = now_ns();
      for (std::size_t k = 0; k < kBatch; ++k) {
        pkt.dst = hosts[next];
        next = next + 1 == hosts.size() ? 0 : next + 1;
        ++pkt.uid;
        sw->receive(pkt);
      }
      busy += now_ns() - t0;
      for (std::size_t i = 0; i < sw->port_count(); ++i) {
        sw->port(i).set_link_up(false);
        sw->port(i).set_link_up(true);
      }
      exp.sim().run_all();  // drops the cancelled transmissions
    }
    return static_cast<double>(busy) / static_cast<double>(receives);
  });
}

// offer + pop through one discipline at a steady occupancy. Packets cycle
// over `flows` connections (DRR keeps one FIFO per flow). Nanoseconds per
// offer/pop pair.
double qdisc_ns(const net::QdiscConfig& config, std::size_t flows,
                std::size_t occupancy, std::uint64_t pairs) {
  return fastest([&] {
    auto q = net::make_qdisc(config, 1);
    net::Packet pkt;
    pkt.size_bytes = 500;
    pkt.ecn = net::kEcnEct;
    std::size_t next = 0;
    const auto offer = [&] {
      pkt.conn = static_cast<net::ConnId>(next);
      next = next + 1 == flows ? 0 : next + 1;
      ++pkt.uid;
      q->offer(pkt);
    };
    while (q->length() < occupancy) offer();
    const std::int64_t t0 = now_ns();
    for (std::uint64_t i = 0; i < pairs; ++i) {
      offer();
      q->pop();
    }
    return static_cast<double>(now_ns() - t0) / static_cast<double>(pairs);
  });
}

double streaming_add_ns(std::uint64_t points) {
  return fastest([&] {
    util::StreamingSeries series(64);
    std::uint64_t x = 1;
    const std::int64_t t0 = now_ns();
    for (std::uint64_t i = 0; i < points; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      series.record(static_cast<double>(i) * 1e-3,
                    static_cast<double>(x >> 58));
    }
    const std::int64_t t1 = now_ns();
    return static_cast<double>(t1 - t0) / static_cast<double>(points);
  });
}

}  // namespace

std::map<std::string, double> run_micros(const std::string& mesh_topo,
                                         bool quick) {
  const std::uint64_t scale = quick ? 10 : 1;
  std::map<std::string, double> out;
  out["sim.sched_ns_16"] = sched_ns(16, 3'000'000 / scale);
  out["sim.sched_ns_100k"] = sched_ns(100'000, 1'000'000 / scale);

  out["net.switch_fwd_ns_2"] = switch_fwd_ns(kDumbbellTopo, 1'000'000 / scale);
  out["net.switch_fwd_ns_750"] = switch_fwd_ns(mesh_topo, 1'000'000 / scale);

  net::QdiscConfig droptail = net::QdiscConfig::drop_tail(
      net::QueueLimit::of(64));
  out["net.qdisc_ns.droptail"] = qdisc_ns(droptail, 1, 32, 4'000'000 / scale);
  net::QdiscConfig red;
  red.kind = net::QdiscKind::kRed;
  red.limit = net::QueueLimit::of(64);
  red.red.ecn = true;  // in-band arrivals are marked, so occupancy holds
  out["net.qdisc_ns.red"] = qdisc_ns(red, 1, 10, 4'000'000 / scale);
  net::QdiscConfig drr;
  drr.kind = net::QdiscKind::kDrr;
  drr.limit = net::QueueLimit::of(2000);
  out["net.qdisc_ns.drr"] = qdisc_ns(drr, 1000, 1000, 2'000'000 / scale);

  out["util.streaming_add_ns"] = streaming_add_ns(4'000'000 / scale);
  return out;
}

}  // namespace tcpdyn::bench
