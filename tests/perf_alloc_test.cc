// Steady-state allocation audit for the simulator hot path.
//
// Overrides the global allocator with a counting shim and runs the paper's
// Fig. 2 configuration (three Tahoe connections through the 50 Kbps
// bottleneck, tau = 1 s) on a bare Network — no monitors or trace hooks,
// which by design append to growing buffers. After a warmup long enough for
// every pool to reach its working size (scheduler slab and heap, port rings,
// receiver reassembly buffers), continuing the run must perform ZERO heap
// allocations: every event flows through recycled slab slots, inline
// callables, and retained vector capacity.
//
// This is the regression gate for the allocation-free property; if a change
// reintroduces per-event heap traffic (a std::function that spills, a deque
// chunk, a set node), this test fails with the allocation count.
//
// The mesh case runs what the Fig. 2 dumbbell does not: a small mesh whose
// trunks cycle drop-tail, RED with ECN and DRR, and flows of the five
// adaptive controllers negotiating ECN. Its buffers, pools and tables grow
// to the most they hold, so a new high-water mark after warmup still
// allocates once; the gate is therefore a rate, not zero.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "net/network.h"
#include "sim/simulator.h"
#include "tcp/connection.h"
#include "util/rng.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

}  // namespace

// Replace the global allocator for this test binary. Deallocation functions
// must pair up (sized, aligned, nothrow), all funneling into free().
void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   (size + static_cast<std::size_t>(align) - 1) &
                                       ~(static_cast<std::size_t>(align) - 1))) {
    return p;
  }
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace tcpdyn {
namespace {

TEST(SteadyStateAllocations, Fig2HotPathIsAllocationFree) {
  sim::Simulator sim;
  net::Network net(sim);

  // Fig. 1 topology at the Fig. 2 operating point (§2.2, tau = 1 s).
  const net::NodeId h1 = net.add_host("H1");
  const net::NodeId h2 = net.add_host("H2");
  const net::NodeId s1 = net.add_switch("S1");
  const net::NodeId s2 = net.add_switch("S2");
  net.connect(h1, s1, 10'000'000, sim::Time::microseconds(100),
              net::QueueLimit::infinite(), net::QueueLimit::infinite());
  net.connect(h2, s2, 10'000'000, sim::Time::microseconds(100),
              net::QueueLimit::infinite(), net::QueueLimit::infinite());
  net.connect(s1, s2, 50'000, sim::Time::seconds(1.0), net::QueueLimit::of(20),
              net::QueueLimit::of(20));
  net.compute_routes();

  tcp::ConnectionConfig base;
  base.src_host = h1;
  base.dst_host = h2;
  std::vector<std::unique_ptr<tcp::Connection>> conns;
  for (net::ConnId id = 0; id < 3; ++id) {
    tcp::ConnectionConfig cfg = base;
    cfg.id = id;
    conns.push_back(std::make_unique<tcp::Connection>(net, cfg));
  }

  // Warmup: slow start, several congestion epochs, every buffer at its
  // working capacity (tau = 1 s puts epochs on a ~100 s scale).
  sim.run_until(sim::Time::seconds(500.0));
  const std::uint64_t events_before = sim.events_executed();
  const std::uint64_t acks_before = conns[0]->sender().counters().acks_received;

  const std::uint64_t allocs_before =
      g_allocations.load(std::memory_order_relaxed);
  sim.run_until(sim::Time::seconds(1000.0));
  const std::uint64_t allocs_after =
      g_allocations.load(std::memory_order_relaxed);

  // The window must have exercised the full hot path: transmissions, drops,
  // retransmission timers, ACK processing.
  EXPECT_GT(sim.events_executed() - events_before, 10'000u);
  EXPECT_GT(conns[0]->sender().counters().acks_received, acks_before);

  EXPECT_EQ(allocs_after - allocs_before, 0u)
      << "simulator hot path allocated "
      << (allocs_after - allocs_before)
      << " times during 500 simulated seconds of steady state";
}

// The remaining allocations are growth to a new working size, each rare
// and bounded: a port's ring doubling at a new occupancy high (an `inf`
// access port or a drop-tail trunk), a DRR port's packet pool or flow index
// reaching a new high, a BBR bandwidth filter or a SACK scoreboard reaching
// a new largest size, a receiver's reassembly buffer meeting a deeper hole.
// Seven of these fell in the window (four rings, two BBR filters, one
// reassembly buffer) against about two million events. A per-packet or
// per-flow allocation (a map node per flow, a deque chunk every few
// packets) shows as hundreds or thousands.
TEST(SteadyStateAllocations, DrrRedMeshAllocatesOnlyToGrow) {
  sim::Simulator sim;
  net::Network net(sim);
  constexpr std::size_t kSwitches = 12;
  constexpr std::size_t kHosts = 24;
  constexpr std::size_t kFlows = 40;
  util::Rng rng(20);

  std::vector<net::NodeId> switches;
  for (std::size_t i = 0; i < kSwitches; ++i) {
    switches.push_back(net.add_switch("W" + std::to_string(i + 1)));
  }
  std::vector<net::NodeId> hosts;
  for (std::size_t k = 0; k < kHosts; ++k) {
    hosts.push_back(net.add_host("H" + std::to_string(k + 1)));
  }
  // A ring plus chords across it; trunk disciplines cycle through the
  // three of the mesh_zoo benchmark.
  std::size_t trunks = 0;
  const auto trunk = [&](std::size_t i, std::size_t j) {
    net::QdiscConfig qdisc;
    switch (trunks++ % 3) {
      case 0: qdisc.kind = net::QdiscKind::kDropTail; break;
      case 1:
        qdisc.kind = net::QdiscKind::kRed;
        qdisc.red.ecn = true;
        break;
      default: qdisc.kind = net::QdiscKind::kDrr; break;
    }
    net.connect(switches[i], switches[j], 1'000'000,
                sim::Time::milliseconds(5), net::QueueLimit::of(30),
                net::QueueLimit::of(30), qdisc);
  };
  for (std::size_t i = 0; i < kSwitches; ++i) trunk(i, (i + 1) % kSwitches);
  for (std::size_t i = 0; i < kSwitches / 2; i += 2) {
    trunk(i, i + kSwitches / 2);
  }
  for (std::size_t k = 0; k < kHosts; ++k) {
    net.connect(hosts[k], switches[k % kSwitches], 10'000'000,
                sim::Time::microseconds(100), net::QueueLimit::infinite(),
                net::QueueLimit::infinite());
  }
  net.compute_routes();

  constexpr tcp::CcAlgorithm kKinds[] = {
      tcp::CcAlgorithm::kTahoe, tcp::CcAlgorithm::kNewReno,
      tcp::CcAlgorithm::kCubic, tcp::CcAlgorithm::kVegas,
      tcp::CcAlgorithm::kBbr};
  std::vector<std::unique_ptr<tcp::Connection>> conns;
  for (std::size_t f = 0; f < kFlows; ++f) {
    tcp::ConnectionConfig cfg;
    cfg.id = static_cast<net::ConnId>(f);
    cfg.kind = kKinds[f % 5];
    cfg.ecn = true;
    const std::size_t src = rng.next_below(kHosts);
    std::size_t dst = rng.next_below(kHosts - 1);
    if (dst >= src) ++dst;
    cfg.src_host = hosts[src];
    cfg.dst_host = hosts[dst];
    cfg.start_time = sim::Time::seconds(rng.uniform(0.0, 5.0));
    conns.push_back(std::make_unique<tcp::Connection>(net, cfg));
  }

  sim.run_until(sim::Time::seconds(60.0));
  const std::uint64_t events_before = sim.events_executed();
  const std::uint64_t allocs_before =
      g_allocations.load(std::memory_order_relaxed);
  sim.run_until(sim::Time::seconds(90.0));
  const std::uint64_t allocs =
      g_allocations.load(std::memory_order_relaxed) - allocs_before;
  const std::uint64_t events = sim.events_executed() - events_before;

  std::uint64_t drops = 0;
  std::uint64_t marks = 0;
  net.for_each_port([&](net::OutputPort& port) {
    drops += port.counters().drops;
    marks += port.counters().marks;
  });
  EXPECT_GT(events, 1'000'000u);
  EXPECT_GT(drops, 0u);
  EXPECT_GT(marks, 0u);
  EXPECT_LT(allocs * 100'000, events)
      << "the mesh hot path allocated " << allocs << " times in " << events
      << " events after warmup";
}

}  // namespace
}  // namespace tcpdyn
