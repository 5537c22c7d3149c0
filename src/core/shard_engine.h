// Deterministic intra-run sharding: conservative-lookahead parallel
// execution of one TopoSpec experiment across N shard simulators, bit-for-
// bit identical to the same spec run on one shard regardless of N.
//
// How it works (DESIGN.md §14 has the full argument):
//
//  * plan_shards() partitions the topology nodes into N regions by greedy
//    lowest-delay-first growth (Prim-like, smallest-node-id seeds), after
//    contracting links whose effective minimum propagation delay is too
//    small to cut. Every link crossing the partition is a "cut link"; the
//    lookahead L is the minimum effective delay over cut links, where
//    "effective" already accounts for scripted delay changes in the fault
//    plan, so mid-run dynamics can never shrink a crossing below L.
//
//  * ShardedEngine builds one Experiment whose nodes, ports, endpoints, and
//    fault timers all schedule on their owning shard's simulator (the
//    Network sim-resolver seam), then runs conservative barrier rounds:
//    every shard executes events strictly before a shared horizon H, a
//    barrier drains cross-shard mailboxes, and the next horizon is
//    H' = min(m + L, end + 1ns) with m the global earliest pending event.
//    A packet crossing a cut link departs at s >= m and arrives at
//    s + delay >= m + L >= H, so no shard can ever receive work in its past.
//
//  * Determinism: every simulator orders events by deterministic keys
//    (sim/det_context.h) — (firing time, birth time, per-node tie) — and a
//    packet handed across a shard boundary carries the exact key the
//    transmitting side would have used for a local delivery. Keys are a
//    function of per-node event histories only, never of the partition, so
//    the merged execution order is the serial run's at every shard count
//    (shard_equivalence_test pins serial and 1/2/4 shards, whose schedulers
//    stage different shares of their events on the timer wheel).
//
//  * Audit: each shard keeps its own packet-lifecycle ledger; a crossing
//    packet is handed between ledgers at the barrier (exactly-once
//    attribution), and the ledgers are absorbed into one and finalized
//    against the whole network after the run, closing the same conservation
//    law a serial run closes.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
#include <vector>

#include "core/audit.h"
#include "core/experiment.h"
#include "core/topology.h"
#include "net/packet.h"
#include "sim/simulator.h"

namespace tcpdyn::core {

// The result of partitioning a topology for sharded execution.
struct ShardPlan {
  std::size_t shards = 1;                  // populated shard count (<= asked)
  std::vector<std::size_t> shard_of;       // topology node index -> shard
  sim::Time lookahead = sim::Time::max();  // min effective delay on the cut
  std::vector<std::size_t> cut_links;      // indices into Topology::links()
};

// Links with an effective minimum propagation delay below this can never be
// cut: the conservative lookahead they would impose makes barrier rounds
// degenerate. plan_shards() contracts them before growing regions.
inline constexpr std::int64_t kMinCutDelayNs = 1000;  // 1 microsecond

// Deterministic partition of `topo` into (at most) `shards` regions.
// `faults` contributes scripted delay changes to the effective minimum
// delay of each link. Pure function of its arguments: same topology + plan
// + shard count produce the same partition on every machine.
ShardPlan plan_shards(const Topology& topo, const FaultPlan& faults,
                      std::size_t shards);

// Runs one TopoSpec across N shard simulators. Usage:
//
//   ShardedEngine engine(spec, 4);
//   ExperimentResult r = engine.run();
//
// The result is bit-for-bit the result the same spec produces serially
// (Experiment::run) and at any other shard count. JSONL event tracing is
// not supported in sharded runs (one trace stream, many clocks); the audit
// modes all are.
class ShardedEngine {
 public:
  ShardedEngine(const TopoSpec& spec, std::size_t shards,
                AuditMode audit_mode = kDefaultAuditMode);
  ~ShardedEngine();
  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  // Runs warmup + duration in conservative barrier rounds and assembles the
  // same ExperimentResult Experiment::run would. May be called once. Throws
  // std::logic_error on an audit violation, and rethrows the first
  // exception any shard worker hit.
  ExperimentResult run();

  const ShardPlan& plan() const { return plan_; }
  Experiment& experiment() { return *exp_; }
  const CompiledTopology& compiled() const { return compiled_; }

  // Total events executed across all shards (for events/sec scaling).
  std::uint64_t events_executed() const;

 private:
  // One packet in transit between shards, carrying the deterministic key
  // the transmitting side minted for it.
  struct MailEntry {
    sim::Time at;        // absolute arrival time at the peer node
    std::uint64_t seq;   // birth time (transmitting shard's clock, ns)
    std::uint64_t tie;   // det_tie_next draw from the transmitting context
    net::Node* peer;     // destination node
    net::Packet pkt;
  };

  void install_cross_handoff(std::size_t from_idx, std::size_t to_idx);
  // Barrier completion body: drain mailboxes into destination heaps (and
  // hand crossing packets between shard ledgers), then compute the next
  // horizon or finish the run. Runs single-threaded between windows.
  void round_end() noexcept;
  void drain_mail();
  void compute_horizon();

  ShardPlan plan_;
  sim::Time warmup_;
  sim::Time end_;

  // Shard simulators outlive the experiment (ports and timers unwind
  // against their schedulers), so they are declared first.
  std::vector<std::unique_ptr<sim::Simulator>> sims_;
  std::unique_ptr<Experiment> exp_;
  CompiledTopology compiled_;

  std::deque<Audit> audits_;  // per shard; empty unless kFull
  std::vector<std::vector<std::vector<MailEntry>>> mail_;  // [src][dst]
  std::vector<std::vector<DropEvent>> drop_bufs_;  // per monitored port
  std::vector<std::uint64_t> delivered_at_warmup_;  // by connection index
  std::vector<net::ConnId> instrumented_conns_;

  // Barrier-round state. H_ and done_ are written only by the barrier
  // completion function and read by workers after the barrier releases
  // them, which orders the accesses.
  sim::Time horizon_;
  bool done_ = false;
  std::atomic<bool> worker_failed_{false};
  std::exception_ptr worker_error_;
  std::exception_ptr round_error_;
};

}  // namespace tcpdyn::core
