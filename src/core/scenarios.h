// Scenario factories: one per paper artifact (figure or prose experiment),
// wiring up the exact configuration of §2.2/§3/§4/§5, plus a generic
// summarizer computing every derived quantity the paper reports. Benches,
// tests, and examples all run figures through this layer, so the
// paper-vs-measured comparison lives in exactly one place.
//
// Every factory returns its scenario as a TopoSpec (the dumbbell or chain
// Topology plus flows with named endpoints), the description both engines
// run: Scenario's constructor builds it for Experiment::run, so
// `Scenario sc = fig4_twoway();` is runnable, and core::ShardedEngine takes
// the spec itself.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "core/analysis.h"
#include "core/experiment.h"
#include "core/topology.h"

namespace tcpdyn::core {

// A configured, not-yet-run experiment plus the metadata needed to analyze
// it consistently.
struct Scenario {
  Scenario() = default;
  // Builds a runnable scenario from a spec (a factory's, or a parsed topology
  // file's): applies the spec's monitor and flow-instrumentation modes,
  // compiles the graph, instantiates the traffic matrix, applies any fault
  // plan, and carries over the run parameters. Implicit, so a factory's
  // spec initializes a Scenario directly.
  Scenario(const TopoSpec& spec);  // NOLINT(google-explicit-constructor)

  std::string name;
  std::unique_ptr<Experiment> exp;
  sim::Time warmup;
  sim::Time duration;
  // Drops separated by more than this belong to different congestion epochs.
  double epoch_gap_sec = 2.0;
};

// The constructor under the name callers spell it by.
inline Scenario make_topo_scenario(const TopoSpec& spec) { return spec; }

// Everything the analysis layer derives from one run.
struct ScenarioSummary {
  ExperimentResult result;
  // Utilization of monitored port 0 / 1 (fwd / rev bottleneck).
  double util_fwd = 0.0;
  double util_rev = 0.0;
  SyncResult queue_sync;  // ports 0 vs 1
  SyncResult cwnd_sync;   // first two Tahoe connections, if present
  EpochStats epochs;
  std::map<net::ConnId, AckCompressionStats> ack;
  ClusteringStats clustering_fwd;
  ClusteringStats clustering_rev;
  FluctuationStats fluct_fwd;
  FluctuationStats fluct_rev;
  std::optional<double> period_fwd;  // oscillation period of fwd queue (sec)
  FlowSummary flows;  // per-flow goodput distribution + Jain's fairness
};

// Runs the scenario and computes the summary. Consumes the scenario's
// experiment (an Experiment can run only once).
ScenarioSummary run_scenario(Scenario& scenario);

// Computes the same summary from a result obtained elsewhere (the sharded
// engine, a replayed trace): run_scenario is this over Experiment::run.
ScenarioSummary summarize_result(ExperimentResult result,
                                 double epoch_gap_sec = 2.0);

// --- §3.1 / Fig. 2: one-way traffic -----------------------------------
// `conns` Tahoe connections Host-1 -> Host-2. Defaults are the figure's:
// 3 connections, tau = 1 s, 20-packet buffers.
TopoSpec fig2_one_way(std::size_t conns = 3, double tau_sec = 1.0,
                      std::size_t buffer = 20);

// --- §3.2 / Fig. 3: ten connections, five per direction ---------------
TopoSpec fig3_ten_connections(std::size_t buffer = 30,
                              std::size_t per_direction = 5);

// --- §4.1/§4.3 / Figs. 4-7: two-way traffic, one connection each way ---
// Figs. 4-5: tau = 0.01 s (small pipe, out-of-phase).
// Figs. 6-7: tau = 1 s (large pipe, in-phase).
TopoSpec fig4_twoway(double tau_sec = 0.01, std::size_t buffer = 20);
TopoSpec fig6_twoway(double tau_sec = 1.0, std::size_t buffer = 20);

// --- §4.2 / Figs. 8-9: fixed windows 30/25, infinite buffers -----------
TopoSpec fig8_fixed_window(double tau_sec = 0.01, std::uint32_t w1 = 30,
                           std::uint32_t w2 = 25);

// --- §4.3.3: zero-length-ACK fixed-window system -----------------------
TopoSpec zero_ack_fixed(std::uint32_t w1, std::uint32_t w2, double tau_sec);

// --- §5: delayed-ACK option on, two-way traffic ------------------------
TopoSpec delayed_ack_twoway(std::uint32_t maxwnd, double tau_sec = 0.01,
                            std::size_t buffer = 20);

// --- §5: four-switch chain, many connections, 1-3 hop paths ------------
TopoSpec four_switch_chain(std::size_t connections = 50,
                           std::uint64_t seed = 7);

// --- E12 ablation: paced two-way traffic --------------------------------
// Data packets leave each source no faster than one per bottleneck data
// transmission time; the paper predicts this removes clustering and with it
// ACK-compression.
TopoSpec paced_twoway(double tau_sec = 0.01, std::size_t buffer = 20);

// --- E14 extension: Reno (fast recovery) under two-way traffic ----------
// Tests the paper's conjecture that ACK-compression and the synchronization
// modes afflict ANY nonpaced window algorithm, not just Tahoe.
TopoSpec reno_twoway(double tau_sec = 0.01, std::size_t buffer = 20);

// --- E15 ablation: random-drop gateway discipline ------------------------
// Replaces drop-tail at the bottleneck with the Random Drop discipline of
// the studies the paper cites ([4, 5, 10, 18]).
TopoSpec random_drop_twoway(double tau_sec = 0.01, std::size_t buffer = 20);

// --- E16 — §5 claim: heterogeneous round-trip times break clustering -----
// `spread` scales the per-connection access propagation delays: 0 gives
// identical RTTs (complete clustering); >= one bottleneck data transmission
// time (0.08 s) destroys perfect clustering.
TopoSpec rtt_heterogeneity(std::size_t conns, double spread_sec,
                           double tau_sec = 0.01, std::size_t buffer = 20);

// --- §2.1 ablation: the paper's modified congestion-avoidance increment --
// modified = false reinstates the original BSD cwnd += 1/cwnd anomaly.
TopoSpec increment_ablation(bool modified, double tau_sec = 1.0,
                            std::size_t buffer = 20);

}  // namespace tcpdyn::core
