// The benchmark's workloads: input generation from the seed, and one trial
// (setup, event loop, analysis, correctness checks) of each.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/audit.h"
#include "trace.h"

namespace tcpdyn::bench {

enum class Workload : std::uint8_t {
  kPaperSweep,
  kMeshZoo,
  kMeshZooShards4,
  kIncastChurn,
};

struct WorkloadInfo {
  Workload id;
  const char* name;
  // Trials in one untraced run. Fixed, so two commits always take their
  // fastest times over the same number of trials.
  std::size_t trials;
  // vCPUs a trial is pinned to: its busy threads during setup. The sharded
  // engine's workers, started by its run(), take every vCPU.
  std::size_t pinned_cpus;
};

const std::vector<WorkloadInfo>& all_workloads();
const WorkloadInfo& info(Workload w);

// Everything a trial feeds the simulator: sweep axes for paper_sweep,
// .topo text for the others. A pure function of (workload, seed, quick).
struct Inputs {
  std::vector<double> taus;
  std::vector<double> buffers;
  double warmup_sec = 0.0;
  double duration_sec = 0.0;
  std::uint64_t sweep_seed = 1;
  std::string topo;
};

Inputs make_inputs(Workload w, std::uint64_t seed, bool quick);

struct TrialOptions {
  bool traced = false;
  core::AuditMode audit = core::kDefaultAuditMode;
};

// Times are CPU seconds (README.md), except run_wall_s.
struct TrialResult {
  double wall_s = 0.0;   // setup + event loop + analysis
  double setup_s = 0.0;  // inputs to a runnable experiment
  double run_s = 0.0;    // event loop (summed over points for the sweep)
  double analysis_s = 0.0;
  // The event loop's wall-clock length; .topo workloads only. Only the
  // traced run's sharding speedup uses it.
  double run_wall_s = 0.0;
  std::uint64_t hops = 0;  // packet departures over every port
  std::uint64_t events = 0;
  std::uint64_t flows = 0;
  // FNV-1a over the integer counters and the summary rows.
  std::uint64_t digest = 0;
  // Empty when every correctness check passed; otherwise the first failure.
  std::string check;
  // Traced trials only: per-layer metrics measured inside the trial, and
  // the spans behind them.
  std::map<std::string, double> layer;
  std::vector<SpanRecord> spans;
};

TrialResult run_trial(Workload w, const Inputs& in, const TrialOptions& opt);

}  // namespace tcpdyn::bench
