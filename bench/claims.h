// The paper's claims as data. A claim set names the runs it needs and the
// sections it prints, in order: printed blocks (summary tables, strip
// charts, data tables), which are output, and claim tables. A claim reads
// the set's run summaries and returns its measured text and its verdict
// together, so it can be checked on summaries built anywhere: the driver's
// runs, a sharded engine's, a perturbed ensemble member's.
//
// bench/tcpdyn_claims.cc is the driver; EXPERIMENTS.md describes each set.
#pragma once

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/report.h"
#include "core/scenarios.h"

namespace tcpdyn::claims {

// One summary per run of a set, in run order.
using Runs = std::vector<core::ScenarioSummary>;

// What a claim measured, as printed, and whether the paper's claim holds.
struct Verdict {
  std::string measured;
  bool holds = false;
};

// One paper claim; core::Claim is its evaluated row.
struct Claim {
  std::string what;
  std::string paper;
  std::function<Verdict(const Runs&)> check;
};

// A printed block when `print` is set, else a claim table.
struct Section {
  std::function<void(std::ostream&, const Runs&)> print;
  std::string title;
  std::vector<Claim> claims;
};

// A scenario spec, its run length as the set runs it, and for the window
// bump alone a hook that schedules window changes before the run.
struct Run {
  core::TopoSpec spec;
  std::function<void(core::Experiment&)> setup = {};
};

struct ClaimSet {
  std::string name;
  std::vector<Run> runs;
  std::vector<Section> sections;
};

// Every claim set, in EXPERIMENTS.md order.
const std::vector<ClaimSet>& claim_sets();

// Runs the set's runs through core::SweepRunner on `jobs` workers.
Runs run_set(const ClaimSet& set, std::size_t jobs);

// Every claim of the set evaluated on `runs`, in print order.
std::vector<core::Claim> evaluate(const ClaimSet& set, const Runs& runs);

// Prints the set's sections on `runs`, then "<name>: OK" or its failure
// count; returns the number of claims that failed.
int print_set(std::ostream& os, const ClaimSet& set, const Runs& runs);

}  // namespace tcpdyn::claims
