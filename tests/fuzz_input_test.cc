// Mutation fuzz tier for the text inputs: seeded byte-level and token-level
// mutants of examples/topos/*.topo, a fault script and sweep-grid specs.
// Each mutant either fails with std::invalid_argument naming its line or
// axis, or parses and then runs a capped warmup + duration under the full
// conservation ledger, which throws on any violation. No mutant may crash,
// throw anything else or trip a sanitizer. Self-contained and seeded: the
// same mutants on every run, no external fuzzer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/fault_plan.h"
#include "core/scenarios.h"
#include "core/sweep.h"
#include "core/topology.h"
#include "shared_options.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/value.h"

namespace tcpdyn {
namespace {

// What a parsed mutant may request before it runs. A mutant past a bound is
// counted and not run: one window=4294967295 or count=1e18 asks for more
// memory than any host has, which is the request, not a defect.
constexpr std::size_t kMaxNodes = 64;
constexpr std::size_t kMaxFlows = 256;  // summed over the flow lines
constexpr std::uint32_t kMaxFixedWindow = 1000;
constexpr std::size_t kMaxGridPoints = 64;
// Every run is cut to at most this warmup and duration.
constexpr sim::Time kMaxWarmup = sim::Time::seconds(2.0);
constexpr sim::Time kMaxDuration = sim::Time::seconds(5.0);

constexpr int kMutantsPerInput = 40;

// Number tokens a token-level mutant puts in.
const std::vector<std::string> kHostile = {
    "nan", "inf", "-0", "-1", "2.5", "1e999", "0x10", "18446744073709551616",
    ""};

// A fault script for examples/topos/dumbbell.topo, timed inside the cut run.
constexpr std::string_view kFaultScript =
    "# every directive, inside a 7 s run\n"
    "seed 42\n"
    "gilbert S1 S2 0.02 0.3 0.0 0.5 dir=ba\n"
    "down S1 S2 2 1 discard dir=both\n"
    "rate S1 S2 3 40000 dir=ab\n"
    "delay S2 S1 4 0.02\n"
    "loss S1 S2 0.01 dir=ab\n"
    "corrupt S2 S1 0.001\n"
    "reorder S1 S2 0.1 0.005\n";

// Grid specs with the scenario each one sweeps.
const std::vector<std::pair<std::string, std::string>> kGrids = {
    {"fig4", "tau=0.01:0.04:log3,buffer=10;20"},
    {"fig2", "buffer=10;20;40;80"},
    {"chaos", "loss=0.3;0.5,outage=1;2"},
    {"fixed", "w1=20:40:5,w2=25"},
    {"chain", "rep=0;1;2;3"},
};

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// One to three byte edits: delete, insert, replace or repeat a byte.
std::string mutate_bytes(std::string text, util::Rng& rng) {
  static constexpr std::string_view kBytes = "0123456789.-+eE=:;, \n#xinfab";
  const auto pick = [&] { return kBytes[rng.next_below(kBytes.size())]; };
  const std::uint64_t edits = 1 + rng.next_below(3);
  for (std::uint64_t k = 0; k < edits; ++k) {
    if (text.empty()) {
      text.push_back(pick());
      continue;
    }
    const std::size_t at = rng.next_below(text.size());
    switch (rng.next_below(4)) {
      case 0:
        text.erase(at, 1);
        break;
      case 1:
        text.insert(at, 1, pick());
        break;
      case 2:
        text[at] = pick();
        break;
      default:
        text.insert(at, 1, text[at]);
        break;
    }
  }
  return text;
}

// Replaces one number token, tokens being split at any of `separators`,
// with a hostile one.
std::string mutate_tokens(std::string text, util::Rng& rng,
                          std::string_view separators) {
  std::vector<std::pair<std::size_t, std::size_t>> spans;  // (start, length)
  for (std::size_t i = 0; i < text.size();) {
    const std::size_t end =
        std::min(text.find_first_of(separators, i), text.size());
    const std::string_view token(text.data() + i, end - i);
    if (util::number(token)) spans.emplace_back(i, end - i);
    i = end + 1;
  }
  if (spans.empty()) return text;
  const auto [start, length] = spans[rng.next_below(spans.size())];
  text.replace(start, length, kHostile[rng.next_below(kHostile.size())]);
  return text;
}

struct Tally {
  int rejected = 0;
  int ran = 0;
  int over_budget = 0;

  // Both outcomes must occur, or the mutants test nothing; the counts go
  // to the test's XML record.
  void check() const {
    testing::Test::RecordProperty("rejected", rejected);
    testing::Test::RecordProperty("ran", ran);
    testing::Test::RecordProperty("over_budget", over_budget);
    EXPECT_GT(ran, 0);
    EXPECT_GT(rejected, 0);
  }
};

// Runs `spec` cut to the run-length bound under the full ledger, unless it
// asks for more than the bounds allow.
void run_capped(core::TopoSpec spec, Tally& tally) {
  std::size_t flows = 0;
  for (const core::ConnSpec& c : spec.traffic.specs()) {
    if (c.count > kMaxFlows - flows || c.fixed_window > kMaxFixedWindow) {
      ++tally.over_budget;
      return;
    }
    flows += c.count;
  }
  if (spec.topo.node_count() > kMaxNodes) {
    ++tally.over_budget;
    return;
  }
  spec.warmup = std::min(spec.warmup, kMaxWarmup);
  spec.duration = std::min(spec.duration, kMaxDuration);
  core::Scenario scenario(spec);
  scenario.exp->set_audit_mode(core::AuditMode::kFull);
  scenario.exp->run(scenario.warmup, scenario.duration);
  ++tally.ran;
}

// A mutant's rejection must name where it is: a line of a file, or an axis
// or the spec of a grid.
void expect_named(const std::string& what, std::string_view place,
                  const std::string& mutant, Tally& tally) {
  ++tally.rejected;
  EXPECT_NE(what.find(place), std::string::npos)
      << what << "\n--- mutant ---\n"
      << mutant;
}

class FuzzInput : public ::testing::TestWithParam<int> {};

TEST_P(FuzzInput, TopoFileMutantsAreRejectedOrRun) {
  static const char* kTopos[] = {"dumbbell", "dumbbell_faulted", "parking_lot",
                                 "red_ecn_chain"};
  const std::string original = read_file(
      std::string(TCPDYN_TOPO_DIR) + "/" + kTopos[GetParam()] + ".topo");
  ASSERT_FALSE(original.empty());
  util::Rng rng(util::mix_seed(0xf022, static_cast<std::uint64_t>(GetParam())));
  Tally tally;
  for (int k = 0; k < 2 * kMutantsPerInput; ++k) {
    const std::string mutant = k % 2 == 0
                                   ? mutate_bytes(original, rng)
                                   : mutate_tokens(original, rng, " \t\n=");
    std::istringstream in(mutant);
    core::TopoSpec spec;
    try {
      spec = core::parse_topology(in);
      run_capped(spec, tally);
    } catch (const std::invalid_argument& e) {
      expect_named(e.what(), "line ", mutant, tally);
    }
  }
  tally.check();
}

INSTANTIATE_TEST_SUITE_P(Topos, FuzzInput, ::testing::Range(0, 4));

TEST(FuzzInputFaults, FaultScriptMutantsAreRejectedOrRun) {
  std::istringstream topo(read_file(std::string(TCPDYN_TOPO_DIR) +
                                    "/dumbbell.topo"));
  const core::TopoSpec base = core::parse_topology(topo);
  const std::string path = testing::TempDir() + "fuzz_input.faults";
  util::Rng rng(0xfa17);
  Tally tally;
  for (int k = 0; k < 2 * kMutantsPerInput; ++k) {
    const std::string script(kFaultScript);
    const std::string mutant = k % 2 == 0 ? mutate_bytes(script, rng)
                                          : mutate_tokens(script, rng, " \n");
    std::ofstream(path) << mutant;
    core::TopoSpec spec = base;
    try {
      core::load_fault_file(path, spec.faults);
      spec.faults.check_run_end(core::run_end(spec.warmup, spec.duration));
      run_capped(spec, tally);
    } catch (const std::invalid_argument& e) {
      expect_named(e.what(), "line ", mutant, tally);
    }
  }
  tally.check();
}

TEST(FuzzInputGrids, GridMutantsAreRejectedOrRun) {
  util::Flags flags;
  tools::declare_scenario_flags(flags);
  flags.flag("shards", "N", "shard count", 1);
  flags.parse(std::vector<std::string>{});
  const tools::SharedOptions opts = tools::parse_shared_flags(flags);
  util::Rng rng(0x9e1d);
  Tally tally;
  for (const auto& [scenario, grid] : kGrids) {
    for (int k = 0; k < kMutantsPerInput; ++k) {
      const std::string mutant = k % 2 == 0 ? mutate_bytes(grid, rng)
                                            : mutate_tokens(grid, rng, ",;:=");
      try {
        const core::SweepGrid points(tools::parse_grid(mutant));
        if (points.size() > kMaxGridPoints) {
          ++tally.over_budget;
          continue;
        }
        for (const std::size_t i : {std::size_t{0}, points.size() - 1}) {
          run_capped(tools::scenario_spec(scenario, points.point(i, 1), flags,
                                          opts),
                     tally);
        }
      } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        expect_named(what,
                     what.rfind("sweep: ", 0) == 0 ? "sweep: " : "grid axis '",
                     mutant, tally);
      }
    }
  }
  tally.check();
}

}  // namespace
}  // namespace tcpdyn
