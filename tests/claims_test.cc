// The claims table (bench/claims.h) on summaries built elsewhere: each set
// whose runs are plain specs reads the same rows off a two-shard engine's
// summaries as off the driver's serial runs, and a claim forced false reads
// NO and counts as the one failure.
#include "claims.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "core/shard_engine.h"

namespace tcpdyn::claims {
namespace {

TEST(ClaimsTable, ShardedSummariesGiveTheSerialRows) {
  std::size_t sets = 0;
  std::size_t rows = 0;
  for (const ClaimSet& set : claim_sets()) {
    // The window bump schedules its window changes on an Experiment.
    if (std::any_of(set.runs.begin(), set.runs.end(),
                    [](const claims::Run& run) { return bool(run.setup); })) {
      continue;
    }
    SCOPED_TRACE(set.name);
    Runs sharded;
    for (const claims::Run& run : set.runs) {
      sharded.push_back(core::summarize_result(
          core::ShardedEngine(run.spec, 2).run(), run.spec.epoch_gap_sec));
    }
    const std::vector<core::Claim> serial = evaluate(set, run_set(set, 1));
    const std::vector<core::Claim> got = evaluate(set, sharded);
    ASSERT_EQ(got.size(), serial.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].what, serial[i].what);
      EXPECT_EQ(got[i].paper, serial[i].paper);
      EXPECT_EQ(got[i].measured, serial[i].measured) << got[i].what;
      EXPECT_EQ(got[i].holds, serial[i].holds) << got[i].what;
    }
    ++sets;
    rows += got.size();
  }
  EXPECT_EQ(sets, 17u);
  EXPECT_EQ(rows, 108u);
}

TEST(ClaimsTable, AClaimForcedFalseReadsNoAndCountsOnce) {
  const auto& sets = claim_sets();
  const auto fig2 =
      std::find_if(sets.begin(), sets.end(), [](const ClaimSet& set) {
        return set.name == "fig2_oneway";
      });
  ASSERT_NE(fig2, sets.end());
  Runs runs = run_set(*fig2, 1);
  runs[0].util_fwd = 0.5;  // "~90%" holds in (0.8, 0.97)
  const std::vector<core::Claim> rows = evaluate(*fig2, runs);
  ASSERT_EQ(rows.size(), 10u);
  EXPECT_EQ(rows[0].what, "utilization");
  EXPECT_EQ(rows[0].measured, "50.0%");
  EXPECT_FALSE(rows[0].holds);
  EXPECT_EQ(std::count_if(rows.begin(), rows.end(),
                          [](const core::Claim& c) { return !c.holds; }),
            1);
  std::ostringstream out;
  EXPECT_EQ(print_set(out, *fig2, runs), 1);
  // The printed row: what, paper, measured, then NO.
  std::istringstream lines(out.str());
  std::vector<std::string> row;
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("utilization  ", 0) != 0) continue;
    std::istringstream words(line);
    for (std::string w; words >> w;) row.push_back(w);
  }
  EXPECT_EQ(row, (std::vector<std::string>{"utilization", "~90%", "50.0%",
                                           "NO"}));
  EXPECT_NE(out.str().find("\nfig2_oneway: 1 claim(s) FAILED\n"),
            std::string::npos);
}

}  // namespace
}  // namespace tcpdyn::claims
