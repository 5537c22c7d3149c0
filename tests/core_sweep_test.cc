#include "core/sweep.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/scenarios.h"
#include "util/rng.h"

namespace tcpdyn::core {
namespace {

// ------------------------------------------------------------- axis parsing

TEST(SweepParse, SingleValue) {
  const SweepAxis a = parse_axis("w1=30");
  EXPECT_EQ(a.name, "w1");
  ASSERT_EQ(a.values.size(), 1u);
  EXPECT_DOUBLE_EQ(a.values[0], 30.0);
}

TEST(SweepParse, ExplicitList) {
  const SweepAxis a = parse_axis("tau=0.01;0.25;1");
  EXPECT_EQ(a.name, "tau");
  EXPECT_EQ(a.values, (std::vector<double>{0.01, 0.25, 1.0}));
}

TEST(SweepParse, LinearRangeInclusive) {
  const SweepAxis a = parse_axis("buffer=10:80:10");
  EXPECT_EQ(a.values, (std::vector<double>{10, 20, 30, 40, 50, 60, 70, 80}));
}

TEST(SweepParse, LinearRangeNonDivisibleStopsBelowHi) {
  const SweepAxis a = parse_axis("x=0:1:0.4");
  ASSERT_EQ(a.values.size(), 3u);
  EXPECT_DOUBLE_EQ(a.values[2], 0.8);
}

TEST(SweepParse, LogRange) {
  const SweepAxis a = parse_axis("tau=0.01:1:log10");
  ASSERT_EQ(a.values.size(), 10u);
  EXPECT_DOUBLE_EQ(a.values.front(), 0.01);
  EXPECT_DOUBLE_EQ(a.values.back(), 1.0);  // exact endpoint
  for (std::size_t i = 1; i < a.values.size(); ++i) {
    EXPECT_GT(a.values[i], a.values[i - 1]);
    // Log spacing: constant ratio between neighbours.
    EXPECT_NEAR(a.values[i] / a.values[i - 1], std::pow(100.0, 1.0 / 9.0),
                1e-9);
  }
}

TEST(SweepParse, MalformedSpecsThrow) {
  EXPECT_THROW(parse_axis("noequals"), std::invalid_argument);
  EXPECT_THROW(parse_axis("=1"), std::invalid_argument);
  EXPECT_THROW(parse_axis("x="), std::invalid_argument);
  EXPECT_THROW(parse_axis("x=1:2"), std::invalid_argument);
  EXPECT_THROW(parse_axis("x=1:2:3:4"), std::invalid_argument);
  EXPECT_THROW(parse_axis("x=a:2:1"), std::invalid_argument);
  EXPECT_THROW(parse_axis("x=1:2:log1"), std::invalid_argument);
  EXPECT_THROW(parse_axis("x=1:2:logx"), std::invalid_argument);
  EXPECT_THROW(parse_axis("x=0:2:log5"), std::invalid_argument);  // lo <= 0
  EXPECT_THROW(parse_axis("x=2:1:0.5"), std::invalid_argument);   // hi < lo
  EXPECT_THROW(parse_axis("x=1:2:-1"), std::invalid_argument);
  EXPECT_THROW(parse_axis("x=1;two;3"), std::invalid_argument);
}

// Range bounds, steps and counts that would reach an undefined cast
// (NaN, inf, past size_t) or a loop that exhausts memory.
TEST(SweepParse, NonFiniteAndHugeRangesThrow) {
  for (const char* spec :
       {"x=0:nan:1", "x=nan:1:0.1", "x=0:inf:1", "x=-inf:0:1", "x=0:1:nan",
        "x=0:1e300:1e-300", "x=0:1e12:1", "x=1:2:lognan", "x=1:2:loginf",
        "x=1:2:log1e300", "x=1:2:log2.5", "x=1:inf:log3"}) {
    EXPECT_THROW(parse_axis(spec), std::invalid_argument) << spec;
  }
  EXPECT_EQ(parse_axis("x=0:1e6:1").values.size(), 1'000'001u);
}

TEST(SweepParse, GridSplitsAxesAndRejectsDuplicates) {
  const auto axes = parse_grid("tau=0.01:1:log10,buffer=10:80:10");
  ASSERT_EQ(axes.size(), 2u);
  EXPECT_EQ(axes[0].name, "tau");
  EXPECT_EQ(axes[1].name, "buffer");
  EXPECT_THROW(parse_grid(""), std::invalid_argument);
  EXPECT_THROW(parse_grid("a=1,a=2"), std::invalid_argument);
}

// ---------------------------------------------------------- grid expansion

TEST(SweepGridTest, CartesianProductLastAxisFastest) {
  const SweepGrid grid({{"a", {1, 2}}, {"b", {10, 20, 30}}});
  ASSERT_EQ(grid.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    const SweepPoint p = grid.point(i, /*sweep_seed=*/1);
    EXPECT_EQ(p.index, i);
    ASSERT_EQ(p.params.size(), 2u);
    EXPECT_EQ(p.params[0].first, "a");
    EXPECT_EQ(p.params[1].first, "b");
    EXPECT_DOUBLE_EQ(p.value("a"), i < 3 ? 1 : 2);
    EXPECT_DOUBLE_EQ(p.value("b"), 10.0 * static_cast<double>(i % 3 + 1));
  }
  EXPECT_THROW(grid.point(6, 1), std::out_of_range);
}

TEST(SweepGridTest, PointAccessors) {
  const SweepGrid grid({{"tau", {0.25}}});
  const SweepPoint p = grid.point(0, 1);
  EXPECT_TRUE(p.has("tau"));
  EXPECT_FALSE(p.has("buffer"));
  EXPECT_DOUBLE_EQ(p.value_or("buffer", 20.0), 20.0);
  EXPECT_THROW(p.value("buffer"), std::out_of_range);
}

TEST(SweepGridTest, EmptyAxisRejected) {
  std::vector<SweepAxis> axes(1);
  axes[0].name = "a";
  EXPECT_THROW(SweepGrid grid(axes), std::invalid_argument);
}

// ----------------------------------------------------------------- seeding

TEST(SweepSeeding, StablePerPointAndDistinct) {
  const SweepGrid grid({{"a", {1, 2, 3, 4}}, {"b", {1, 2, 3, 4}}});
  std::set<std::uint64_t> seeds;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const std::uint64_t seed = grid.point(i, 7).seed;
    // Stable: recomputing the same point yields the same seed, and it is
    // exactly the documented hash of (sweep seed, index).
    EXPECT_EQ(grid.point(i, 7).seed, seed);
    EXPECT_EQ(seed, util::mix_seed(7, i));
    seeds.insert(seed);
  }
  EXPECT_EQ(seeds.size(), grid.size());  // no collisions across points
  // A different sweep seed moves every point to a fresh stream.
  EXPECT_NE(grid.point(0, 7).seed, grid.point(0, 8).seed);
}

// ------------------------------------------------------------------ runner

SweepRow synthetic_row(const SweepPoint& pt) {
  SweepRow row;
  for (const auto& [name, v] : pt.params) row.add(name, v);
  // Exercise the per-point stream: deterministic in (seed, index) only.
  util::Rng rng(pt.seed);
  row.add("draw", rng.next_double());
  row.add("label", "pt" + std::to_string(pt.index));
  row.add("count", static_cast<std::int64_t>(pt.index * 10));
  return row;
}

TEST(SweepRunnerTest, JobsDoNotChangeOutputBytes) {
  const SweepGrid grid({{"a", {1, 2, 3}}, {"b", {4, 5, 6, 7}}});
  const SweepTable serial =
      SweepRunner(grid, {.jobs = 1, .seed = 3}).run(synthetic_row);
  const SweepTable parallel =
      SweepRunner(grid, {.jobs = 4, .seed = 3}).run(synthetic_row);
  EXPECT_EQ(serial.to_json(), parallel.to_json());
  EXPECT_EQ(serial.to_csv(), parallel.to_csv());
  ASSERT_EQ(serial.rows().size(), 12u);
  for (std::size_t i = 0; i < serial.rows().size(); ++i) {
    EXPECT_EQ(serial.rows()[i].index, i);  // point-index order, always
  }
}

TEST(SweepRunnerTest, DifferentSeedDifferentDraws) {
  const SweepGrid grid({{"a", {1, 2}}});
  const SweepTable s3 =
      SweepRunner(grid, {.jobs = 2, .seed = 3}).run(synthetic_row);
  const SweepTable s4 =
      SweepRunner(grid, {.jobs = 2, .seed = 4}).run(synthetic_row);
  EXPECT_NE(s3.rows()[0].number("draw"), s4.rows()[0].number("draw"));
}

TEST(SweepRunnerTest, FirstExceptionByIndexPropagates) {
  const SweepGrid grid({{"a", {0, 1, 2, 3, 4, 5}}});
  SweepRunner runner(grid, {.jobs = 3, .seed = 1});
  try {
    runner.run([](const SweepPoint& pt) -> SweepRow {
      if (pt.index >= 2) {
        throw std::runtime_error("boom at " + std::to_string(pt.index));
      }
      return {};
    });
    FAIL() << "expected the point exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom at 2");
  }
}

// ------------------------------------------------------------ JSON and CSV

TEST(SweepTableTest, CsvRoundTripsValues) {
  const SweepGrid grid({{"a", {0.1, 0.25}}});
  const SweepTable table =
      SweepRunner(grid, {.jobs = 2, .seed = 9}).run(synthetic_row);
  std::istringstream in(table.to_csv());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "index,a,draw,label,count");
  for (std::size_t i = 0; i < 2; ++i) {
    ASSERT_TRUE(std::getline(in, line));
    std::istringstream fields(line);
    std::string index, a, draw, label, count;
    std::getline(fields, index, ',');
    std::getline(fields, a, ',');
    std::getline(fields, draw, ',');
    std::getline(fields, label, ',');
    std::getline(fields, count, ',');
    EXPECT_EQ(index, std::to_string(i));
    // Doubles round-trip exactly through the emitted decimal text.
    EXPECT_EQ(std::stod(a), table.rows()[i].number("a"));
    EXPECT_EQ(std::stod(draw), table.rows()[i].number("draw"));
    EXPECT_EQ(label, "pt" + std::to_string(i));
    EXPECT_EQ(std::stoll(count), static_cast<long long>(i * 10));
  }
  EXPECT_FALSE(std::getline(in, line));
}

TEST(SweepTableTest, JsonShapeAndEscaping) {
  SweepRow row;
  row.index = 0;
  row.add("v", 0.25);
  row.add("n", std::int64_t{-3});
  row.add("s", std::string("he said \"hi\"\n"));
  const SweepTable table({row});
  const std::string json = table.to_json();
  EXPECT_NE(json.find("{\"points\": ["), std::string::npos);
  EXPECT_NE(json.find("\"index\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"v\": 0.25"), std::string::npos);
  EXPECT_NE(json.find("\"n\": -3"), std::string::npos);
  EXPECT_NE(json.find("\"s\": \"he said \\\"hi\\\"\\n\""), std::string::npos);
}

TEST(SweepTableTest, ColumnsUnionInFirstOccurrenceOrder) {
  SweepRow r0;
  r0.index = 0;
  r0.add("a", 1.0);
  SweepRow r1;
  r1.index = 1;
  r1.add("a", 2.0);
  r1.add("b", 3.0);
  const SweepTable table({r0, r1});
  EXPECT_EQ(table.columns(), (std::vector<std::string>{"a", "b"}));
  // Missing cell renders as an empty CSV field.
  EXPECT_NE(table.to_csv().find("0,1,\n"), std::string::npos);
}

// -------------------------------------------------- end-to-end on scenarios

TEST(SweepScenarioTest, RealGridIsDeterministicAcrossJobs) {
  const auto run_grid = [](std::size_t jobs) {
    const SweepGrid grid({{"tau", {0.005, 0.01}}, {"buffer", {10, 15}}});
    return SweepRunner(grid, {.jobs = jobs, .seed = 1})
        .run([](const SweepPoint& pt) {
          Scenario sc = fig4_twoway(pt.value("tau"),
                                    static_cast<std::size_t>(
                                        pt.value("buffer")));
          // Short run: this test is about engine determinism, not fidelity.
          sc.warmup = sim::Time::seconds(10.0);
          sc.duration = sim::Time::seconds(30.0);
          return summary_row(pt, run_scenario(sc));
        });
  };
  const SweepTable serial = run_grid(1);
  const SweepTable parallel = run_grid(4);
  EXPECT_EQ(serial.to_json(), parallel.to_json());
  EXPECT_EQ(serial.to_csv(), parallel.to_csv());
  for (const SweepRow& row : serial.rows()) {
    EXPECT_GT(row.number("util_fwd"), 0.0);
    EXPECT_FALSE(row.text("queue_sync_mode").empty());
  }
}

// Golden: the summary rows of a small paper grid, which run the analysis
// kernels (period search, fluctuation windows, ACK-gap statistics, sync
// correlations) on real traces. FNV-1a over the JSON of both tables. The
// digest is that of the per-lag and std::minmax_element kernels the fast
// ones replaced; any output bit a kernel moves changes it.
TEST(AnalysisGolden, PaperGridSummaryRows) {
  const auto table_json = [](auto make, std::vector<double> taus) {
    const SweepGrid grid({{"tau", std::move(taus)}, {"buffer", {10, 40}}});
    return SweepRunner(grid, {.jobs = 1, .seed = 1})
        .run([&](const SweepPoint& pt) {
          Scenario sc = make(pt.value("tau"),
                             static_cast<std::size_t>(pt.value("buffer")));
          sc.warmup = sim::Time::seconds(20.0);
          sc.duration = sim::Time::seconds(300.0);
          return summary_row(pt, run_scenario(sc));
        })
        .to_json();
  };
  std::uint64_t h = 1469598103934665603ULL;
  for (const std::string& json :
       {table_json(fig4_twoway, {0.01, 0.05}),
        table_json(fig6_twoway, {0.5, 1.0})}) {
    for (const unsigned char c : json) {
      h ^= c;
      h *= 1099511628211ULL;
    }
  }
  char digest[17];
  std::snprintf(digest, sizeof(digest), "%016" PRIx64, h);
  EXPECT_EQ(std::string(digest), "98474ba9eba9feb7");
}

}  // namespace
}  // namespace tcpdyn::core
