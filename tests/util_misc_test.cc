// Tests for CSV writer, table printer, RNG, and logging.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/csv.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/table.h"

namespace tcpdyn::util {
namespace {

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(CsvEscape, PassthroughAndQuoting) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
  EXPECT_EQ(csv_escape(""), "");
}

TEST(CsvWriter, WritesHeaderAndRows) {
  const std::string path = temp_path("tcpdyn_csv_test.csv");
  {
    CsvWriter w(path, {"t", "q"});
    w.row({1.0, 2.0});
    w.row({3.5, 4.25});
    EXPECT_EQ(w.rows_written(), 2u);
  }
  const std::string content = slurp(path);
  EXPECT_EQ(content, "t,q\n1,2\n3.5,4.25\n");
  std::remove(path.c_str());
}

TEST(CsvWriter, StringRowsEscaped) {
  const std::string path = temp_path("tcpdyn_csv_test2.csv");
  {
    CsvWriter w(path, {"name", "note"});
    w.row(std::vector<std::string>{"S1->S2", "drop, data"});
  }
  EXPECT_EQ(slurp(path), "name,note\nS1->S2,\"drop, data\"\n");
  std::remove(path.c_str());
}

TEST(CsvWriter, ColumnMismatchThrows) {
  const std::string path = temp_path("tcpdyn_csv_test3.csv");
  CsvWriter w(path, {"a", "b"});
  EXPECT_THROW(w.row({1.0}), std::runtime_error);
  EXPECT_THROW(w.row(std::vector<std::string>{"x", "y", "z"}),
               std::runtime_error);
  std::remove(path.c_str());
}

TEST(CsvWriter, UnopenableThrows) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir/x.csv", {"a"}), std::runtime_error);
}

TEST(Table, AlignsColumns) {
  Table t({"a", "long-header"});
  t.add_row({"wide-cell", "1"});
  const std::string out = t.to_string();
  // Header, separator, one row.
  EXPECT_NE(out.find("a          long-header"), std::string::npos);
  EXPECT_NE(out.find("wide-cell"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
  EXPECT_EQ(t.rows(), 1u);
}

// Cells are measured in UTF-8 code points, so a two-byte '§' or 'τ' takes
// one column and the next column starts where it does on ASCII rows.
TEST(Table, PadsMultiByteCellsByCodePoint) {
  Table t({"claim", "paper", "measured"});
  t.add_row({"x", "never (§4.2)", "yes"});
  t.add_row({"y", "τ = 0.01 s", "no"});
  t.add_row({"z", "ascii cell", "ok"});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("x      never (§4.2)  yes"), std::string::npos);
  EXPECT_NE(out.find("y      τ = 0.01 s    no"), std::string::npos);
  EXPECT_NE(out.find("z      ascii cell    ok"), std::string::npos);
  // The separator spans the code-point widths: 5+2 + 12+2 + 8+2.
  EXPECT_NE(out.find("\n" + std::string(31, '-') + "\n"), std::string::npos);
  EXPECT_EQ(out.find(std::string(32, '-')), std::string::npos);
}

TEST(Table, ShortAndLongRows) {
  Table t({"a", "b"});
  t.add_row({"only-one"});
  t.add_row({"1", "2", "3"});  // extends columns
  const std::string out = t.to_string();
  EXPECT_NE(out.find("only-one"), std::string::npos);
  EXPECT_NE(out.find("3"), std::string::npos);
}

TEST(Fmt, FixedPrecision) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(3.0, 0), "3");
  EXPECT_EQ(fmt_pct(0.912, 1), "91.2%");
  EXPECT_EQ(fmt_pct(1.0, 0), "100%");
}

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
  EXPECT_NE(Rng(123).next_u64(), c.next_u64());
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = r.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformRange) {
  Rng r(7);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double x = r.uniform(5.0, 10.0);
    EXPECT_GE(x, 5.0);
    EXPECT_LT(x, 10.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 10000.0, 7.5, 0.1);
}

TEST(Rng, NextBelowBounds) {
  Rng r(99);
  std::vector<int> counts(5, 0);
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t x = r.next_below(5);
    ASSERT_LT(x, 5u);
    ++counts[static_cast<std::size_t>(x)];
  }
  for (int c : counts) EXPECT_GT(c, 800);  // roughly uniform
}

TEST(Logging, LevelFiltering) {
  const LogLevel old = log_level();
  set_log_level(LogLevel::kError);
  // Below-threshold messages must not crash and are filtered (visually
  // verified via stderr capture not being practical here, we just exercise
  // the paths).
  TCPDYN_DEBUG << "hidden " << 42;
  TCPDYN_ERROR << "shown " << 1;
  set_log_level(old);
  SUCCEED();
}

}  // namespace
}  // namespace tcpdyn::util
