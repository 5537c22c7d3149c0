#include "util/flags.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/scenarios.h"
#include "core/sweep.h"
#include "shared_options.h"

namespace tcpdyn::util {
namespace {

// Declares `values` as value flags and `booleans` as boolean flags, then
// parses `args`.
Flags parsed(const std::vector<std::string>& args,
             const std::vector<std::string>& values,
             const std::vector<std::string>& booleans = {}) {
  Flags f;
  for (const std::string& n : values) f.flag(n, "V", "value", "");
  for (const std::string& n : booleans) f.flag(n, "switch", false);
  f.parse(args);
  return f;
}

TEST(Flags, EqualsSyntax) {
  const Flags f = parsed({"--tau=0.01", "--buffer=20", "--name=fig4"},
                         {"tau", "buffer", "name"});
  EXPECT_TRUE(f.has("tau"));
  EXPECT_DOUBLE_EQ(f.get_double("tau", 0.0), 0.01);
  EXPECT_EQ(f.get_int("buffer", 0), 20);
  EXPECT_EQ(f.get("name"), "fig4");
}

TEST(Flags, SpaceSyntax) {
  const Flags f =
      parsed({"--tau", "0.5", "--scenario", "fig8"}, {"tau", "scenario"});
  EXPECT_DOUBLE_EQ(f.get_double("tau", 0.0), 0.5);
  EXPECT_EQ(f.get("scenario"), "fig8");
}

TEST(Flags, BareBoolean) {
  const Flags f = parsed({"--chart", "--csv"}, {}, {"chart", "csv"});
  EXPECT_TRUE(f.get_bool("chart"));
  EXPECT_TRUE(f.get_bool("csv"));
  EXPECT_FALSE(f.get_bool("absent"));
  EXPECT_TRUE(f.get_bool("absent", true));
}

TEST(Flags, BooleanValues) {
  const Flags f =
      parsed({"--a=true", "--b=false", "--c=1", "--d=0", "--e=yes", "--g=no"},
             {}, {"a", "b", "c", "d", "e", "g"});
  EXPECT_TRUE(f.get_bool("a"));
  EXPECT_FALSE(f.get_bool("b"));
  EXPECT_TRUE(f.get_bool("c"));
  EXPECT_FALSE(f.get_bool("d"));
  EXPECT_TRUE(f.get_bool("e"));
  EXPECT_FALSE(f.get_bool("g"));
  const Flags bad = parsed({"--x=maybe"}, {}, {"x"});
  EXPECT_THROW(bad.get_bool("x"), std::invalid_argument);
}

TEST(Flags, BooleanFollowedByFlag) {
  // "--chart --tau 5": chart must be boolean, not consume "--tau".
  const Flags f = parsed({"--chart", "--tau", "5"}, {"tau"}, {"chart"});
  EXPECT_TRUE(f.get_bool("chart"));
  EXPECT_DOUBLE_EQ(f.get_double("tau", 0.0), 5.0);
}

TEST(Flags, Positional) {
  const Flags f = parsed({"input.csv", "--x=1", "output.csv"}, {"x"});
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "input.csv");
  EXPECT_EQ(f.positional()[1], "output.csv");
}

TEST(Flags, Defaults) {
  const Flags f = parsed({}, {});
  EXPECT_EQ(f.get("missing", "dflt"), "dflt");
  EXPECT_DOUBLE_EQ(f.get_double("missing", 3.5), 3.5);
  EXPECT_EQ(f.get_int("missing", -7), -7);
}

TEST(Flags, ArgcArgvConstructorSkipsProgramName) {
  const char* argv[] = {"prog", "--x=1", "pos"};
  Flags f;
  f.flag("x", "N", "value", 0);
  f.parse(3, argv);
  EXPECT_EQ(f.get_int("x"), 1);
  ASSERT_EQ(f.positional().size(), 1u);
  EXPECT_EQ(f.positional()[0], "pos");
}

TEST(Flags, LastValueWins) {
  const Flags f = parsed({"--x=1", "--x=2"}, {"x"});
  EXPECT_EQ(f.get_int("x", 0), 2);
}

TEST(Flags, MalformedNumberThrows) {
  const Flags f = parsed({"--x=abc"}, {"x"});
  EXPECT_THROW(f.get_double("x", 0.0), std::invalid_argument);
  EXPECT_THROW(f.get_int("x", 0), std::invalid_argument);
}

TEST(Flags, MalformedNumberErrorNamesFlagAndValue) {
  const Flags f = parsed({"--tau=fast", "--buffer=many"}, {"tau", "buffer"});
  try {
    f.get_double("tau", 0.0);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("--tau"), std::string::npos) << msg;
    EXPECT_NE(msg.find("fast"), std::string::npos) << msg;
  }
  try {
    f.get_int("buffer", 0);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("--buffer"), std::string::npos) << msg;
    EXPECT_NE(msg.find("many"), std::string::npos) << msg;
  }
  // Trailing garbage after a valid prefix is malformed too, not truncated.
  const Flags g = parsed({"--x=12abc", "--y=3.5e"}, {"x", "y"});
  EXPECT_THROW(g.get_int("x", 0), std::invalid_argument);
  EXPECT_THROW(g.get_double("y", 0.0), std::invalid_argument);
}

TEST(Flags, NegativeValuesAreValuesNotFlags) {
  const Flags f =
      parsed({"--tau", "-5", "--offset=-0.25"}, {"tau", "offset"});
  EXPECT_DOUBLE_EQ(f.get_double("tau", 0.0), -5.0);
  EXPECT_EQ(f.get_int("tau", 0), -5);
  EXPECT_DOUBLE_EQ(f.get_double("offset", 0.0), -0.25);
}

TEST(Flags, EqualsWithEmptyValue) {
  const Flags f = parsed({"--name=", "--other=x"}, {"name", "other"});
  EXPECT_TRUE(f.has("name"));
  EXPECT_EQ(f.get("name", "dflt"), "");  // present and empty, not default
  EXPECT_EQ(f.get("other"), "x");
}

// --- declared defaults, errors and usage -------------------------------

Flags declared() {
  Flags f;
  f.flag("jobs", "N", "worker threads", 1)
      .flag("tau", "SEC", "propagation delay", 0.01)
      .flag("out", "PATH", "output file", "-")
      .flag("verbose", "log more", false);
  return f;
}

TEST(Flags, RegisteredDefaultsComeFromDeclaration) {
  Flags f = declared();
  f.parse(std::vector<std::string>{});
  EXPECT_EQ(f.get_int("jobs"), 1);
  EXPECT_DOUBLE_EQ(f.get_double("tau"), 0.01);
  EXPECT_EQ(f.get("out"), "-");
  EXPECT_FALSE(f.get_bool("verbose"));
}

TEST(Flags, RegisteredParseOverridesDefaults) {
  Flags f = declared();
  f.parse({"--jobs", "8", "--verbose", "--out=run.json"});
  EXPECT_EQ(f.get_int("jobs"), 8);
  EXPECT_TRUE(f.get_bool("verbose"));
  EXPECT_EQ(f.get("out"), "run.json");
  EXPECT_DOUBLE_EQ(f.get_double("tau"), 0.01);  // untouched default
}

TEST(Flags, RegisteredRejectsUnknownFlag) {
  Flags f = declared();
  try {
    f.parse({"--bogus=1"});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--bogus"), std::string::npos);
  }
}

TEST(Flags, RegisteredValueFlagRequiresValue) {
  Flags f = declared();
  EXPECT_THROW(f.parse({"--jobs"}), std::invalid_argument);
  Flags g = declared();
  // Next token is a flag, so it cannot serve as the value.
  EXPECT_THROW(g.parse({"--jobs", "--verbose"}), std::invalid_argument);
}

TEST(Flags, RegisteredBooleanNeverConsumesNextToken) {
  Flags f = declared();
  f.parse({"--verbose", "extra"});
  EXPECT_TRUE(f.get_bool("verbose"));
  ASSERT_EQ(f.positional().size(), 1u);
  EXPECT_EQ(f.positional()[0], "extra");
}

TEST(Flags, RegisteredLastValueWins) {
  Flags f = declared();
  f.parse({"--jobs=2", "--jobs", "4", "--jobs=6"});
  EXPECT_EQ(f.get_int("jobs"), 6);
}

TEST(Flags, RegisteredNegativeValueAfterValueFlag) {
  Flags f = declared();
  f.parse({"--tau", "-1.5"});
  EXPECT_DOUBLE_EQ(f.get_double("tau"), -1.5);
}

TEST(Flags, HelpIsAutoRegistered) {
  Flags f = declared();
  f.parse({"--help"});
  EXPECT_TRUE(f.help_requested());
}

TEST(Flags, UsageListsEveryFlagWithDefaults) {
  Flags f = declared();
  const std::string u = f.usage("prog");
  EXPECT_NE(u.find("usage: prog"), std::string::npos);
  for (const char* needle :
       {"--jobs N", "worker threads", "(default 1)", "--tau SEC",
        "(default 0.01)", "--verbose", "--help", "show this help"}) {
    EXPECT_NE(u.find(needle), std::string::npos) << "missing: " << needle;
  }
}

TEST(Flags, AccessorsOnUndeclaredNumericFlagThrow) {
  Flags f = declared();
  f.parse(std::vector<std::string>{});
  EXPECT_THROW(f.get_int("nope"), std::logic_error);
  EXPECT_THROW(f.get_double("nope"), std::logic_error);
}

TEST(Flags, DeclarationErrors) {
  Flags f = declared();
  EXPECT_THROW(f.flag("jobs", "N", "again", 2), std::logic_error);  // dup
  f.parse(std::vector<std::string>{});
  EXPECT_THROW(f.parse(std::vector<std::string>{}), std::logic_error);
  EXPECT_THROW(f.flag("late", "N", "after parse", 0), std::logic_error);
}

// The tools' shared option block: every flag given in seconds must convert
// to a sim::Time, and the error names the flag.
TEST(SharedFlags, SecondsFlagsMustConvertToTime) {
  const auto error_of = [](const std::vector<std::string>& args) {
    Flags f;
    f.flag("shards", "N", "shard count", 1)
        .flag("warmup", "SEC", "warmup", "")
        .flag("duration", "SEC", "duration", "")
        .flag("tau", "SEC", "propagation delay", 0.01)
        .flag("pacing", "SEC", "pacing interval", 0.0)
        .flag("session", "SEC", "session length", 5.0);
    f.parse(args);
    try {
      tools::parse_shared_flags(f);
      return std::string("no error");
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
  };
  const std::string tail = " must be finite seconds with |s| < 9.2e9, got '";
  EXPECT_EQ(error_of({"--duration", "nan"}), "--duration" + tail + "nan'");
  EXPECT_EQ(error_of({"--warmup=inf"}), "--warmup" + tail + "inf'");
  EXPECT_EQ(error_of({"--tau", "-inf"}), "--tau" + tail + "-inf'");
  EXPECT_EQ(error_of({"--pacing", "1e10"}), "--pacing" + tail + "1e10'");
  EXPECT_EQ(error_of({"--session", "-9.2e9"}), "--session" + tail + "-9.2e9'");
  EXPECT_EQ(error_of({"--duration", "9.1e9", "--tau", "0.5"}), "no error");
}

// Every count flag must be a whole number its type holds: a negative,
// NaN, fractional or too large value would wrap in the cast (--hops -1
// would crash, --buffer -1 would never finish) or make it undefined.
TEST(SharedFlags, CountFlagsMustBeWholeNumbersInRange) {
  const auto declare = [](Flags& f) {
    f.flag("shards", "N", "shard count", 1)
        .flag("buffer", "PKTS", "buffer", 20)
        .flag("conns", "N", "connections", 2)
        .flag("hops", "N", "hops", 4)
        .flag("switches", "N", "switches", 0)
        .flag("senders", "N", "senders", 64)
        .flag("jobs", "N", "workers", 0)
        .flag("w1", "PKTS", "window", 30);
  };
  const auto error_of = [&](const std::vector<std::string>& args) {
    Flags f;
    declare(f);
    f.parse(args);
    try {
      tools::parse_shared_flags(f);
      return std::string("no error");
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
  };
  const std::string size =
      " must be a whole number from 0 to 18446744073709551615, got '";
  const std::string u32 = " must be a whole number from 0 to 4294967295, got '";
  EXPECT_EQ(error_of({"--hops", "-1"}), "--hops" + size + "-1'");
  EXPECT_EQ(error_of({"--buffer", "-1"}), "--buffer" + size + "-1'");
  EXPECT_EQ(error_of({"--switches", "-1"}), "--switches" + size + "-1'");
  EXPECT_EQ(error_of({"--senders", "-1"}), "--senders" + size + "-1'");
  EXPECT_EQ(error_of({"--conns", "-1"}), "--conns" + size + "-1'");
  EXPECT_EQ(error_of({"--jobs", "-1"}), "--jobs" + size + "-1'");
  EXPECT_EQ(error_of({"--conns", "nan"}), "--conns" + size + "nan'");
  EXPECT_EQ(error_of({"--buffer", "2.5"}), "--buffer" + size + "2.5'");
  EXPECT_EQ(error_of({"--buffer", "1.8446744073709552e19"}),
            "--buffer" + size + "1.8446744073709552e19'");
  EXPECT_EQ(error_of({"--w1", "4294967296"}), "--w1" + u32 + "4294967296'");
  // A 0-packet buffer drops every packet.
  EXPECT_EQ(error_of({"--buffer", "0"}),
            "--buffer must be >= 1 packet, got '0'");
  EXPECT_EQ(error_of({"--w1", "4294967295", "--buffer", "1", "--hops", "1e3"}),
            "no error");

  Flags f;
  declare(f);
  f.parse(std::vector<std::string>{"--w1", "4294967295", "--hops", "1e3"});
  EXPECT_EQ(tools::count_flag<std::uint32_t>(f, "w1"), 4294967295u);
  EXPECT_EQ(tools::count_flag<std::size_t>(f, "hops"), 1000u);
  EXPECT_EQ(tools::count_flag<std::size_t>(f, "buffer"), 20u);  // default
}

// Grid axes get the checks of the flag of the same name, before any point
// runs ("tau=nan" would reach the int64 cast in sim::Time); axes no
// scenario reads as a count or as seconds are left alone.
TEST(SharedFlags, GridAxesAreCheckedByName) {
  const auto error_of = [](const std::string& grid) {
    try {
      tools::check_grid_axes(core::parse_grid(grid));
      return std::string("no error");
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
  };
  EXPECT_EQ(error_of("buffer=-1"),
            "grid axis 'buffer' must be a whole number from 0 to "
            "18446744073709551615, got '-1'");
  EXPECT_EQ(error_of("tau=0.01,conns=2;2.5"),
            "grid axis 'conns' must be a whole number from 0 to "
            "18446744073709551615, got '2.5'");
  EXPECT_EQ(error_of("w2=4294967296"),
            "grid axis 'w2' must be a whole number from 0 to 4294967295, "
            "got '4294967296'");
  EXPECT_EQ(error_of("tau=nan"),
            "grid axis 'tau' must be finite seconds with |s| < 9.2e9, got "
            "'nan'");
  EXPECT_EQ(error_of("tau=1e300"),
            "grid axis 'tau' must be finite seconds with |s| < 9.2e9, got "
            "'1e+300'");
  EXPECT_EQ(error_of("buffer=0;10"),
            "grid axis 'buffer' must be >= 1 packet, got '0'");
  EXPECT_EQ(error_of("buffer=10:80:10,tau=0.01:1:log5,rep=-1;0.5"),
            "no error");
}

// tools::run_spec is the one run path of both tools: the serial engine at
// one shard, the sharded engine above, with the same summary. A trace
// needs the serial engine, and a trace file that cannot be opened throws,
// so the tool exits 2 with the message.
TEST(RunSpec, ShardedRunMatchesSerialAndLogsThePlan) {
  core::TopoSpec spec = core::fig4_twoway();
  spec.warmup = sim::Time::seconds(5.0);
  spec.duration = sim::Time::seconds(20.0);
  tools::SharedOptions opts;
  opts.audit = core::AuditMode::kFull;
  std::ostringstream log;
  const core::ScenarioSummary serial = tools::run_spec(spec, opts, "", &log);
  EXPECT_EQ(log.str(), "");
  opts.shards = 2;
  const core::ScenarioSummary sharded = tools::run_spec(spec, opts, "", &log);
  EXPECT_EQ(log.str().rfind("sharded: shards=2 cut-links=1 ", 0), 0u)
      << log.str();
  EXPECT_EQ(sharded.result.delivered, serial.result.delivered);
  EXPECT_EQ(sharded.result.audit.created, serial.result.audit.created);
  EXPECT_EQ(sharded.util_fwd, serial.util_fwd);
  EXPECT_EQ(sharded.util_rev, serial.util_rev);
}

TEST(RunSpec, TraceNeedsOneShard) {
  tools::SharedOptions opts;
  opts.shards = 2;
  try {
    tools::run_spec(core::fig4_twoway(), opts, "trace.jsonl", nullptr);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "--trace is not supported with --shards (one JSONL stream, "
                 "many shard clocks)");
  }
}

TEST(RunSpec, UnopenableTraceThrows) {
  const std::string path = testing::TempDir() + "no-such-dir/trace.jsonl";
  try {
    tools::run_spec(core::fig4_twoway(), tools::SharedOptions{}, path,
                    nullptr);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("cannot open '" + path + "'"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace tcpdyn::util
