#include "util/flags.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/cc_matrix.h"
#include "core/report.h"
#include "core/scenarios.h"
#include "core/sweep.h"
#include "shared_options.h"
#include "util/value.h"

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
  const std::string run = " must be finite seconds with 0 <= s < 9.2e9, got '";
  EXPECT_EQ(error_of({"--duration", "nan"}), "--duration" + run + "nan'");
  EXPECT_EQ(error_of({"--warmup=inf"}), "--warmup" + run + "inf'");
  EXPECT_EQ(error_of({"--tau", "-inf"}),
            "--tau must be finite seconds with 0 <= s < 9.2e9, got '-inf'");
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
  const std::string buffer =
      " must be a whole number of packets from 1 to 18446744073709551615, "
      "got '";
  EXPECT_EQ(error_of({"--hops", "-1"}), "--hops" + size + "-1'");
  EXPECT_EQ(error_of({"--buffer", "-1"}), "--buffer" + buffer + "-1'");
  EXPECT_EQ(error_of({"--switches", "-1"}), "--switches" + size + "-1'");
  EXPECT_EQ(error_of({"--senders", "-1"}), "--senders" + size + "-1'");
  EXPECT_EQ(error_of({"--conns", "-1"}), "--conns" + size + "-1'");
  EXPECT_EQ(error_of({"--jobs", "-1"}), "--jobs" + size + "-1'");
  EXPECT_EQ(error_of({"--conns", "nan"}), "--conns" + size + "nan'");
  EXPECT_EQ(error_of({"--buffer", "2.5"}), "--buffer" + buffer + "2.5'");
  EXPECT_EQ(error_of({"--buffer", "1.8446744073709552e19"}),
            "--buffer" + buffer + "1.8446744073709552e19'");
  EXPECT_EQ(error_of({"--w1", "4294967296"}), "--w1" + u32 + "4294967296'");
  // A 0-packet buffer drops every packet.
  EXPECT_EQ(error_of({"--buffer", "0"}), "--buffer" + buffer + "0'");
  EXPECT_EQ(error_of({"--w1", "4294967295", "--buffer", "1", "--hops", "1e3"}),
            "no error");

  Flags f;
  declare(f);
  f.parse(std::vector<std::string>{"--w1", "4294967295", "--hops", "1e3"});
  EXPECT_EQ(read(ValueKind::kU32, f.get("w1"), "--w1"), 4294967295.0);
  EXPECT_EQ(read(ValueKind::kCount, f.get("hops"), "--hops"), 1000.0);
  EXPECT_EQ(read(ValueKind::kBuffer, f.get("buffer"), "--buffer"),
            20.0);  // default
}

// Grid axes get the checks of the flag of the same name, before any point
// runs ("tau=nan" would reach the int64 cast in sim::Time); axes no
// scenario reads as a count or as seconds are left alone.
TEST(SharedFlags, GridAxesAreCheckedByName) {
  const auto error_of = [](const std::string& grid) {
    try {
      tools::parse_grid(grid);
      return std::string("no error");
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
  };
  EXPECT_EQ(error_of("buffer=-1"),
            "grid axis 'buffer' must be a whole number of packets from 1 to "
            "18446744073709551615, got '-1'");
  EXPECT_EQ(error_of("tau=0.01,conns=2;2.5"),
            "grid axis 'conns' must be a whole number from 0 to "
            "18446744073709551615, got '2.5'");
  EXPECT_EQ(error_of("w2=4294967296"),
            "grid axis 'w2' must be a whole number from 0 to 4294967295, "
            "got '4294967296'");
  EXPECT_EQ(error_of("tau=nan"),
            "grid axis 'tau' must be finite seconds with 0 <= s < 9.2e9, got "
            "'nan'");
  EXPECT_EQ(error_of("tau=1e300"),
            "grid axis 'tau' must be finite seconds with 0 <= s < 9.2e9, got "
            "'1e300'");
  EXPECT_EQ(error_of("buffer=0;10"),
            "grid axis 'buffer' must be a whole number of packets from 1 to "
            "18446744073709551615, got '0'");
  EXPECT_EQ(error_of("loss=0.5;2"),
            "grid axis 'loss' must be a probability in [0, 1], got '2'");
  EXPECT_EQ(error_of("arrival-rate=-1"),
            "grid axis 'arrival-rate' must be a finite rate >= 0, got '-1'");
  // An axis must name a numeric parameter: a misspelt one would run every
  // point at the default, and booleans and --jobs are flags only.
  const std::string numeric =
      "' names no numeric scenario parameter (tau|buffer|conns|w1|w2|"
      "maxwnd|spread|pacing|hops|long-flows|cross-per-hop|switches|loss|"
      "outage|flap-period|flaps|senders|flows-per-sender|arrival-rate|"
      "session|warmup|duration|rep)";
  EXPECT_EQ(error_of("bufer=10;20"), "grid axis 'bufer" + numeric);
  EXPECT_EQ(error_of("tau=0.01,ecn=0;1"), "grid axis 'ecn" + numeric);
  EXPECT_EQ(error_of("jobs=1;2"), "grid axis 'jobs" + numeric);
  EXPECT_EQ(error_of("buffer=10:80:10,tau=0.01:1:log5,rep=-1;0.5"),
            "no error");
  EXPECT_EQ(error_of("loss=0;1,arrival-rate=0;5,duration=20;60"), "no error");
}

// Both tools' flags: every scenario parameter, plus the --shards that
// parse_shared_flags reads.
Flags tool_flags(const std::vector<std::string>& args) {
  Flags f;
  tools::declare_scenario_flags(f);
  f.flag("shards", "N", "shard count", 1);
  f.parse(args);
  return f;
}

// The kinds beyond seconds and counts: a probability, a rate and the
// booleans are checked before any run, naming the flag.
TEST(SharedFlags, ProbabilityRateAndBooleanFlagsAreChecked) {
  const auto error_of = [](const std::vector<std::string>& args) {
    try {
      tools::parse_shared_flags(tool_flags(args));
      return std::string("no error");
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
  };
  EXPECT_EQ(error_of({"--loss", "2"}),
            "--loss must be a probability in [0, 1], got '2'");
  EXPECT_EQ(error_of({"--loss", "nan"}),
            "--loss must be a probability in [0, 1], got 'nan'");
  EXPECT_EQ(error_of({"--loss=-0.1"}),
            "--loss must be a probability in [0, 1], got '-0.1'");
  EXPECT_EQ(error_of({"--arrival-rate", "-1"}),
            "--arrival-rate must be a finite rate >= 0, got '-1'");
  EXPECT_EQ(error_of({"--arrival-rate", "inf"}),
            "--arrival-rate must be a finite rate >= 0, got 'inf'");
  EXPECT_EQ(error_of({"--ecn=maybe"}), "--ecn must be 0 or 1, got 'maybe'");
  EXPECT_EQ(error_of({"--loss", "1", "--arrival-rate", "0", "--ecn",
                      "--discard-on-down=false"}),
            "no error");
}

// --- the scenario table --------------------------------------------------

std::vector<std::string> split_names(const std::string& names) {
  std::vector<std::string> out;
  std::istringstream in(names);
  for (std::string name; std::getline(in, name, '|');) out.push_back(name);
  return out;
}

// A small .topo file for scenario topo.
std::string write_topo_file() {
  const std::string path = testing::TempDir() + "scenario_table.topo";
  std::ofstream(path) << "host H1\nhost H2\nswitch S1\nswitch S2\n"
                         "link H1 S1 10000000 0.0001 inf inf\n"
                         "link S1 S2 50000 0.01 20 20\n"
                         "link S2 H2 10000000 0.0001 inf inf\n"
                         "monitor S1 S2\nmonitor S2 S1\n"
                         "flow H1 H2 start=0.7\nflow H2 H1 start=1.3\n";
  return path;
}

core::TopoSpec spec_of(const std::string& which,
                       const std::vector<std::string>& args,
                       const core::SweepPoint& point = {}) {
  const Flags f = tool_flags(args);
  return tools::scenario_spec(which, point, f, tools::parse_shared_flags(f));
}

// The printed summary of `spec` over a short run, its name left out.
std::string short_run(core::TopoSpec spec) {
  spec.warmup = sim::Time::seconds(5.0);
  spec.duration = sim::Time::seconds(20.0);
  tools::SharedOptions opts;
  opts.audit = core::AuditMode::kFull;
  std::ostringstream os;
  core::print_summary(os, "", tools::run_spec(spec, opts, "", nullptr));
  return os.str();
}

// The flows of `spec`, one line each: endpoints, count, controller and
// window cap (a cap the short run never reaches shows only here).
std::string flows_of(const core::TopoSpec& spec) {
  std::ostringstream os;
  for (const core::ConnSpec& c : spec.traffic.specs()) {
    os << c.src << "->" << c.dst << " x" << c.count
       << " kind=" << static_cast<int>(c.kind) << " maxwnd=" << c.maxwnd
       << '\n';
  }
  return os.str();
}

// Both tools list the same names, and each builds from flags left unset
// (topo reads only its --file) and runs under the full ledger (which throws
// on any violation). The run length comes from the point's axes.
TEST(ScenarioSpec, EveryNameBuildsAndRunsUnderTheFullAudit) {
  const std::vector<std::string> names = split_names(tools::scenario_names());
  ASSERT_EQ(names.size(), 23u);
  const std::string topo = write_topo_file();
  core::SweepPoint point;
  point.params = {{"warmup", 1.0}, {"duration", 2.0}};
  point.seed = 7;
  for (const std::string& name : names) {
    SCOPED_TRACE(name);
    const Flags f = name == "topo"
                        ? tool_flags({"--file", topo, "--audit", "full"})
                        : tool_flags({"--audit", "full"});
    const tools::SharedOptions opts = tools::parse_shared_flags(f);
    const core::TopoSpec spec = tools::scenario_spec(name, point, f, opts);
    EXPECT_EQ(spec.warmup, sim::Time::seconds(1.0));
    EXPECT_EQ(spec.duration, sim::Time::seconds(2.0));
    const core::ScenarioSummary s = tools::run_spec(spec, opts, "", nullptr);
    EXPECT_GT(s.result.audit.created, 0u);
  }
}

// With no flag and no axis, each paper name builds what its core factory
// builds at the scenario's defaults.
TEST(ScenarioSpec, PaperNamesBuildTheirFactoryDefaults) {
  using enum tcp::CcAlgorithm;
  core::SweepPoint point;
  point.seed = 13;
  const std::pair<const char*, core::TopoSpec> cases[] = {
      {"fig2", core::fig2_one_way()},
      {"fig3", core::fig3_ten_connections()},
      {"fig4", core::fig4_twoway()},
      {"fig6", core::fig6_twoway()},
      {"fig8", core::fig8_fixed_window()},
      {"fixed", core::fig8_fixed_window()},
      {"fig9", core::fig8_fixed_window(1.0)},
      {"reno", core::reno_twoway()},
      {"paced", core::paced_twoway()},
      {"random-drop", core::random_drop_twoway()},
      {"delayed-ack", core::delayed_ack_twoway(64)},
      {"rtt", core::rtt_heterogeneity(4, 0.0)},
      {"ccmix",
       core::ccmix_twoway({kTahoe, kReno, kNewReno, kCubic, kVegas})},
      {"chain", core::four_switch_chain(50, 13)},
  };
  for (const auto& [name, factory] : cases) {
    SCOPED_TRACE(name);
    const core::TopoSpec built = spec_of(name, {}, point);
    EXPECT_EQ(flows_of(built), flows_of(factory));
    EXPECT_EQ(short_run(built), short_run(factory));
  }
}

// A parameter is the point's axis, else its flag, else the default; the
// run length follows the same rule, and --faults adds to the scenario's
// faults.
TEST(ScenarioSpec, AxisBeatsFlagAndFlagBeatsDefault) {
  const auto bottleneck = [](const core::TopoSpec& spec) {
    for (const core::LinkSpec& l : spec.topo.links()) {
      if (l.bits_per_second == 50'000) return l;
    }
    return core::LinkSpec{};
  };
  core::SweepPoint axes;
  axes.params = {{"tau", 0.1}, {"buffer", 7.0}, {"duration", 60.0}};

  const core::TopoSpec dflt = spec_of("fig4", {});
  EXPECT_EQ(bottleneck(dflt).delay, sim::Time::seconds(0.01));
  EXPECT_EQ(bottleneck(dflt).buffer_ab.packets, 20u);
  EXPECT_EQ(dflt.duration, sim::Time::seconds(400.0));

  const std::vector<std::string> args = {"--tau", "0.05", "--buffer", "9",
                                         "--duration", "30"};
  const core::TopoSpec flag = spec_of("fig4", args);
  EXPECT_EQ(bottleneck(flag).delay, sim::Time::seconds(0.05));
  EXPECT_EQ(bottleneck(flag).buffer_ab.packets, 9u);
  EXPECT_EQ(flag.duration, sim::Time::seconds(30.0));

  const core::TopoSpec axis = spec_of("fig4", args, axes);
  EXPECT_EQ(bottleneck(axis).delay, sim::Time::seconds(0.1));
  EXPECT_EQ(bottleneck(axis).buffer_ab.packets, 7u);
  EXPECT_EQ(axis.duration, sim::Time::seconds(60.0));

  const std::string faults = testing::TempDir() + "scenario_table.faults";
  std::ofstream(faults) << "down S1 S2 30 2\n";
  EXPECT_EQ(spec_of("fig4", {"--faults", faults}).faults.outages().size(), 1u);
}

TEST(ScenarioSpec, UnknownNameThrows) {
  try {
    spec_of("x", {});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "unknown scenario 'x'");
  }
}

// oneway and twoway are the dumbbell configured flag by flag: --conns flows,
// the first half forward when two-way, each through --cc in turn.
TEST(ScenarioSpec, OnewayAndTwowayBuildTheConfigurableDumbbell) {
  const auto sources = [](const core::TopoSpec& spec) {
    std::string out;
    for (const core::ConnSpec& c : spec.traffic.specs()) out += c.src + ' ';
    return out;
  };
  EXPECT_EQ(sources(spec_of("twoway", {"--conns", "3"})), "H1 H1 H2 ");
  EXPECT_EQ(sources(spec_of("oneway", {"--conns", "3"})), "H1 H1 H1 ");
  const core::TopoSpec mixed =
      spec_of("twoway", {"--conns", "4", "--cc", "reno,cubic", "--ecn"});
  ASSERT_EQ(mixed.traffic.specs().size(), 4u);
  EXPECT_EQ(mixed.traffic.specs()[2].kind, tcp::CcAlgorithm::kReno);
  EXPECT_EQ(mixed.traffic.specs()[3].kind, tcp::CcAlgorithm::kCubic);
  EXPECT_TRUE(mixed.traffic.specs()[3].ecn);
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
