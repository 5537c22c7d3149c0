// The input-value grammar (util/value.h) on every text surface: .topo
// fields, fault directives, the tools' flags and sweep-grid axes. Each kind
// has one rule and one message, whichever surface reads it; a scenario
// refuses a parameter it never reads; a parsed fault after the run end is
// refused however it arrives; and every seed replays exactly.
#include "util/value.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/cc_matrix.h"
#include "core/fault_plan.h"
#include "core/scenarios.h"
#include "core/shard_engine.h"
#include "core/sweep.h"
#include "core/topology.h"
#include "shared_options.h"
#include "util/flags.h"

namespace tcpdyn {
namespace {

using util::ValueKind;

TEST(InputValues, NumberIsDecimalOnly) {
  for (const char* text : {"20", "-0.5", "+3", "1.5e3", "1.2e-05", ".5", "5.",
                           "-0", "1E2"}) {
    EXPECT_TRUE(util::number(text).has_value()) << text;
  }
  for (const char* text : {"", "nan", "-nan", "inf", "-inf", "infinity",
                           "0x10", "1e999", "1e-400", "12abc", " 1", "1 ",
                           "+-1", "++1", "e5", "1e"}) {
    EXPECT_FALSE(util::number(text).has_value()) << text;
  }
  EXPECT_EQ(util::number("1.5e3"), 1500.0);
  EXPECT_EQ(util::number("+3"), 3.0);
}

// Seeds are read exactly as unsigned 64-bit: above 2^53 a double would
// round them, and half of a sweep's point seeds lie above 2^63.
TEST(InputValues, SeedsAreExactUnsigned64) {
  EXPECT_EQ(util::read_seed("18446744073709551615", "seed"),
            18446744073709551615u);
  EXPECT_EQ(util::read_seed("11045130339233787057", "seed"),
            11045130339233787057u);
  EXPECT_EQ(util::read_seed("9007199254740993", "seed"), 9007199254740993u);
  for (const char* text : {"18446744073709551616", "-1", "-0", "1e3", "2.0",
                           "+1", "0x10", ""}) {
    try {
      util::read_seed(text, "--seed");
      ADD_FAILURE() << text;
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()),
                "--seed must be a decimal integer from 0 to "
                "18446744073709551615, got '" +
                    std::string(text) + "'");
    }
  }
}

// --- one rule, one message, every surface ----------------------------------

const std::vector<std::string> kHostile = {
    "nan", "inf", "-0", "-1", "2.5", "1e999", "0x10", "18446744073709551616",
    ""};

// The hostile tokens each kind accepts; it rejects the rest.
const std::map<ValueKind, std::set<std::string>> kAccepted = {
    {ValueKind::kDelay, {"-0", "2.5"}},
    {ValueKind::kCount, {"-0"}},
    {ValueKind::kU32, {"-0"}},
    {ValueKind::kBuffer, {}},
    {ValueKind::kProbability, {"-0"}},
    {ValueKind::kRate, {"-0", "2.5", "18446744073709551616"}},
    {ValueKind::kBitsPerSecond, {}},
    {ValueKind::kSeed, {}},
    {ValueKind::kSwitch, {"-0"}},
};

// "ok", or the message a surface throws for `token`.
using Surface = std::function<std::string(const std::string& token)>;

std::string outcome(const std::function<void()>& parse) {
  try {
    parse();
    return "ok";
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
}

// A .topo file: a dumbbell whose `line` (with TOKEN replaced) is appended,
// or replaces the bottleneck link when it starts with "link S1 S2".
Surface topo(const std::string& line) {
  return [line](const std::string& token) {
    std::string text = line;
    text.replace(text.find("TOKEN"), 5, token);
    const bool link = text.rfind("link S1 S2", 0) == 0;
    std::istringstream in(
        "host H1\nhost H2\nswitch S1\nswitch S2\n"
        "link H1 S1 10000000 0.0001 inf inf\n" +
        (link ? text : std::string("link S1 S2 50000 0.01 20 20")) +
        "\nlink S2 H2 10000000 0.0001 inf inf\n" + (link ? "" : text) +
        "\n");
    return outcome([&] { core::parse_topology(in); });
  };
}

// A fault directive, words split on blanks after TOKEN is put in.
Surface fault(const std::string& directive) {
  return [directive](const std::string& token) {
    std::string text = directive;
    text.replace(text.find("TOKEN"), 5, token);
    std::istringstream words(text);
    std::vector<std::string> args;
    for (std::string w; words >> w;) args.push_back(w);
    core::FaultPlan plan;
    return outcome([&] { core::parse_fault_directive(plan, args, 3); });
  };
}

// Both tools' parameter flags, as --name=TOKEN.
Surface flag(const std::string& name) {
  return [name](const std::string& token) {
    util::Flags f;
    tools::declare_scenario_flags(f);
    f.flag("shards", "N", "shard count", 1).flag("jobs", "N", "workers", 0);
    f.parse(std::vector<std::string>{"--" + name + "=" + token});
    return outcome([&] { tools::parse_shared_flags(f); });
  };
}

// A grid axis, the token second in its list.
Surface axis(const std::string& name) {
  return [name](const std::string& token) {
    return outcome([&] { tools::parse_grid(name + "=1;" + token); });
  };
}

Surface seed_flag() {
  return [](const std::string& token) {
    return outcome([&] { util::read_seed(token, "--seed"); });
  };
}

// Every kind meets every hostile token on each surface with a field of that
// kind: the verdict is the kind's, and a rejection ends with the kind's one
// message. Positional .topo and fault words cannot be empty, so those skip
// the empty token; "inf" is the .topo buffer's word for no limit, not a
// number, so that surface skips it.
TEST(InputValues, EveryKindHasOneVerdictAndMessageOnEverySurface) {
  struct Field {
    ValueKind kind;
    std::string name;
    Surface surface;
    std::set<std::string> skip = {};
  };
  const std::set<std::string> positional = {""};
  const std::vector<Field> fields = {
      {ValueKind::kDelay, "start", topo("flow H1 H2 start=TOKEN")},
      {ValueKind::kDelay, "spread", topo("flow H1 H2 spread=TOKEN")},
      {ValueKind::kDelay, "stop", topo("flow H1 H2 stop=TOKEN")},
      {ValueKind::kDelay, "pacing", topo("flow H1 H2 pacing=TOKEN")},
      {ValueKind::kDelay, "session", topo("flow H1 H2 rate=1 session=TOKEN")},
      {ValueKind::kDelay, "--pacing", flag("pacing")},
      {ValueKind::kDelay, "--session", flag("session")},
      {ValueKind::kDelay, "grid axis 'pacing'", axis("pacing")},
      {ValueKind::kDelay, "grid axis 'session'", axis("session")},
      {ValueKind::kDelay, "warmup", topo("warmup TOKEN"), positional},
      {ValueKind::kDelay, "--duration", flag("duration")},
      {ValueKind::kDelay, "grid axis 'duration'", axis("duration")},
      {ValueKind::kDelay, "link delay",
       topo("link S1 S2 50000 TOKEN 20 20"), positional},
      {ValueKind::kDelay, "epoch_gap", topo("epoch_gap TOKEN"), positional},
      {ValueKind::kDelay, "outage time", fault("down S1 S2 TOKEN 1"),
       positional},
      {ValueKind::kDelay, "delay", fault("delay S1 S2 1 TOKEN"), positional},
      {ValueKind::kDelay, "--tau", flag("tau")},
      {ValueKind::kDelay, "grid axis 'outage'", axis("outage")},
      {ValueKind::kCount, "min_th",
       topo("link S1 S2 50000 0.01 20 20 red min_th=TOKEN")},
      {ValueKind::kCount, "--conns", flag("conns")},
      {ValueKind::kCount, "--jobs", flag("jobs")},
      {ValueKind::kCount, "grid axis 'hops'", axis("hops")},
      {ValueKind::kU32, "window", topo("flow H1 H2 window=TOKEN")},
      {ValueKind::kU32, "maxwnd", topo("flow H1 H2 maxwnd=TOKEN")},
      {ValueKind::kU32, "--w1", flag("w1")},
      {ValueKind::kU32, "grid axis 'w2'", axis("w2")},
      {ValueKind::kBuffer, "buffer", topo("link S1 S2 50000 0.01 TOKEN 20"),
       {"", "inf"}},
      {ValueKind::kBuffer, "--buffer", flag("buffer")},
      {ValueKind::kBuffer, "grid axis 'buffer'", axis("buffer")},
      {ValueKind::kProbability, "loss probability", fault("loss S1 S2 TOKEN"),
       positional},
      {ValueKind::kProbability, "loss_bad",
       fault("gilbert S1 S2 0.1 0.3 0 TOKEN"), positional},
      {ValueKind::kProbability, "--loss", flag("loss")},
      {ValueKind::kProbability, "grid axis 'loss'", axis("loss")},
      {ValueKind::kRate, "rate", topo("flow H1 H2 rate=TOKEN")},
      {ValueKind::kRate, "--arrival-rate", flag("arrival-rate")},
      {ValueKind::kRate, "grid axis 'arrival-rate'", axis("arrival-rate")},
      {ValueKind::kBitsPerSecond, "link rate",
       topo("link S1 S2 TOKEN 0.01 20 20"), positional},
      {ValueKind::kBitsPerSecond, "rate", fault("rate S1 S2 1 TOKEN"),
       positional},
      {ValueKind::kSeed, "seed", topo("seed TOKEN"), positional},
      {ValueKind::kSeed, "seed", topo("flow H1 H2 seed=TOKEN")},
      {ValueKind::kSeed, "seed", fault("seed TOKEN"), positional},
      {ValueKind::kSeed, "--seed", seed_flag()},
      {ValueKind::kSwitch, "ecn", topo("flow H1 H2 ecn=TOKEN")},
      {ValueKind::kSwitch, "delayed_ack", topo("flow H1 H2 delayed_ack=TOKEN")},
      {ValueKind::kSwitch, "--ecn", flag("ecn")},
  };
  std::set<ValueKind> covered;
  for (const Field& field : fields) {
    covered.insert(field.kind);
    for (const std::string& token : kHostile) {
      if (field.skip.contains(token)) continue;
      SCOPED_TRACE(field.name + " <- '" + token + "'");
      const std::string got = field.surface(token);
      if (kAccepted.at(field.kind).contains(token)) {
        EXPECT_EQ(got, "ok");
        continue;
      }
      const std::string tail =
          util::rejection(field.kind, field.name, token).what();
      ASSERT_GE(got.size(), tail.size()) << got;
      EXPECT_EQ(got.substr(got.size() - tail.size()), tail);
    }
  }
  EXPECT_EQ(covered.size(), kAccepted.size());
}

// Values that one surface used to run while another refused them, or that
// got through as NaN, by truncation or by clamping, now fail naming their
// line; the same value read by the other kinds still runs.
TEST(InputValues, TruncatedClampedAndNanValuesAreRejected) {
  const auto bad = [](const Surface& surface, const std::string& token) {
    return surface(token) != "ok";
  };
  EXPECT_TRUE(bad(topo("flow H1 H2 count=TOKEN"), "2.5"));
  EXPECT_TRUE(bad(topo("flow H1 H2 window=TOKEN"), "3.7"));
  EXPECT_TRUE(bad(topo("flow H1 H2 ecn=TOKEN"), "0.5"));
  EXPECT_TRUE(bad(topo("flow H1 H2 delayed_ack=TOKEN"), "2"));
  EXPECT_TRUE(bad(topo("flow H1 H2 rate=TOKEN"), "nan"));
  EXPECT_TRUE(bad(topo("flow H1 H2 rate=TOKEN"), "inf"));
  EXPECT_TRUE(bad(topo("epoch_gap TOKEN"), "nan"));
  EXPECT_TRUE(bad(topo("epoch_gap TOKEN"), "-3"));
  EXPECT_TRUE(bad(fault("loss S1 S2 TOKEN"), "nan"));
  EXPECT_TRUE(bad(fault("gilbert S1 S2 TOKEN 0.3 0 0.5"), "nan"));
  EXPECT_TRUE(bad(fault("delay S1 S2 10 TOKEN"), "-0.5"));
  EXPECT_TRUE(bad(fault("down S1 S2 TOKEN 2"), "-5"));
  EXPECT_TRUE(bad(fault("down S1 S2 10 TOKEN"), "-2"));
  EXPECT_TRUE(bad(topo("link S1 S2 TOKEN 0.01 20 20"), "1.5"));
  const Surface max_p = topo("link S1 S2 50000 0.01 20 20 red max_p=TOKEN");
  EXPECT_EQ(max_p("nan"),
            "topology file line 6: max_p must be a probability in [0, 1], "
            "got 'nan'");
  // RED keeps max_p in 1/65536ths: one that rounds to 0 never drops early.
  EXPECT_EQ(max_p("0.000007"),
            "topology file line 6: max_p must round to at least 1/65536, got "
            "'0.000007'");
  EXPECT_EQ(max_p("0.00001"), "ok");
  // A whole number of b/s may be written with an exponent on both surfaces.
  EXPECT_EQ(topo("link S1 S2 TOKEN 0.01 20 20")("1.5e3"), "ok");
  EXPECT_EQ(fault("rate S1 S2 10 TOKEN")("2.5e4"), "ok");
  // A whole count may carry a fraction of zeros on every count flag.
  for (const char* name : {"shards", "jobs", "conns"}) {
    EXPECT_EQ(flag(name)("2.0"), "ok") << name;
  }
}

// A parsed fault's origin names its line wherever its check fails.
TEST(InputValues, FaultEntriesKeepTheirOrigin) {
  const std::string path = testing::TempDir() + "input_values_origin.faults";
  std::ofstream(path) << "# two entries\nloss S1 S2 0.1\n\ndown S1 S2 5 1\n";
  core::FaultPlan plan;
  core::load_fault_file(path, plan);
  ASSERT_EQ(plan.outages().size(), 1u);
  EXPECT_EQ(plan.outages()[0].origin, "fault file '" + path + "' line 4");
  EXPECT_EQ(plan.impairments()[0].origin, "fault file '" + path + "' line 2");
  try {
    plan.check_run_end(sim::Time::seconds(4.0));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()),
              "fault file '" + path +
                  "' line 4: fault at 5 s is past the run end (warmup + "
                  "duration = 4 s)");
  }
  plan.check_run_end(sim::Time::seconds(5.0));  // one at the end still runs
}

// --- parameters a scenario reads ------------------------------------------

// Both tools' flags: every scenario parameter, plus --shards.
util::Flags tool_flags(const std::vector<std::string>& args) {
  util::Flags f;
  tools::declare_scenario_flags(f);
  f.flag("shards", "N", "shard count", 1);
  f.parse(args);
  return f;
}

std::string write_file(const std::string& name, const std::string& text) {
  const std::string path = testing::TempDir() + name;
  std::ofstream(path) << text;
  return path;
}

// A dumbbell .topo whose bottleneck flaps at 300 s of a 500 s run.
std::string faulted_topo() {
  return write_file("input_values.topo",
                    "host H1\nhost H2\nswitch S1\nswitch S2\n"
                    "link H1 S1 10000000 0.0001 inf inf\n"
                    "link S1 S2 50000 0.01 20 20\n"
                    "link S2 H2 10000000 0.0001 inf inf\n"
                    "flow H1 H2 start=0.7\nflow H2 H1 start=1.3\n"
                    "fault down S1 S2 300 1\n");
}

// Each scenario reads some parameters and refuses the others, naming both,
// whether the parameter is a flag or a grid axis: the run would otherwise
// ignore it. The accepted sets come from what each builder reads; the
// checks below pin a few and require every parameter to be read somewhere.
TEST(ScenarioReads, EveryScenarioRefusesEveryParameterItDoesNotRead) {
  const std::string topo = faulted_topo();
  // Every parameter with a value each scenario builds with; "" marks a
  // boolean flag, which is never an axis.
  const std::vector<std::pair<std::string, std::string>> params = {
      {"tau", "0.02"},       {"buffer", "10"},        {"conns", "4"},
      {"w1", "5"},           {"w2", "5"},             {"maxwnd", "8"},
      {"spread", "0.01"},    {"pacing", "0.001"},     {"delayed-ack", ""},
      {"ecn", ""},           {"hops", "2"},           {"long-flows", "1"},
      {"cross-per-hop", "1"}, {"switches", "4"},      {"loss", "0.2"},
      {"outage", "1"},       {"flap-period", "10"},   {"flaps", "1"},
      {"discard-on-down", ""}, {"senders", "2"},      {"flows-per-sender", "2"},
      {"arrival-rate", "1"}, {"session", "0.5"},      {"warmup", "1"},
      {"duration", "400"},   {"file", topo},          {"cc", "reno"},
      {"qdisc", "red"},
  };
  std::istringstream names_in(tools::scenario_names() + "|cc-matrix");
  std::map<std::string, std::set<std::string>> reads;
  std::set<std::string> read_anywhere;
  for (std::string name; std::getline(names_in, name, '|');) {
    const auto build = [&](std::vector<std::string> args,
                           const core::SweepPoint& point) {
      // topo cannot build without its file.
      if (name == "topo" && args.front() != "--file") {
        args.insert(args.end(), {"--file", topo});
      }
      const util::Flags f = tool_flags(args);
      const tools::SharedOptions opts = tools::parse_shared_flags(f);
      return outcome([&] {
        if (name == "cc-matrix") {
          tools::cc_matrix_params(f, opts);
        } else {
          tools::scenario_spec(name, point, f, opts);
        }
      });
    };
    for (const auto& [param, value] : params) {
      SCOPED_TRACE(name + " --" + param);
      core::SweepPoint point;
      point.seed = 7;
      std::vector<std::string> args = {"--" + param};
      if (!value.empty()) args.push_back(value);
      const std::string as_flag = build(args, point);
      if (as_flag == "ok") {
        reads[name].insert(param);
        read_anywhere.insert(param);
      } else {
        EXPECT_EQ(as_flag,
                  "scenario '" + name + "' does not read --" + param);
      }
      // cc-matrix has no grid; the text and boolean parameters no axis.
      const std::optional<double> number = util::number(value);
      if (name == "cc-matrix" || !number) continue;
      point.params = {{param, *number}};
      const std::string as_axis = build({"--audit", "full"}, point);
      EXPECT_EQ(as_axis, as_flag == "ok"
                             ? "ok"
                             : "scenario '" + name +
                                   "' does not read grid axis '" + param +
                                   "'");
    }
    EXPECT_TRUE(reads[name].contains("warmup")) << name;
    EXPECT_TRUE(reads[name].contains("duration")) << name;
  }
  EXPECT_EQ(reads.size(), 24u);
  EXPECT_EQ(read_anywhere.size(), params.size());
  using Set = std::set<std::string>;
  EXPECT_EQ(reads["fig4"], (Set{"tau", "buffer", "warmup", "duration"}));
  EXPECT_EQ(reads["topo"], (Set{"file", "warmup", "duration"}));
  EXPECT_EQ(reads["cc-matrix"], (Set{"cc", "tau", "buffer", "conns", "w1",
                                     "warmup", "duration"}));
  EXPECT_EQ(reads["twoway"],
            (Set{"tau", "buffer", "conns", "pacing", "delayed-ack", "ecn",
                 "cc", "qdisc", "warmup", "duration"}));
}

// A parsed down, rate or delay fault after the run end is refused however
// it arrives: in the .topo itself (TopologyFile.RejectsFaultsPastTheRunEnd),
// in a --faults file, or in a .topo whose run a --duration flag or a
// duration axis shortens. The error names the line the fault came from.
TEST(ScenarioReads, FaultsPastTheFinalRunEndAreRefused) {
  const std::string topo = faulted_topo();
  const auto error_of = [](const std::string& which,
                           const std::vector<std::string>& args,
                           const core::SweepPoint& point) {
    const util::Flags f = tool_flags(args);
    const tools::SharedOptions opts = tools::parse_shared_flags(f);
    return outcome([&] { tools::scenario_spec(which, point, f, opts); });
  };
  const std::string past =
      "topology file line 10: fault at 300 s is past the run end (warmup + "
      "duration = 110 s)";
  EXPECT_EQ(error_of("topo", {"--file", topo}, {}), "ok");
  EXPECT_EQ(error_of("topo", {"--file", topo, "--duration", "10"}, {}), past);
  core::SweepPoint shortened;
  shortened.params = {{"duration", 10.0}};
  EXPECT_EQ(error_of("topo", {"--file", topo}, shortened), past);

  const std::string faults = write_file("input_values_past.faults",
                                        "loss S1 S2 0.1\ndown S1 S2 9000 1\n");
  EXPECT_EQ(error_of("fig4", {"--faults", faults}, {}),
            "fault file '" + faults +
                "' line 2: fault at 9000 s is past the run end (warmup + "
                "duration = 500 s)");
  EXPECT_EQ(error_of("fig4", {"--faults", faults, "--duration", "8900"}, {}),
            "ok");
  // So is a flap of the chaos scenario's own schedule, naming the flags
  // that time it.
  EXPECT_EQ(error_of("chaos", {"--duration", "10"}, {}),
            "chaos flap 1 (--flaps, --flap-period): fault at 160 s is past "
            "the run end (warmup + duration = 110 s)");
  EXPECT_EQ(error_of("chaos", {"--duration", "120", "--warmup", "20"}, {}),
            "chaos flap 3 (--flaps, --flap-period): fault at 200 s is past "
            "the run end (warmup + duration = 140 s)");
  EXPECT_EQ(error_of("chaos", {"--duration", "120", "--flaps", "2"}, {}),
            "ok");
  // An entry built in code without an origin is checked too.
  core::FaultPlan plan;
  plan.add_outage({{{"S1", "S2"}, ""}, sim::Time::seconds(9.0), {}});
  EXPECT_EQ(outcome([&] { plan.check_run_end(sim::Time::seconds(8.0)); }),
            "fault at 9 s is past the run end (warmup + duration = 8 s)");
}

// warmup + duration past sim::Time's range fails naming both fields on
// every surface that sets a run length: a .topo's lines (the one that
// overflows the sum), the tools' flags and a sweep's axes. Each part alone
// is in range.
const std::string kRunEndTooLate =
    "warmup + duration must be finite seconds with 0 <= s < 9.2e9, got "
    "'9e+09 + 9e+09'";

TEST(RunEnd, TopoLinesNameTheSum) {
  EXPECT_EQ(topo("warmup TOKEN")("9e9"), "ok");
  std::istringstream in("host H1\nhost H2\nlink H1 H2 50000 0.01 20 20\n"
                        "duration 9e9\nwarmup 9e9\n");
  EXPECT_EQ(outcome([&] { core::parse_topology(in); }),
            "topology file line 5: " + kRunEndTooLate);
}

TEST(RunEnd, FlagsNameTheSum) {
  const util::Flags f = tool_flags({"--warmup", "9e9", "--duration", "9e9"});
  const tools::SharedOptions opts = tools::parse_shared_flags(f);
  EXPECT_EQ(outcome([&] { tools::scenario_spec("fig4", {}, f, opts); }),
            kRunEndTooLate);
  // cc-matrix builds its cells outside scenario_spec; their runs refuse it.
  EXPECT_EQ(outcome([&] {
              core::run_cc_matrix(tools::cc_matrix_params(f, opts));
            }),
            kRunEndTooLate);
}

TEST(RunEnd, AxesNameTheSum) {
  const util::Flags f = tool_flags({"--duration", "9e9"});
  const tools::SharedOptions opts = tools::parse_shared_flags(f);
  core::SweepPoint point;
  point.params = {{"warmup", 9e9}};
  EXPECT_EQ(outcome([&] { tools::scenario_spec("fig2", point, f, opts); }),
            kRunEndTooLate);
  // Both engines check the sum they run to.
  core::TopoSpec spec = core::fig4_twoway();
  spec.warmup = sim::Time::seconds(9e9);
  spec.duration = sim::Time::seconds(9e9);
  EXPECT_EQ(outcome([&] { core::ShardedEngine engine(spec, 2); }),
            kRunEndTooLate);
  core::Scenario sc(spec);
  EXPECT_EQ(outcome([&] { core::run_scenario(sc); }), kRunEndTooLate);
}

// Half of a sweep's point seeds lie above 2^63; tcpdyn_run --seed reads
// each exactly, so every point replays: tcpdyn_run chain --seed
// 11045130339233787057 prints the summary of the chain sweep's point 2.
TEST(ScenarioReads, EverySweepPointReplaysFromItsSeed) {
  const core::SweepGrid grid(tools::parse_grid("rep=0;1;2;3"));
  const core::SweepPoint point = grid.point(2, 1);
  EXPECT_EQ(point.seed, 11045130339233787057u);
  EXPECT_EQ(grid.point(3, 1).seed, 14867213586191173987u);
  const std::vector<std::string> run_length = {"--warmup", "5", "--duration",
                                               "20"};
  const auto row_of = [&](const core::SweepPoint& p, const util::Flags& f) {
    const tools::SharedOptions opts = tools::parse_shared_flags(f);
    return core::summary_row(
        p, tools::run_spec(tools::scenario_spec("chain", p, f, opts), opts, "",
                           nullptr));
  };
  core::SweepRow swept = row_of(point, tool_flags(run_length));
  ASSERT_EQ(swept.cells.front().first, "rep");
  swept.cells.erase(swept.cells.begin());

  util::Flags run;
  tools::declare_scenario_flags(run);
  run.flag("shards", "N", "shard count", 1).flag("seed", "N", "seed", 7);
  std::vector<std::string> args = {"--seed", "11045130339233787057"};
  args.insert(args.end(), run_length.begin(), run_length.end());
  run.parse(args);
  core::SweepPoint replay;
  replay.seed = util::read_seed(run.get("seed"), "--seed");
  EXPECT_EQ(row_of(replay, run).cells, swept.cells);
}

}  // namespace
}  // namespace tcpdyn
