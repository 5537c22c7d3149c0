#include "core/topology.h"

#include <gtest/gtest.h>

#include <sstream>

#include "core/chain.h"
#include "core/dumbbell.h"
#include "core/scenarios.h"
#include "core/topo_scenarios.h"
#include "util/rng.h"

namespace tcpdyn::core {
namespace {

TEST(Topology, DeclarationOrderIsNodeId) {
  Topology t;
  EXPECT_EQ(t.add_host("a"), 0u);
  EXPECT_EQ(t.add_switch("s"), 1u);
  EXPECT_EQ(t.add_host("b"), 2u);
  EXPECT_EQ(t.index("s"), 1u);
  EXPECT_TRUE(t.has_node("a"));
  EXPECT_FALSE(t.has_node("zz"));
  EXPECT_EQ(t.node_count(), 3u);
  EXPECT_EQ(t.host_count(), 2u);

  t.add_link(0, 1, 1'000'000, sim::Time::microseconds(100));
  t.add_link(2, 1, 1'000'000, sim::Time::microseconds(100));
  Experiment exp;
  const CompiledTopology c = t.compile(exp);
  EXPECT_EQ(c.id("a"), 0u);
  EXPECT_EQ(c.id("s"), 1u);
  EXPECT_EQ(c.id("b"), 2u);
  EXPECT_THROW(c.id("zz"), std::out_of_range);
}

TEST(Topology, RejectsBadDeclarations) {
  Topology t;
  t.add_host("a");
  EXPECT_THROW(t.add_switch("a"), std::invalid_argument);  // duplicate name
  t.add_switch("s");
  t.add_switch("r");
  EXPECT_THROW(t.add_link(0, 0, 1, sim::Time::zero()), std::invalid_argument);
  EXPECT_THROW(t.add_link(0, 9, 1, sim::Time::zero()), std::invalid_argument);
  t.add_link(0, 1, 1'000'000, sim::Time::microseconds(1));
  // A host has exactly one access link.
  EXPECT_THROW(t.add_link(0, 2, 1'000'000, sim::Time::microseconds(1)),
               std::invalid_argument);
  // monitor() requires an existing link.
  EXPECT_THROW(t.monitor(1, 2), std::invalid_argument);
}

TEST(Topology, RejectsNonPositiveRateAndNegativeDelay) {
  Topology t;
  t.add_switch("s");
  t.add_switch("r");
  const auto error_of = [&](std::int64_t bps, sim::Time delay) {
    try {
      t.add_link(0, 1, bps, delay);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  EXPECT_EQ(error_of(0, sim::Time::zero()),
            "link 's'-'r': rate must be > 0 b/s, got 0");
  EXPECT_EQ(error_of(-50'000, sim::Time::zero()),
            "link 's'-'r': rate must be > 0 b/s, got -50000");
  EXPECT_EQ(error_of(1'000'000, sim::Time::milliseconds(-10)),
            "link 's'-'r': delay must be >= 0, got -10000000 ns");
  EXPECT_EQ(t.link_count(), 0u);
  EXPECT_EQ(error_of(1, sim::Time::zero()), "no error");
}

TEST(Topology, CompileRejectsDisconnectedGraph) {
  Topology t;
  t.add_host("a");
  t.add_switch("s");
  t.add_host("lonely");
  t.add_link(0, 1, 1'000'000, sim::Time::microseconds(1));
  Experiment exp;
  try {
    t.compile(exp);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "topology is disconnected: node 'lonely' is unreachable "
                 "from 'a'");
  }
}

// Ring of four switches: the route from R1 to the antipodal R3 has two
// equal-cost paths (via R2, node 2, or via R4, node 6). The tie must go to
// the smallest node id, deterministically.
TEST(Topology, DijkstraBreaksTiesBySmallestNodeId) {
  Topology t;
  std::vector<std::size_t> sw, ho;
  for (int i = 0; i < 4; ++i) {
    sw.push_back(t.add_switch("R" + std::to_string(i + 1)));
    ho.push_back(t.add_host("H" + std::to_string(i + 1)));
  }
  for (int i = 0; i < 4; ++i) {
    t.add_link(ho[i], sw[i], 10'000'000, sim::Time::microseconds(100));
    t.add_link(sw[i], sw[(i + 1) % 4], 1'000'000,
               sim::Time::microseconds(500));
  }
  t.monitor(sw[0], sw[1]);  // R1 -> R2: the smaller-id candidate
  t.monitor(sw[0], sw[3]);  // R1 -> R4: the larger-id candidate
  Experiment exp;
  const CompiledTopology c = t.compile(exp);

  tcp::ConnectionConfig cfg;
  cfg.id = 0;
  cfg.src_host = c.id("H1");
  cfg.dst_host = c.id("H3");
  exp.add_connection(cfg);
  const ExperimentResult r =
      exp.run(sim::Time::seconds(1.0), sim::Time::seconds(5.0));
  EXPECT_GT(r.ports[0].departures.size(), 0u);   // all data goes via R2
  EXPECT_EQ(r.ports[1].departures.size(), 0u);   // nothing via R4
}

// Triangle where the direct link is slow: the delay metric must route around
// it, where hop-count routing would go direct.
TEST(Topology, DelayMetricAvoidsSlowDirectLink) {
  Topology t;
  const std::size_t a = t.add_switch("A");
  const std::size_t b = t.add_switch("B");
  const std::size_t cc = t.add_switch("C");
  const std::size_t ha = t.add_host("HA");
  const std::size_t hc = t.add_host("HC");
  t.add_link(ha, a, 10'000'000, sim::Time::microseconds(100));
  t.add_link(hc, cc, 10'000'000, sim::Time::microseconds(100));
  // Direct A-C: 50 kbps (80 ms per 500 B packet). Detour A-B-C: 10 Mbps.
  t.add_link(a, cc, 50'000, sim::Time::microseconds(100));
  t.add_link(a, b, 10'000'000, sim::Time::microseconds(100));
  t.add_link(b, cc, 10'000'000, sim::Time::microseconds(100));
  t.monitor(a, cc);
  t.monitor(a, b);
  Experiment exp;
  const CompiledTopology c = t.compile(exp);
  tcp::ConnectionConfig cfg;
  cfg.id = 0;
  cfg.src_host = c.id("HA");
  cfg.dst_host = c.id("HC");
  exp.add_connection(cfg);
  const ExperimentResult r =
      exp.run(sim::Time::seconds(1.0), sim::Time::seconds(5.0));
  EXPECT_EQ(r.ports[0].departures.size(), 0u);   // slow direct link unused
  EXPECT_GT(r.ports[1].departures.size(), 0u);   // traffic takes the detour
}

TEST(TrafficMatrix, ExpandsCountsWithPerSpecStreams) {
  ConnSpec spec;
  spec.src = "H1";
  spec.dst = "H2";
  spec.count = 3;
  spec.start_spread = sim::Time::seconds(4.0);
  spec.seed = 99;

  const auto starts_of = [&](const TrafficMatrix& m) {
    Experiment exp;
    Topology t;
    const std::size_t h1 = t.add_host("H1");
    const std::size_t s1 = t.add_switch("S1");
    const std::size_t h2 = t.add_host("H2");
    t.add_link(h1, s1, 1'000'000, sim::Time::microseconds(100));
    t.add_link(s1, h2, 1'000'000, sim::Time::microseconds(100));
    m.instantiate(exp, t.compile(exp));
    std::vector<sim::Time> starts;
    for (std::size_t i = 0; i < exp.connection_count(); ++i) {
      starts.push_back(exp.connection(i).config().start_time);
    }
    return starts;
  };

  TrafficMatrix alone;
  alone.add(spec);
  EXPECT_EQ(alone.flow_count(), 3u);
  const auto starts1 = starts_of(alone);
  ASSERT_EQ(starts1.size(), 3u);
  EXPECT_NE(starts1[0], starts1[1]);  // jittered

  // A preceding spec must not perturb this spec's start times.
  TrafficMatrix crowded;
  ConnSpec other;
  other.src = "H2";
  other.dst = "H1";
  other.count = 2;
  other.start_spread = sim::Time::seconds(4.0);
  other.seed = 7;
  crowded.add(other);
  crowded.add(spec);
  const auto starts2 = starts_of(crowded);
  ASSERT_EQ(starts2.size(), 5u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(starts2[2 + i], starts1[i]);
  }
}

TEST(TrafficMatrix, RejectsUnresolvableEndpoints) {
  TrafficMatrix m;
  ConnSpec c;
  c.src = "nowhere";
  c.dst = "nobody";
  m.add(c);
  Experiment exp;
  CompiledTopology topo;
  EXPECT_THROW(m.instantiate(exp, topo), std::out_of_range);
  ConnSpec bad;
  bad.count = 0;
  EXPECT_THROW(m.add(bad), std::invalid_argument);
}

TEST(TopologyFile, ParsesFullDescription) {
  std::istringstream in(R"(# a dumbbell, in file form
name parsed-dumbbell
host H1
host H2
switch S1
switch S2
seed 5
link H1 S1 10000000 0.0001 inf inf
link S1 S2 50000 0.01 20 20 droptail
link S2 H2 10000000 0.0001 inf inf
monitor S1 S2
monitor S2 S1
flow H1 H2 count=2 spread=4 kind=tahoe
flow H2 H1 start=1.5 maxwnd=64 delayed_ack=1
warmup 10
duration 40
epoch_gap 3
)");
  const TopoSpec spec = parse_topology(in);
  EXPECT_EQ(spec.name, "parsed-dumbbell");
  EXPECT_EQ(spec.topo.node_count(), 4u);
  EXPECT_EQ(spec.topo.link_count(), 3u);
  EXPECT_EQ(spec.topo.monitor_count(), 2u);
  EXPECT_EQ(spec.seed, 5u);
  ASSERT_EQ(spec.traffic.specs().size(), 2u);
  EXPECT_EQ(spec.traffic.flow_count(), 3u);
  EXPECT_EQ(spec.traffic.specs()[0].count, 2u);
  EXPECT_EQ(spec.traffic.specs()[0].seed, util::mix_seed(5, 0));
  EXPECT_EQ(spec.traffic.specs()[1].maxwnd, 64u);
  EXPECT_TRUE(spec.traffic.specs()[1].delayed_ack);
  EXPECT_EQ(spec.warmup, sim::Time::seconds(10.0));
  EXPECT_EQ(spec.duration, sim::Time::seconds(40.0));
  EXPECT_DOUBLE_EQ(spec.epoch_gap_sec, 3.0);

  // And it runs end to end.
  Scenario sc = make_topo_scenario(spec);
  EXPECT_EQ(sc.exp->connection_count(), 3u);
  const ScenarioSummary s = run_scenario(sc);
  EXPECT_GT(s.util_fwd, 0.0);
  EXPECT_EQ(s.flows.flows, 3u);
}

TEST(TopologyFile, ErrorsNameTheLine) {
  const auto line_of = [](const std::string& text) {
    std::istringstream in(text);
    try {
      parse_topology(in);
      return std::string("no error");
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
  };
  EXPECT_NE(line_of("host A\nfrob B\n").find("line 2"), std::string::npos);
  EXPECT_NE(line_of("host A\nhost B\nlink A B xyz 0.1 inf inf\n")
                .find("line 3"),
            std::string::npos);
  EXPECT_NE(line_of("host A\nhost B\nflow A B count=1\nseed 3\n")
                .find("before the first flow"),
            std::string::npos);
  EXPECT_NE(line_of("").find("no nodes"), std::string::npos);
}

// Every .topo discipline option belongs to one discipline and is checked
// against it: an option on another discipline, a RED band with no width
// and a zero DRR quantum would otherwise be accepted and then ignored,
// force-drop every arrival, or be clamped.
TEST(TopologyFile, DisciplineOptionsMustMatchTheirDiscipline) {
  const auto error_of = [](const std::string& stanza) {
    std::istringstream in("switch S1\nswitch S2\nlink S1 S2 50000 0.01 20 20 " +
                          stanza + "\n");
    try {
      parse_topology(in);
      return std::string("no error");
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
  };
  EXPECT_EQ(error_of("drr min_th=5"),
            "topology file line 3: 'min_th' is a RED option, but the link "
            "runs 'drr'");
  EXPECT_EQ(error_of("red quantum=100"),
            "topology file line 3: 'quantum' is a DRR option, but the link "
            "runs 'red'");
  EXPECT_EQ(error_of("red min_th=15 max_th=5"),
            "topology file line 3: RED needs min_th < max_th, got min_th=15 "
            "max_th=5");
  EXPECT_EQ(error_of("red-ecn min_th=15"),
            "topology file line 3: RED needs min_th < max_th, got min_th=15 "
            "max_th=15");
  EXPECT_EQ(error_of("drr quantum=0"),
            "topology file line 3: quantum must be >= 1 byte, got '0'");
  EXPECT_EQ(error_of("droptail min_th=3"),
            "topology file line 3: 'droptail' takes no options");
  EXPECT_EQ(error_of("randomdrop quantum=5"),
            "topology file line 3: 'randomdrop' takes no options");

  std::istringstream in(
      "switch S1\nswitch S2\nswitch S3\nswitch S4\n"
      "link S1 S2 50000 0.01 20 20\n"
      "link S2 S3 50000 0.01 20 20 randomdrop\n"
      "link S3 S4 50000 0.01 20 20 red-ecn min_th=3 max_th=12 wq_shift=4\n"
      "link S4 S1 50000 0.01 20 20 drr quantum=100\n");
  const std::vector<LinkSpec> links = parse_topology(in).topo.links();
  ASSERT_EQ(links.size(), 4u);
  EXPECT_EQ(links[0].qdisc.kind, net::QdiscKind::kDropTail);
  EXPECT_EQ(links[1].qdisc.kind, net::QdiscKind::kRandomDrop);
  EXPECT_EQ(links[2].qdisc.kind, net::QdiscKind::kRed);
  EXPECT_TRUE(links[2].qdisc.red.ecn);
  EXPECT_EQ(links[2].qdisc.red.min_th, 3u);
  EXPECT_EQ(links[2].qdisc.red.max_th, 12u);
  EXPECT_EQ(links[2].qdisc.red.wq_shift, 4u);
  EXPECT_EQ(links[3].qdisc.kind, net::QdiscKind::kDrr);
  EXPECT_EQ(links[3].qdisc.drr.quantum_bytes, 100u);
}

TEST(TopologyFile, RejectsNonPositiveRateAndNegativeDelay) {
  const auto error_of = [](const std::string& link) {
    std::istringstream in("switch S1\nswitch S2\n" + link + "\n");
    try {
      parse_topology(in);
      return std::string("no error");
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
  };
  const std::string rate =
      "topology file line 3: link rate must be a whole number of b/s from 1 "
      "to 9223372036854775807, got '";
  const std::string delay =
      "topology file line 3: link delay must be finite seconds with 0 <= s "
      "< 9.2e9, got '";
  EXPECT_EQ(error_of("link S1 S2 0 0.01 20 20"), rate + "0'");
  EXPECT_EQ(error_of("link S1 S2 -50000 0.01 20 20"), rate + "-50000'");
  EXPECT_EQ(error_of("link S1 S2 0.5 0.01 20 20"), rate + "0.5'");
  EXPECT_EQ(error_of("link S1 S2 nan 0.01 20 20"), rate + "nan'");
  EXPECT_EQ(error_of("link S1 S2 1e30 0.01 20 20"), rate + "1e30'");
  EXPECT_EQ(error_of("link S1 S2 50000 -0.01 20 20"), delay + "-0.01'");
  EXPECT_EQ(error_of("link S1 S2 50000 nan 20 20"), delay + "nan'");
  EXPECT_EQ(error_of("link S1 S2 50000 0 20 20"), "no error");
}

// A 0-packet buffer cannot hold the packet in service, so every packet on
// the link would drop; the file must say "inf" or a count of at least 1.
TEST(TopologyFile, RejectsZeroBuffer) {
  const auto error_of = [](const std::string& link) {
    std::istringstream in("switch S1\nswitch S2\n" + link + "\n");
    try {
      parse_topology(in);
      return std::string("no error");
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
  };
  const std::string buffer =
      "topology file line 3: buffer must be a whole number of packets from 1 "
      "to 18446744073709551615, got '";
  EXPECT_EQ(error_of("link S1 S2 50000 0.01 0 0"), buffer + "0'");
  EXPECT_EQ(error_of("link S1 S2 50000 0.01 20 0"), buffer + "0'");
  EXPECT_EQ(error_of("link S1 S2 50000 0.01 -3 20"), buffer + "-3'");
  EXPECT_EQ(error_of("link S1 S2 50000 0.01 1 inf"), "no error");
}

// A down, rate or delay event after warmup + duration would never fire.
// The run length may be set after the faults, so the check names the fault's
// own line once the whole file is read; an event at the end still runs.
TEST(TopologyFile, RejectsFaultsPastTheRunEnd) {
  const auto error_of = [](const std::string& tail) {
    std::istringstream in(
        "switch S1\nswitch S2\nlink S1 S2 50000 0.01 20 20\n" + tail);
    try {
      parse_topology(in);
      return std::string("no error");
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
  };
  EXPECT_EQ(error_of("fault down S1 S2 9000 1\n"),
            "topology file line 4: fault at 9000 s is past the run end "
            "(warmup + duration = 500 s)");
  EXPECT_EQ(error_of("fault rate S1 S2 40 25000\nwarmup 10\nduration 20\n"),
            "topology file line 4: fault at 40 s is past the run end "
            "(warmup + duration = 30 s)");
  EXPECT_EQ(error_of("duration 20\nfault delay S1 S2 120.5 0.02 dir=ab\n"),
            "topology file line 5: fault at 120.5 s is past the run end "
            "(warmup + duration = 120 s)");
  EXPECT_EQ(error_of("fault down S1 S2 500 1\nfault loss S1 S2 0.1\n"),
            "no error");
}

// A node no link reaches fails once the whole file is read (its link may
// come later), naming the line that declares the first such node in
// declaration order.
TEST(TopologyFile, UnreachableNodeNamesItsLine) {
  const auto error_of = [](const std::string& text) {
    std::istringstream in(text);
    try {
      parse_topology(in);
      return std::string("no error");
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
  };
  const std::string dumbbell =  // examples/topos/dumbbell.topo
      "name dumbbell\nhost H1\nhost H2\nswitch S1\nswitch S2\n"
      "link H1 S1 10000000 0.0001 inf inf\n"
      "link S1 S2 50000 0.01 20 20 droptail\n"
      "link S2 H2 10000000 0.0001 inf inf\n"
      "monitor S1 S2\nmonitor S2 S1\n"
      "flow H1 H2 start=0.7\nflow H2 H1 start=1.3\n"
      "warmup 100\nduration 400\nepoch_gap 2\n";
  EXPECT_EQ(error_of(dumbbell), "no error");
  EXPECT_EQ(error_of(dumbbell + "host X\n"),
            "topology file line 16: node 'X' is unreachable from 'H1'");
  EXPECT_EQ(error_of("switch S1\nswitch S2\nhost A\nhost B\n"
                     "link B S2 50000 0.01 20 20\n"),
            "topology file line 2: node 'S2' is unreachable from 'S1'");
}

// A fault stanza takes its dir= token anywhere, as a fault file does: the
// endpoint check skips the token, and an unknown endpoint still names its
// line.
TEST(TopologyFile, FaultDirectionMayStandAnywhere) {
  const auto parse = [](const std::string& fault) {
    std::istringstream in(
        "switch S1\nswitch S2\nlink S1 S2 50000 0.01 20 20\n" + fault);
    return parse_topology(in);
  };
  const TopoSpec first = parse("fault delay dir=ab S1 S2 20 0.03\n");
  const TopoSpec last = parse("fault delay S1 S2 20 0.03 dir=ab\n");
  for (const TopoSpec* spec : {&first, &last}) {
    ASSERT_EQ(spec->faults.delay_changes().size(), 1u);
    const DelayChange& c = spec->faults.delay_changes()[0];
    EXPECT_EQ(c.link.a, "S1");
    EXPECT_EQ(c.link.b, "S2");
    EXPECT_EQ(c.link.dir, FaultDir::kAB);
    EXPECT_EQ(c.at, sim::Time::seconds(20.0));
    EXPECT_EQ(c.delay, sim::Time::seconds(0.03));
  }
  try {
    parse("fault delay dir=ab S1 SX 20 0.03\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "topology file line 4: fault endpoints must be declared "
                 "nodes");
  }
}

// Every field that becomes a sim::Time goes through one checked conversion:
// NaN, +-inf and |s| >= 9.2e9 would overflow the nanosecond count.
TEST(TopologyFile, TimeFieldsMustBeRepresentable) {
  const auto error_of = [](const std::string& line) {
    std::istringstream in("host H1\nhost H2\nlink H1 H2 50000 0.01 20 20\n" +
                          line + "\n");
    try {
      parse_topology(in);
      return std::string("no error");
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
  };
  const std::string tail = " must be finite seconds with |s| < 9.2e9, got '";
  const std::string run = " must be finite seconds with 0 <= s < 9.2e9, got '";
  EXPECT_EQ(error_of("warmup nan"),
            "topology file line 4: warmup" + run + "nan'");
  EXPECT_EQ(error_of("duration 9.2e9"),
            "topology file line 4: duration" + run + "9.2e9'");
  EXPECT_EQ(error_of("flow H1 H2 start=inf"),
            "topology file line 4: start" + tail + "inf'");
  EXPECT_EQ(error_of("flow H1 H2 spread=-inf"),
            "topology file line 4: spread" + tail + "-inf'");
  EXPECT_EQ(error_of("flow H1 H2 stop=1e300"),
            "topology file line 4: stop" + tail + "1e300'");
  EXPECT_EQ(error_of("flow H1 H2 rate=1 session=nan"),
            "topology file line 4: session" + tail + "nan'");
  EXPECT_EQ(error_of("flow H1 H2 pacing=-9.3e9"),
            "topology file line 4: pacing" + tail + "-9.3e9'");
  EXPECT_EQ(error_of("link H2 H1 50000 inf 20 20"),
            "topology file line 4: link delay must be finite seconds with "
            "0 <= s < 9.2e9, got 'inf'");
  EXPECT_EQ(error_of("flow H1 H2 start=9.1e9 stop=-9.1e9"), "no error");
}

// Unsigned fields are range-checked against their type, so a negative
// value cannot wrap (count=-1 used to ask for 2^64 flows), and wq_shift is
// limited to the 64-bit shift it feeds.
TEST(TopologyFile, UnsignedFieldsMustFitTheirType) {
  const auto error_of = [](const std::string& line) {
    std::istringstream in("host H1\nhost H2\n" + line + "\n");
    try {
      parse_topology(in);
      return std::string("no error");
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
  };
  const std::string red = "link H1 H2 50000 0.01 20 20 red ";
  EXPECT_EQ(error_of(red + "wq_shift=64"),
            "topology file line 3: wq_shift must be in 0..63, got '64'");
  const std::string size =
      " must be a whole number from 0 to 18446744073709551615, got '";
  const std::string u32 = " must be a whole number from 0 to 4294967295, got '";
  EXPECT_EQ(error_of(red + "wq_shift=-1"),
            "topology file line 3: wq_shift" + size + "-1'");
  EXPECT_EQ(error_of(red + "min_th=-1"),
            "topology file line 3: min_th" + size + "-1'");
  EXPECT_EQ(error_of(red + "max_th=-5"),
            "topology file line 3: max_th" + size + "-5'");
  EXPECT_EQ(error_of("link H1 H2 50000 0.01 20 20 drr quantum=-1"),
            "topology file line 3: quantum" + size + "-1'");
  EXPECT_EQ(error_of("flow H1 H2 count=-1"),
            "topology file line 3: count" + size + "-1'");
  EXPECT_EQ(error_of("flow H1 H2 window=4294967296"),
            "topology file line 3: window" + u32 + "4294967296'");
  EXPECT_EQ(error_of("flow H1 H2 maxwnd=-2"),
            "topology file line 3: maxwnd" + u32 + "-2'");
  EXPECT_EQ(error_of("flow H1 H2 data=5e9"),
            "topology file line 3: data" + u32 + "5e9'");
  EXPECT_EQ(error_of("flow H1 H2 ack=-40"),
            "topology file line 3: ack" + u32 + "-40'");
  EXPECT_EQ(error_of(red + "wq_shift=63 min_th=0"), "no error");
  EXPECT_EQ(error_of("link H1 H2 50000 0.01 20 20\nflow H1 H2 "
                     "window=4294967295"),
            "no error");
}

// A rate above 4e12 b/s with no delay truncates the route cost of a 500 B
// reference packet to 0 ns; compile names the port instead of routing.
TEST(TopologyFile, CompileRejectsZeroRouteCost) {
  std::istringstream in(
      "switch S1\nswitch S2\nhost H1\nhost H2\n"
      "link H1 S1 10000000 0.0001 inf inf\n"
      "link S1 S2 5e12 0 20 20\n"
      "link H2 S2 10000000 0.0001 inf inf\n");
  const TopoSpec spec = parse_topology(in);
  Experiment exp;
  try {
    spec.topo.compile(exp);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "port S1->S2: route cost 0 ns is below 1 ns");
  }
}

// ------------------------------------------------------------ equivalence
//
// The dumbbell and chain scenarios are TopoSpecs run by make_topo_scenario;
// the networks they compile and the flows they add must match the historic
// direct net::Network construction bit for bit. These tests rebuild the
// legacy networks by hand (same node, link, and monitor order;
// Network::compute_routes) and compare whole runs.

void expect_same_run(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(a.delivered, b.delivered);
  ASSERT_EQ(a.drops.size(), b.drops.size());
  for (std::size_t i = 0; i < a.drops.size(); ++i) {
    EXPECT_EQ(a.drops[i].time, b.drops[i].time);
    EXPECT_EQ(a.drops[i].conn, b.drops[i].conn);
    EXPECT_EQ(a.drops[i].seq, b.drops[i].seq);
    EXPECT_EQ(a.drops[i].port, b.drops[i].port);
  }
  ASSERT_EQ(a.ports.size(), b.ports.size());
  for (std::size_t i = 0; i < a.ports.size(); ++i) {
    EXPECT_EQ(a.ports[i].name, b.ports[i].name);
    EXPECT_EQ(a.ports[i].utilization, b.ports[i].utilization);  // exact
    EXPECT_EQ(a.ports[i].departures.size(), b.ports[i].departures.size());
  }
  EXPECT_EQ(a.audit.created, b.audit.created);
  EXPECT_EQ(a.audit.delivered, b.audit.delivered);
  EXPECT_EQ(a.audit.dropped, b.audit.dropped);
}

std::vector<ConnSpec> twoway_conns() {
  std::vector<ConnSpec> conns = {dumbbell_flow(true), dumbbell_flow(false)};
  conns[0].start_time = sim::Time::seconds(0.7);
  conns[1].start_time = sim::Time::seconds(1.3);
  return conns;
}

// Runs a spec's graph and traffic over [window, window + dur].
ExperimentResult run_spec(const TopoSpec& spec, sim::Time window,
                          sim::Time dur) {
  Scenario sc = make_topo_scenario(spec);
  return sc.exp->run(window, dur);
}

TEST(TopologyEquivalence, DumbbellMatchesLegacyConstruction) {
  const DumbbellParams p;  // paper defaults

  // Legacy: direct net::Network calls.
  Experiment legacy;
  {
    auto& net = legacy.network();
    const auto h1 = net.add_host("H1");
    const auto h2 = net.add_host("H2");
    const auto s1 = net.add_switch("S1");
    const auto s2 = net.add_switch("S2");
    net.connect(h1, s1, p.access_bps, p.access_delay, p.access_buffer,
                p.access_buffer);
    net.connect(s1, s2, p.bottleneck_bps, p.tau, p.buffer_fwd, p.buffer_rev,
                p.bottleneck_qdisc);
    net.connect(s2, h2, p.access_bps, p.access_delay, p.access_buffer,
                p.access_buffer);
    net.compute_routes();
    legacy.monitor(s1, s2);
    legacy.monitor(s2, s1);
    std::size_t i = 0;
    for (const ConnSpec& c : twoway_conns()) {
      const bool forward = c.src == "H1";
      tcp::ConnectionConfig cfg = c.to_config();
      cfg.id = static_cast<net::ConnId>(i++);
      cfg.src_host = forward ? h1 : h2;
      cfg.dst_host = forward ? h2 : h1;
      legacy.add_connection(cfg);
    }
  }

  TopoSpec spec;
  spec.topo = dumbbell_topology(p);
  for (ConnSpec c : twoway_conns()) spec.traffic.add(std::move(c));

  const auto window = sim::Time::seconds(50.0);
  const auto dur = sim::Time::seconds(120.0);
  expect_same_run(legacy.run(window, dur), run_spec(spec, window, dur));
}

TEST(TopologyEquivalence, MultihostDumbbellMatchesLegacyConstruction) {
  DumbbellParams p;
  p.tau = sim::Time::seconds(0.01);
  const std::vector<sim::Time> delays = {sim::Time::microseconds(100),
                                         sim::Time::seconds(0.02),
                                         sim::Time::seconds(0.04)};

  Experiment legacy;
  {
    auto& net = legacy.network();
    const auto s1 = net.add_switch("S1");
    const auto s2 = net.add_switch("S2");
    net.connect(s1, s2, p.bottleneck_bps, p.tau, p.buffer_fwd, p.buffer_rev,
                p.bottleneck_qdisc);
    std::vector<net::NodeId> sources, sinks;
    for (std::size_t i = 0; i < delays.size(); ++i) {
      const std::string n = std::to_string(i + 1);
      const auto src = net.add_host("A" + n);
      const auto dst = net.add_host("B" + n);
      net.connect(src, s1, p.access_bps, delays[i], p.access_buffer,
                  p.access_buffer);
      net.connect(s2, dst, p.access_bps, delays[i], p.access_buffer,
                  p.access_buffer);
      sources.push_back(src);
      sinks.push_back(dst);
    }
    net.compute_routes();
    legacy.monitor(s1, s2);
    legacy.monitor(s2, s1);
    for (std::size_t i = 0; i < delays.size(); ++i) {
      tcp::ConnectionConfig cfg;
      cfg.id = static_cast<net::ConnId>(i);
      cfg.src_host = sources[i];
      cfg.dst_host = sinks[i];
      cfg.start_time = sim::Time::seconds(0.5 * static_cast<double>(i));
      legacy.add_connection(cfg);
    }
  }

  TopoSpec spec;
  spec.topo = multihost_dumbbell_topology(p, delays);
  for (std::size_t i = 0; i < delays.size(); ++i) {
    ConnSpec c;
    const std::string n = std::to_string(i + 1);
    c.src = "A" + n;
    c.dst = "B" + n;
    c.start_time = sim::Time::seconds(0.5 * static_cast<double>(i));
    spec.traffic.add(std::move(c));
  }

  const auto window = sim::Time::seconds(50.0);
  const auto dur = sim::Time::seconds(100.0);
  expect_same_run(legacy.run(window, dur), run_spec(spec, window, dur));
}

TEST(TopologyEquivalence, ChainMatchesLegacyConstruction) {
  const ChainParams p;  // 4 switches
  const std::size_t conns = 20;
  const std::uint64_t seed = 7;

  Experiment legacy;
  {
    auto& net = legacy.network();
    std::vector<net::NodeId> switches, hosts;
    for (std::size_t i = 0; i < p.switches; ++i) {
      switches.push_back(net.add_switch("S" + std::to_string(i + 1)));
      hosts.push_back(net.add_host("H" + std::to_string(i + 1)));
    }
    for (std::size_t i = 0; i < p.switches; ++i) {
      net.connect(hosts[i], switches[i], p.access_bps, p.access_delay,
                  p.access_buffer, p.access_buffer);
      if (i + 1 < p.switches) {
        net.connect(switches[i], switches[i + 1], p.trunk_bps, p.trunk_delay,
                    p.trunk_buffer, p.trunk_buffer);
      }
    }
    net.compute_routes();
    for (std::size_t i = 0; i + 1 < p.switches; ++i) {
      legacy.monitor(switches[i], switches[i + 1]);
      legacy.monitor(switches[i + 1], switches[i]);
    }
    // The historic connection generator, drawing from one stream.
    util::Rng rng(seed);
    const std::size_t n = hosts.size();
    for (std::size_t i = 0; i < conns; ++i) {
      const std::size_t hops = 1 + i % (n - 1);
      const std::size_t src = rng.next_below(n - hops);
      const std::size_t dst = src + hops;
      const bool forward = rng.next_double() < 0.5;
      tcp::ConnectionConfig cfg;
      cfg.id = static_cast<net::ConnId>(i);
      cfg.src_host = forward ? hosts[src] : hosts[dst];
      cfg.dst_host = forward ? hosts[dst] : hosts[src];
      cfg.start_time = sim::Time::seconds(rng.uniform(0.0, 1.0));
      legacy.add_connection(cfg);
    }
  }

  TopoSpec spec;
  spec.topo = chain_topology(p);
  spec.traffic = chain_traffic(p, conns, seed);

  const auto window = sim::Time::seconds(40.0);
  const auto dur = sim::Time::seconds(80.0);
  expect_same_run(legacy.run(window, dur), run_spec(spec, window, dur));
}

}  // namespace
}  // namespace tcpdyn::core
