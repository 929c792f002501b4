// Fault-injection subsystem: deterministic schedules, fault-aware detour
// routing, the forward-progress watchdog, and structured SimOutcome
// reporting through both serial runs and the SweepRunner pool.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/error.hpp"
#include "fault/fault_model.hpp"
#include "routing/dor.hpp"
#include "routing/fault_aware.hpp"
#include "sim/sweep.hpp"
#include "ring_network.hpp"
#include "topology/topology.hpp"

namespace vixnoc {
namespace {

// ---------------------------------------------------------------------------
// Fault schedules are pure functions of (topology, config, seed).

FaultConfig MixedFaults() {
  FaultConfig f;
  f.link_down_rate = 0.05;
  f.transient_rate = 0.08;
  f.router_stall_rate = 0.05;
  f.corruption_rate = 0.001;
  return f;
}

TEST(FaultModel, ScheduleIsDeterministic) {
  auto topo = MakeMesh(8, 8);
  const FaultConfig config = MixedFaults();
  FaultModel a(*topo, config, 42);
  FaultModel b(*topo, config, 42);
  ASSERT_EQ(a.permanent_down(), b.permanent_down());
  ASSERT_EQ(a.transient_links().size(), b.transient_links().size());
  for (std::size_t i = 0; i < a.transient_links().size(); ++i) {
    EXPECT_EQ(a.transient_links()[i].router, b.transient_links()[i].router);
    EXPECT_EQ(a.transient_links()[i].out_port,
              b.transient_links()[i].out_port);
    EXPECT_EQ(a.transient_links()[i].phase, b.transient_links()[i].phase);
  }
  ASSERT_EQ(a.stalls().size(), b.stalls().size());
  for (std::size_t i = 0; i < a.stalls().size(); ++i) {
    EXPECT_EQ(a.stalls()[i].router, b.stalls()[i].router);
    EXPECT_EQ(a.stalls()[i].phase, b.stalls()[i].phase);
  }
  EXPECT_EQ(a.CorruptsTraversal(3, 1, 777), b.CorruptsTraversal(3, 1, 777));
}

TEST(FaultModel, DifferentSeedsGiveDifferentSchedules) {
  auto topo = MakeMesh(8, 8);
  const FaultConfig config = MixedFaults();
  FaultModel a(*topo, config, 1);
  FaultModel b(*topo, config, 2);
  EXPECT_NE(a.permanent_down(), b.permanent_down());
}

TEST(FaultModel, SamplesTheRequestedFraction) {
  auto topo = MakeMesh(8, 8);  // 2 * (7*8 + 8*7) = 224 directed mesh links
  FaultConfig config;
  config.link_down_rate = 0.10;
  FaultModel m(*topo, config, 9);
  EXPECT_EQ(m.permanent_down().size(), 22u);  // llround(0.10 * 224)
  for (const auto& [router, port] : m.permanent_down()) {
    EXPECT_TRUE(m.LinkPermanentlyDown(router, port));
  }
}

TEST(FaultModel, RejectsInvalidConfig) {
  auto topo = MakeMesh(4, 4);
  FaultConfig bad_rate;
  bad_rate.link_down_rate = 1.5;
  EXPECT_THROW(FaultModel(*topo, bad_rate, 1), SimError);

  FaultConfig bad_window;
  bad_window.transient_rate = 0.1;
  bad_window.transient_duration = bad_window.transient_period;
  EXPECT_THROW(FaultModel(*topo, bad_window, 1), SimError);

  FaultConfig bad_forced;
  bad_forced.forced_link_down = {{0, 99}};
  EXPECT_THROW(FaultModel(*topo, bad_forced, 1), SimError);
}

// ---------------------------------------------------------------------------
// Fault-aware routing: identical to DOR when nothing is broken, minimal
// detours when something is.

TEST(FaultRouting, MatchesDorOnFaultFreeMesh) {
  auto topo = MakeMesh(4, 4);
  const DorRouting dor(*topo);
  FaultAwareRouting detour(*topo, {});
  EXPECT_EQ(detour.NumUnreachablePairs(), 0u);
  for (RouterId r = 0; r < topo->NumRouters(); ++r) {
    for (NodeId dst = 0; dst < topo->NumNodes(); ++dst) {
      EXPECT_EQ(detour.Route(r, dst), dor.Route(r, dst))
          << "router " << r << " dst " << dst;
    }
  }
}

TEST(FaultRouting, DetoursAroundDeadLink) {
  auto topo = MakeMesh(4, 4);
  // Kill router 0's east link (the XY route 0 -> 1). A detour via the
  // other dimension must be found, and every pair stays reachable.
  const PortId east = DorRouting(*topo).Route(0, 3);  // node 3 is due east
  FaultAwareRouting detour(*topo, {{0, east}});
  EXPECT_EQ(detour.NumUnreachablePairs(), 0u);
  EXPECT_NE(detour.Route(0, 1), east);
  EXPECT_TRUE(detour.Reachable(0, 1));
}

// ---------------------------------------------------------------------------
// End-to-end simulation outcomes.

NetworkSimConfig SmallSim() {
  NetworkSimConfig c;
  c.topology_factory = [] { return MakeMesh(4, 4); };
  c.injection_rate = 0.10;
  c.warmup = 300;
  c.measure = 1'500;
  c.drain = 500;
  c.watchdog_cycles = 1'000;
  c.seed = 11;
  return c;
}

TEST(FaultSim, GoldenConfigStaysClean) {
  const NetworkSimResult r = RunNetworkSim(SmallSim());
  EXPECT_EQ(r.outcome.status, SimStatus::kOk);
  EXPECT_TRUE(r.outcome.ok());
  EXPECT_EQ(r.outcome.unreachable_packets, 0u);
  EXPECT_EQ(r.packets_corrupted, 0u);
  EXPECT_GT(r.packets_measured, 0u);
}

// Corruption marks packets but must not perturb a single flit movement:
// the metrics are bitwise identical to the fault-free run.
TEST(FaultSim, CorruptionIsMeteredButNonPerturbing) {
  NetworkSimConfig clean = SmallSim();
  NetworkSimConfig faulty = SmallSim();
  faulty.faults.corruption_rate = 0.01;
  const NetworkSimResult a = RunNetworkSim(clean);
  const NetworkSimResult b = RunNetworkSim(faulty);
  EXPECT_GT(b.packets_corrupted, 0u);
  EXPECT_EQ(a.accepted_ppc, b.accepted_ppc);
  EXPECT_EQ(a.avg_latency, b.avg_latency);
  EXPECT_EQ(a.packets_measured, b.packets_measured);
  EXPECT_EQ(a.activity.xbar_traversals, b.activity.xbar_traversals);
  EXPECT_EQ(b.outcome.status, SimStatus::kOk);

  const NetworkSimResult c = RunNetworkSim(faulty);
  EXPECT_EQ(b.packets_corrupted, c.packets_corrupted);
}

TEST(FaultSim, SeveredSourceReportsUndeliverable) {
  NetworkSimConfig config = SmallSim();
  // Cut every inter-router output of router 0: its node can still receive
  // but can no longer send. Packets sourced there are unreachable and must
  // be reported, not hung.
  auto topo = MakeMesh(4, 4);
  for (PortId p = 0; p < topo->Radix(); ++p) {
    const auto links = topo->LinksFor(0);
    if (links[p].neighbor >= 0) {
      config.faults.forced_link_down.emplace_back(0, p);
    }
  }
  const NetworkSimResult r = RunNetworkSim(config);
  EXPECT_EQ(r.outcome.status, SimStatus::kUndeliverable);
  EXPECT_GT(r.outcome.unreachable_packets, 0u);
  EXPECT_FALSE(r.outcome.message.empty());
  // Undeliverable outcomes carry the same diagnostics as deadlocks: the
  // detection cycle and the end-of-drain per-router occupancy snapshot
  // (regression: these used to be populated only for kDeadlock).
  EXPECT_GT(r.outcome.cycle, 0u);
  EXPECT_EQ(r.outcome.router_occupancy.size(), 16u);
  // Everyone else's traffic still flows.
  EXPECT_GT(r.packets_measured, 0u);
}

TEST(FaultSim, TransientAndStallFaultsDegradeButComplete) {
  NetworkSimConfig config = SmallSim();
  config.watchdog_cycles = 2'000;
  config.faults.transient_rate = 0.10;
  config.faults.transient_period = 500;
  config.faults.transient_duration = 100;
  config.faults.router_stall_rate = 0.10;
  config.faults.stall_period = 500;
  config.faults.stall_duration = 50;
  const NetworkSimResult r = RunNetworkSim(config);
  EXPECT_EQ(r.outcome.status, SimStatus::kOk) << r.outcome.message;
  EXPECT_GT(r.packets_measured, 0u);
}

// ---------------------------------------------------------------------------
// Watchdog: a hand-built deadlock on the ring of ring_network.hpp.

TEST(Watchdog, FiresOnHandBuiltDeadlock) {
  NetworkSimConfig config;
  config.topology_factory = [] { return std::make_unique<RingTopology>(); };
  config.routing_factory =
      [](const Topology& topo) -> std::unique_ptr<RoutingAlgorithm> {
    return std::make_unique<RingRouting>(topo);
  };
  config.num_vcs = 1;
  config.buffer_depth = 2;
  config.packet_size = 6;  // wormholes span multiple routers
  config.injection_rate = 0.30;
  config.warmup = 500;
  config.measure = 2'000;
  config.drain = 500;
  config.watchdog_cycles = 400;
  config.seed = 3;
  const NetworkSimResult r = RunNetworkSim(config);
  ASSERT_EQ(r.outcome.status, SimStatus::kDeadlock) << r.outcome.message;
  EXPECT_GT(r.outcome.cycle, 0);
  EXPECT_NE(r.outcome.message.find("no flit movement"), std::string::npos)
      << r.outcome.message;
  // The occupancy snapshot shows where the wedged flits sit.
  ASSERT_EQ(r.outcome.router_occupancy.size(), 4u);
  std::uint32_t total = 0;
  for (std::uint32_t o : r.outcome.router_occupancy) total += o;
  EXPECT_GT(total, 0u);
}

// ---------------------------------------------------------------------------
// Determinism through the pool: fault schedules and outcomes are functions
// of the config alone, so SweepRunner results match serial runs bit for
// bit at any thread count.

TEST(FaultSweep, OutcomesIdenticalAtAnyThreadCount) {
  std::vector<NetworkSimConfig> points;
  for (int i = 0; i < 6; ++i) {
    NetworkSimConfig c = SmallSim();
    c.seed = 100 + i;
    c.scheme = i % 2 == 0 ? AllocScheme::kInputFirst : AllocScheme::kVix;
    c.faults.link_down_rate = 0.04;
    c.faults.corruption_rate = 0.002;
    c.faults.transient_rate = 0.05;
    c.faults.transient_period = 500;
    c.faults.transient_duration = 100;
    points.push_back(c);
  }

  std::vector<NetworkSimResult> serial;
  for (const NetworkSimConfig& c : points) serial.push_back(RunNetworkSim(c));

  for (int threads : {1, 2, 8}) {
    SweepRunner runner(threads);
    const std::vector<NetworkSimResult> parallel = runner.Run(points);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      SCOPED_TRACE(testing::Message()
                   << "threads=" << threads << " point=" << i);
      EXPECT_EQ(serial[i].accepted_ppc, parallel[i].accepted_ppc);
      EXPECT_EQ(serial[i].avg_latency, parallel[i].avg_latency);
      EXPECT_EQ(serial[i].packets_measured, parallel[i].packets_measured);
      EXPECT_EQ(serial[i].packets_corrupted, parallel[i].packets_corrupted);
      EXPECT_EQ(serial[i].activity.xbar_traversals,
                parallel[i].activity.xbar_traversals);
      EXPECT_EQ(serial[i].outcome.status, parallel[i].outcome.status);
      EXPECT_EQ(serial[i].outcome.message, parallel[i].outcome.message);
      EXPECT_EQ(serial[i].outcome.unreachable_packets,
                parallel[i].outcome.unreachable_packets);
    }
  }
}

// The acceptance scenario from the issue: a sweep holding an invalid
// config and a deadlocking config completes, with those two slots marked
// failed and valid results everywhere else.
TEST(FaultSweep, MixedFailureBatchCompletes) {
  std::vector<NetworkSimConfig> points;
  points.push_back(SmallSim());  // 0: healthy
  NetworkSimConfig invalid = SmallSim();
  invalid.num_vcs = 0;  // ValidateNetworkSimConfig throws
  points.push_back(invalid);  // 1: invalid
  NetworkSimConfig deadlock;
  deadlock.topology_factory = [] { return std::make_unique<RingTopology>(); };
  deadlock.routing_factory =
      [](const Topology& topo) -> std::unique_ptr<RoutingAlgorithm> {
    return std::make_unique<RingRouting>(topo);
  };
  deadlock.num_vcs = 1;
  deadlock.buffer_depth = 2;
  deadlock.packet_size = 6;
  deadlock.injection_rate = 0.30;
  deadlock.warmup = 500;
  deadlock.measure = 2'000;
  deadlock.drain = 500;
  deadlock.watchdog_cycles = 400;
  deadlock.seed = 3;
  points.push_back(deadlock);  // 2: deadlocks
  points.push_back(SmallSim());  // 3: healthy

  SweepRunner runner(4);
  const std::vector<NetworkSimResult> results = runner.Run(points);
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(results[0].outcome.status, SimStatus::kOk);
  EXPECT_EQ(results[1].outcome.status, SimStatus::kInvariantViolation);
  EXPECT_NE(results[1].outcome.message.find("num_vcs"), std::string::npos)
      << results[1].outcome.message;
  EXPECT_EQ(results[2].outcome.status, SimStatus::kDeadlock);
  EXPECT_EQ(results[3].outcome.status, SimStatus::kOk);
  EXPECT_GT(results[0].packets_measured, 0u);
  EXPECT_GT(results[3].packets_measured, 0u);
}

// Measurement-window delta accounting under fault schedules: stall windows
// sized so routers freeze *across* the measure_end boundary (stalls start
// at phase-seeded offsets within each 1500-cycle period and last 600
// cycles; with warmup=1000 and measure=2000, many straddle t=3000). The
// per-node deltas are (end snapshot - start snapshot) of monotonically
// increasing counters, so whatever the fault schedule does, they must be
// non-negative and bounded — a wraparound or inverted-snapshot bug would
// surface as a huge or negative node throughput.
TEST(FaultMeasurement, StallAcrossMeasureEndKeepsNodeDeltasSane) {
  NetworkSimConfig c;
  c.injection_rate = 0.05;
  c.seed = 5;
  c.warmup = 1'000;
  c.measure = 2'000;
  c.drain = 1'000;
  c.faults.router_stall_rate = 0.25;
  c.faults.stall_period = 1'500;
  c.faults.stall_duration = 600;
  c.watchdog_cycles = 4'000;  // must exceed stall_duration
  const NetworkSimResult r = RunNetworkSim(c);

  ASSERT_TRUE(r.outcome.ok()) << r.outcome.message;
  EXPECT_GT(r.packets_measured, 0u);
  // NodeCounters are uint64: a negative delta would wrap to ~1.8e19 and
  // blow straight through these bounds.
  EXPECT_GE(r.min_node_ppc, 0.0);
  EXPECT_LE(r.min_node_ppc, r.max_node_ppc);
  EXPECT_LE(r.max_node_ppc, 1.0);
  // A quarter of the routers are stalled 40% of the time, so accepted
  // throughput is degraded but must stay near the offered load's order of
  // magnitude, not explode.
  EXPECT_GT(r.accepted_ppc, 0.0);
  EXPECT_LE(r.accepted_ppc, 2.0 * c.injection_rate);
  EXPECT_GE(r.max_min_ratio, 1.0);
}

}  // namespace
}  // namespace vixnoc
