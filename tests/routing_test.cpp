// Routing subsystem: table-driven plugins behind the string-keyed registry,
// route-table properties (minimality, local ejection, acyclic escape
// channel dependencies), config validation, and the adaptive_min arm's
// determinism contracts (threads, process isolation, checkpoint/restore)
// plus its reason to exist: surviving hotspot loads past DOR.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "exec/coordinator.hpp"
#include "routing/adaptive_min.hpp"
#include "routing/dor.hpp"
#include "routing/fault_aware.hpp"
#include "routing/registry.hpp"
#include "sim/sweep.hpp"
#include "topology/topology.hpp"

namespace vixnoc {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

struct TopoCase {
  const char* label;
  std::function<std::unique_ptr<Topology>()> make;
};

// All topology kinds at several sizes, including odd torus rings (the
// destination-parity tie-break) and both mesh dimension orders.
std::vector<TopoCase> AllTopologies() {
  return {
      {"mesh8x8", [] { return MakeMesh(8, 8); }},
      {"mesh4x4", [] { return MakeMesh(4, 4); }},
      {"mesh4x2", [] { return MakeMesh(4, 2); }},
      {"mesh8x8yx",
       [] { return MakeMesh(8, 8, 1, MeshRouteOrder::kYX); }},
      {"cmesh4x4c4", [] { return MakeMesh(4, 4, 4); }},
      {"fbfly4x4c4", [] { return MakeFlattenedButterfly(4, 4, 4); }},
      {"fbfly3x3c2", [] { return MakeFlattenedButterfly(3, 3, 2); }},
      {"torus8x8", [] { return MakeTorus(8, 8); }},
      {"torus4x4", [] { return MakeTorus(4, 4); }},
      {"torus5x3", [] { return MakeTorus(5, 3); }},
  };
}

// ---------------------------------------------------------------------------
// Route-table properties, every plugin-supported topology and size.

TEST(RouteTables, MinimalPathsAndLocalEjectionEverywhere) {
  for (const TopoCase& tc : AllTopologies()) {
    SCOPED_TRACE(tc.label);
    auto topo = tc.make();
    const DorRouting routing(*topo);
    for (NodeId src = 0; src < topo->NumNodes(); ++src) {
      for (NodeId dst = 0; dst < topo->NumNodes(); ++dst) {
        RouterId at = topo->RouterOfNode(src);
        int hops = 0;
        while (true) {
          const PortId out = routing.Route(at, dst);
          ASSERT_GE(out, 0);
          ASSERT_LT(out, topo->Radix());
          const auto links = topo->LinksFor(at);
          ASSERT_TRUE(links[out].IsConnected());
          if (links[out].IsEjection()) {
            // Local delivery must use the destination's own ejection port.
            ASSERT_EQ(links[out].eject_node, dst);
            ASSERT_EQ(out, topo->EjectPortOfNode(dst));
            break;
          }
          at = links[out].neighbor;
          ASSERT_LE(++hops, 64) << "routing loop " << src << "->" << dst;
        }
        ASSERT_EQ(hops, topo->RouterHops(src, dst))
            << "non-minimal " << src << "->" << dst;
      }
    }
  }
}

// The escape network's channel-dependency graph — channels keyed by
// (router, out_port, AllowedVcRange class) under the dateline state a
// packet actually carries there — must be acyclic on every topology. This
// is the deadlock-freedom order the adaptive arm's escape VCs inherit.
TEST(RouteTables, EscapeChannelDependenciesAreAcyclic) {
  for (const TopoCase& tc : AllTopologies()) {
    SCOPED_TRACE(tc.label);
    auto topo = tc.make();
    const DorRouting routing(*topo);
    const int vpc = 2;  // minimum that exercises the dateline halves
    const int radix = topo->Radix();

    std::map<int, std::vector<int>> edges;
    for (NodeId src = 0; src < topo->NumNodes(); ++src) {
      for (NodeId dst = 0; dst < topo->NumNodes(); ++dst) {
        RouterId at = topo->RouterOfNode(src);
        std::uint8_t state = 0;
        int prev = -1;
        while (true) {
          const PortId out = routing.Route(at, dst);
          const auto links = topo->LinksFor(at);
          if (links[out].IsEjection()) break;  // ejection ends dependency
          const std::uint8_t next = routing.NextDatelineState(at, out, state);
          const VcRange range = routing.AllowedVcRange(out, next, vpc);
          ASSERT_GE(range.lo, 0);
          ASSERT_LT(range.lo, range.hi);
          ASSERT_LE(range.hi, vpc);
          const int chan = (at * radix + out) * vpc + range.lo;
          if (prev >= 0) edges[prev].push_back(chan);
          prev = chan;
          state = next;
          at = links[out].neighbor;
        }
      }
    }

    // Iterative three-color DFS for a cycle.
    std::map<int, int> color;  // 0 unseen / 1 on stack / 2 done
    for (const auto& [start, _] : edges) {
      if (color[start] != 0) continue;
      std::vector<std::pair<int, std::size_t>> stack{{start, 0}};
      color[start] = 1;
      while (!stack.empty()) {
        auto& [node, i] = stack.back();
        const auto it = edges.find(node);
        if (it == edges.end() || i >= it->second.size()) {
          color[node] = 2;
          stack.pop_back();
          continue;
        }
        const int next = it->second[i++];
        ASSERT_NE(color[next], 1)
            << "channel-dependency cycle through channel " << next;
        if (color[next] == 0) {
          color[next] = 1;
          stack.emplace_back(next, 0);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Registry and validation.

TEST(RoutingRegistry, BuildsEveryRegisteredPlugin) {
  auto topo = MakeTopology64(TopologyKind::kMesh);
  for (const std::string& name : RegisteredRoutingNames()) {
    SCOPED_TRACE(name);
    auto algo = MakeRoutingAlgorithm(name, *topo);
    ASSERT_NE(algo, nullptr);
    EXPECT_EQ(algo->Name(), name);
    EXPECT_TRUE(IsRegisteredRouting(name));
  }
  EXPECT_FALSE(IsRegisteredRouting("valiant"));
}

TEST(RoutingRegistry, UnknownNameThrowsListingPlugins) {
  auto topo = MakeTopology64(TopologyKind::kMesh);
  try {
    MakeRoutingAlgorithm("valiant", *topo);
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("valiant"), std::string::npos) << msg;
    for (const std::string& name : RegisteredRoutingNames()) {
      EXPECT_NE(msg.find(name), std::string::npos) << msg;
    }
  }
}

TEST(RoutingRegistry, DorAndAdaptiveRejectDeadLinks) {
  auto topo = MakeTopology64(TopologyKind::kMesh);
  RoutingBuildContext ctx;
  ctx.dead_links = {{0, 0}};
  EXPECT_THROW(MakeRoutingAlgorithm("dor", *topo, ctx), SimError);
  EXPECT_THROW(MakeRoutingAlgorithm("adaptive_min", *topo, ctx), SimError);
  EXPECT_NO_THROW(MakeRoutingAlgorithm("fault_aware", *topo, ctx));
}

TEST(RoutingValidation, RejectsUnknownNameListingPlugins) {
  NetworkSimConfig c;
  c.routing = "valiant";
  try {
    ValidateNetworkSimConfig(c);
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    const std::string msg = e.what();
    for (const std::string& name : RegisteredRoutingNames()) {
      EXPECT_NE(msg.find(name), std::string::npos) << msg;
    }
  }
}

TEST(RoutingValidation, AdaptiveMinNeedsEscapeVcBudget) {
  NetworkSimConfig c;
  c.routing = "adaptive_min";
  c.num_vcs = 1;  // no room for escape + adaptive
  EXPECT_THROW(ValidateNetworkSimConfig(c), SimError);

  NetworkSimConfig torus;
  torus.routing = "adaptive_min";
  torus.topology = TopologyKind::kTorus;
  torus.num_vcs = 2;  // dateline pair alone consumes both
  EXPECT_THROW(ValidateNetworkSimConfig(torus), SimError);
  torus.num_vcs = 3;
  EXPECT_NO_THROW(ValidateNetworkSimConfig(torus));
}

TEST(RoutingValidation, AdaptiveMinRejectsPermanentFaults) {
  NetworkSimConfig c;
  c.routing = "adaptive_min";
  c.faults.forced_link_down = {{0, 0}};
  EXPECT_THROW(ValidateNetworkSimConfig(c), SimError);
  c.routing = "fault_aware";
  EXPECT_NO_THROW(ValidateNetworkSimConfig(c));
}

// ---------------------------------------------------------------------------
// Fingerprints: stable across instances, distinct across algorithms and
// topologies (they guard checkpoint restores).

TEST(RoutingFingerprint, StableAndDiscriminating) {
  auto mesh = MakeTopology64(TopologyKind::kMesh);
  auto torus = MakeTopology64(TopologyKind::kTorus);
  EXPECT_EQ(DorRouting(*mesh).Fingerprint(), DorRouting(*mesh).Fingerprint());
  EXPECT_NE(DorRouting(*mesh).Fingerprint(),
            DorRouting(*torus).Fingerprint());
  EXPECT_NE(DorRouting(*mesh).Fingerprint(),
            AdaptiveMinRouting(*mesh).Fingerprint());
  EXPECT_NE(DorRouting(*mesh).Fingerprint(),
            FaultAwareRouting(*mesh, {}).Fingerprint());
  // YX tables differ from XY tables, so the fingerprints must too.
  auto yx = MakeMesh(8, 8, 1, MeshRouteOrder::kYX);
  EXPECT_NE(DorRouting(*mesh).Fingerprint(), DorRouting(*yx).Fingerprint());
}

// ---------------------------------------------------------------------------
// adaptive_min candidate sets.

TEST(AdaptiveMin, CandidatesAreMinimalWithEscapeLast) {
  for (const TopoCase& tc : AllTopologies()) {
    SCOPED_TRACE(tc.label);
    auto topo = tc.make();
    const AdaptiveMinRouting adaptive(*topo);
    const DorRouting dor(*topo);
    const int vpc = adaptive.MinVcsPerClass();
    for (RouterId r = 0; r < topo->NumRouters(); ++r) {
      for (NodeId dst = 0; dst < topo->NumNodes(); dst += 3) {
        RouteCandidate cands[kMaxRouteCandidates];
        const int n = adaptive.Candidates(r, dst, 0, vpc, cands);
        ASSERT_GE(n, 1);
        ASSERT_LE(n, kMaxRouteCandidates);
        // The escape candidate comes last and follows plain DOR.
        const RouteCandidate& esc = cands[n - 1];
        EXPECT_TRUE(esc.escape);
        EXPECT_EQ(esc.out_port, dor.Route(r, dst));
        const auto links = topo->LinksFor(r);
        // RouterHops takes node ids; the per-candidate minimality check
        // only applies where router id == node id (concentration 1).
        const bool flat = topo->NumNodes() == topo->NumRouters();
        for (int i = 0; i < n; ++i) {
          const RouteCandidate& c = cands[i];
          ASSERT_TRUE(links[c.out_port].IsConnected());
          ASSERT_GE(c.vc_range.lo, 0);
          ASSERT_LT(c.vc_range.lo, c.vc_range.hi);
          ASSERT_LE(c.vc_range.hi, vpc);
          if (i < n - 1) {
            EXPECT_FALSE(c.escape);
          }
          if (links[c.out_port].IsEjection()) {
            EXPECT_EQ(links[c.out_port].eject_node, dst);
            continue;
          }
          // Every candidate is minimal: one hop closer to the destination.
          if (flat) {
            const RouterId next = links[c.out_port].neighbor;
            EXPECT_EQ(topo->RouterHops(static_cast<NodeId>(next), dst) + 1,
                      topo->RouterHops(static_cast<NodeId>(r), dst))
                << "non-minimal candidate " << i << " at router " << r
                << " to " << dst;
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// adaptive_min determinism contracts. One shared point set: a hotspot and
// a transpose arm per topology kind that supports the VC budget.

NetworkSimConfig AdaptivePoint(TopologyKind kind, PatternKind pattern,
                               double rate) {
  NetworkSimConfig c;
  c.topology = kind;
  c.routing = "adaptive_min";
  c.pattern = pattern;
  c.injection_rate = rate;
  c.num_vcs = kind == TopologyKind::kTorus ? 6 : 4;
  c.buffer_depth = 5;
  c.packet_size = 4;
  c.warmup = 300;
  c.measure = 1'200;
  c.drain = 1'000;
  c.watchdog_cycles = 800;
  c.seed = 7;
  return c;
}

std::vector<NetworkSimConfig> AdaptivePoints() {
  std::vector<NetworkSimConfig> points;
  for (TopologyKind kind :
       {TopologyKind::kMesh, TopologyKind::kCMesh, TopologyKind::kFBfly,
        TopologyKind::kTorus}) {
    points.push_back(AdaptivePoint(kind, PatternKind::kHotspot, 0.05));
    points.push_back(AdaptivePoint(kind, PatternKind::kTranspose, 0.06));
  }
  return points;
}

void ExpectBitwiseEqual(const NetworkSimResult& a, const NetworkSimResult& b) {
  EXPECT_EQ(a.accepted_ppc, b.accepted_ppc);
  EXPECT_EQ(a.accepted_fpc, b.accepted_fpc);
  EXPECT_EQ(a.avg_latency, b.avg_latency);
  EXPECT_EQ(a.avg_net_latency, b.avg_net_latency);
  EXPECT_EQ(a.p99_latency, b.p99_latency);
  EXPECT_EQ(a.packets_measured, b.packets_measured);
  EXPECT_EQ(a.activity.xbar_traversals, b.activity.xbar_traversals);
  EXPECT_EQ(a.activity.buffer_writes, b.activity.buffer_writes);
  EXPECT_EQ(a.outcome.status, b.outcome.status);
}

TEST(AdaptiveMinDeterminism, IdenticalAtAnyThreadCount) {
  const std::vector<NetworkSimConfig> points = AdaptivePoints();
  std::vector<NetworkSimResult> serial;
  for (const NetworkSimConfig& c : points) {
    serial.push_back(RunNetworkSim(c));
    ASSERT_EQ(serial.back().outcome.status, SimStatus::kOk)
        << serial.back().outcome.message;
  }
  for (int threads : {2, 8}) {
    SweepRunner runner(threads);
    const std::vector<NetworkSimResult> parallel = runner.Run(points);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      SCOPED_TRACE(testing::Message()
                   << "threads=" << threads << " point=" << i);
      ExpectBitwiseEqual(serial[i], parallel[i]);
    }
  }
}

TEST(AdaptiveMinDeterminism, ProcessIsolationMatchesInProcess) {
  const std::vector<NetworkSimConfig> points = AdaptivePoints();
  std::vector<NetworkSimResult> serial;
  for (const NetworkSimConfig& c : points) serial.push_back(RunNetworkSim(c));

  ExecPolicy policy;
  policy.num_workers = 2;
  policy.worker_path = VIXNOC_SWEEP_WORKER_PATH;
  SweepCoordinator coordinator(policy);
  SweepExecResult exec = coordinator.Run(points);
  ASSERT_EQ(exec.results.size(), serial.size());
  EXPECT_EQ(exec.crashes, 0u);
  EXPECT_EQ(exec.bad_frames, 0u);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "point=" << i);
    ExpectBitwiseEqual(serial[i], exec.results[i]);
  }
}

TEST(AdaptiveMinDeterminism, CheckpointRestoreMidRunIsEquivalent) {
  const std::string path = TempPath("adaptive_min_midrun.ckpt");
  NetworkSimConfig base =
      AdaptivePoint(TopologyKind::kMesh, PatternKind::kHotspot, 0.05);
  const NetworkSimResult uninterrupted = RunNetworkSim(base);
  ASSERT_EQ(uninterrupted.outcome.status, SimStatus::kOk);

  // Same run, checkpointing every 400 cycles: checkpointing itself must
  // not perturb a single flit.
  NetworkSimConfig writing = base;
  writing.checkpoint_path = path;
  writing.checkpoint_every = 400;
  const NetworkSimResult checkpointed = RunNetworkSim(writing);
  ExpectBitwiseEqual(uninterrupted, checkpointed);
  ASSERT_TRUE(std::filesystem::exists(path));

  // Resume from the last mid-run checkpoint; the finished run must be
  // bitwise identical to one that never stopped.
  NetworkSimConfig resumed = base;
  resumed.restore_path = path;
  const NetworkSimResult restored = RunNetworkSim(resumed);
  ExpectBitwiseEqual(uninterrupted, restored);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// The adaptive arm's reason to exist: where deterministic DOR concentrates
// load, credit-driven spreading over both minimal directions delivers more
// — with the deadlock watchdog enabled and quiet throughout.

TEST(AdaptiveMinTranspose, BeatsDorPastItsSaturationPointWatchdogQuiet) {
  // Transpose is DOR's adversary: XY folds every (i,j)->(j,i) flow onto
  // the diagonal, while minimal-adaptive balances across the staircase.
  NetworkSimConfig adaptive =
      AdaptivePoint(TopologyKind::kMesh, PatternKind::kTranspose, 0.08);
  adaptive.warmup = 500;
  adaptive.measure = 2'500;
  adaptive.drain = 1'500;
  NetworkSimConfig dor = adaptive;
  dor.routing = "dor";

  const NetworkSimResult rd = RunNetworkSim(dor);
  const NetworkSimResult ra = RunNetworkSim(adaptive);
  // Watchdog quiet on both (the escape VCs preserve deadlock freedom).
  EXPECT_EQ(rd.outcome.status, SimStatus::kOk) << rd.outcome.message;
  EXPECT_EQ(ra.outcome.status, SimStatus::kOk) << ra.outcome.message;
  // DOR is saturated at this load; adaptive delivers strictly more.
  EXPECT_TRUE(rd.saturated);
  EXPECT_GT(ra.accepted_ppc, rd.accepted_ppc);
}

TEST(AdaptiveMinHotspot, CompletesPastDorSaturationWatchdogQuiet) {
  // A single hotspot is ejection-limited: the hot node's one ejection link
  // caps accepted throughput identically for every routing algorithm, so
  // this is a deadlock-freedom stress, not a throughput race. Past DOR's
  // saturation point the adaptive run must still drain cleanly (watchdog
  // quiet) without collapsing below the ejection-bound DOR baseline.
  NetworkSimConfig adaptive =
      AdaptivePoint(TopologyKind::kMesh, PatternKind::kHotspot, 0.14);
  adaptive.warmup = 500;
  adaptive.measure = 2'500;
  adaptive.drain = 1'500;
  NetworkSimConfig dor = adaptive;
  dor.routing = "dor";

  const NetworkSimResult rd = RunNetworkSim(dor);
  const NetworkSimResult ra = RunNetworkSim(adaptive);
  EXPECT_EQ(rd.outcome.status, SimStatus::kOk) << rd.outcome.message;
  EXPECT_EQ(ra.outcome.status, SimStatus::kOk) << ra.outcome.message;
  EXPECT_TRUE(rd.saturated);
  EXPECT_GE(ra.accepted_ppc, 0.9 * rd.accepted_ppc);
}

TEST(AdaptiveMinTorus, DeadlockFreeWithDatelineEscapePair) {
  NetworkSimConfig c =
      AdaptivePoint(TopologyKind::kTorus, PatternKind::kHotspot, 0.08);
  const NetworkSimResult r = RunNetworkSim(c);
  EXPECT_EQ(r.outcome.status, SimStatus::kOk) << r.outcome.message;
  EXPECT_GT(r.packets_measured, 0u);
}

}  // namespace
}  // namespace vixnoc
