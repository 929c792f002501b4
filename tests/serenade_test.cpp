// SERENADE allocator arm: the determinism contract (bitwise-identical
// results across thread counts, process isolation, and mid-run
// checkpoint/restore — the allocator's RNG stream is a pure function of
// (seed, request history)), allocator-level snapshot round trips, config
// validation for the new pattern knobs, and exec-frame round trips of the
// serenade/incast config fields.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "alloc/serenade.hpp"
#include "alloc/switch_allocator.hpp"
#include "common/error.hpp"
#include "exec/coordinator.hpp"
#include "exec/exec_protocol.hpp"
#include "sim/sweep.hpp"
#include "snapshot/snapshot.hpp"

namespace vixnoc {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

NetworkSimConfig SerenadePoint(TopologyKind kind, PatternKind pattern,
                               double rate) {
  NetworkSimConfig c;
  c.topology = kind;
  c.scheme = AllocScheme::kSerenade;
  c.pattern = pattern;
  c.injection_rate = rate;
  c.num_vcs = 4;
  c.buffer_depth = 5;
  c.packet_size = 4;
  c.warmup = 300;
  c.measure = 1'200;
  c.drain = 1'000;
  c.watchdog_cycles = 800;
  c.seed = 7;
  return c;
}

std::vector<NetworkSimConfig> SerenadePoints() {
  std::vector<NetworkSimConfig> points;
  points.push_back(SerenadePoint(TopologyKind::kMesh, PatternKind::kUniform,
                                 0.06));
  points.push_back(SerenadePoint(TopologyKind::kMesh, PatternKind::kHotspot,
                                 0.05));
  NetworkSimConfig incast =
      SerenadePoint(TopologyKind::kMesh, PatternKind::kIncast, 0.04);
  incast.hotspot_node = 12;
  incast.incast_fanin = 6;
  points.push_back(incast);
  points.push_back(SerenadePoint(TopologyKind::kTorus, PatternKind::kUniform,
                                 0.06));
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

// ---------------------------------------------------------------------------
// Determinism contracts at the network level.

TEST(SerenadeDeterminism, IdenticalAtAnyThreadCount) {
  const std::vector<NetworkSimConfig> points = SerenadePoints();
  std::vector<NetworkSimResult> serial;
  for (const NetworkSimConfig& c : points) {
    serial.push_back(RunNetworkSim(c));
    ASSERT_EQ(serial.back().outcome.status, SimStatus::kOk)
        << serial.back().outcome.message;
    ASSERT_GT(serial.back().packets_measured, 0u);
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

TEST(SerenadeDeterminism, ProcessIsolationMatchesInProcess) {
  const std::vector<NetworkSimConfig> points = SerenadePoints();
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

TEST(SerenadeDeterminism, CheckpointRestoreMidRunIsEquivalent) {
  const std::string path = TempPath("serenade_midrun.ckpt");
  NetworkSimConfig base =
      SerenadePoint(TopologyKind::kMesh, PatternKind::kHotspot, 0.05);
  const NetworkSimResult uninterrupted = RunNetworkSim(base);
  ASSERT_EQ(uninterrupted.outcome.status, SimStatus::kOk);

  // Checkpointing must not perturb a single flit — SaveState draws
  // nothing from the allocator RNG.
  NetworkSimConfig writing = base;
  writing.checkpoint_path = path;
  writing.checkpoint_every = 400;
  const NetworkSimResult checkpointed = RunNetworkSim(writing);
  ExpectBitwiseEqual(uninterrupted, checkpointed);
  ASSERT_TRUE(std::filesystem::exists(path));

  // Resuming from the last mid-run checkpoint restores the RNG stream
  // mid-sequence; the finished run must be bitwise identical.
  NetworkSimConfig resumed = base;
  resumed.restore_path = path;
  const NetworkSimResult restored = RunNetworkSim(resumed);
  ExpectBitwiseEqual(uninterrupted, restored);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Allocator-level state round trips.

SwitchGeometry SerenadeGeom(int radix, int vcs) {
  SwitchGeometry g;
  g.num_inports = radix;
  g.num_outports = radix;
  g.num_vcs = vcs;
  g.num_vins = 1;
  return g;
}

std::vector<SaRequest> RandomRequests(const SwitchGeometry& g, Rng& rng) {
  std::vector<SaRequest> reqs;
  for (PortId p = 0; p < g.num_inports; ++p) {
    for (VcId v = 0; v < g.num_vcs; ++v) {
      if (rng.NextBool(0.3)) {
        reqs.push_back(SaRequest{
            p, v, static_cast<PortId>(rng.NextBounded(g.num_outports))});
      }
    }
  }
  return reqs;
}

TEST(SerenadeAllocatorState, SnapshotRoundTripResumesIdentically) {
  const SwitchGeometry g = SerenadeGeom(8, 4);
  auto live = MakeSerenadeAllocator(g, /*seed=*/77);
  Rng traffic(3);
  std::vector<SaGrant> grants;
  std::vector<std::vector<SaRequest>> history;
  for (int t = 0; t < 120; ++t) {
    history.push_back(RandomRequests(g, traffic));
    live->Allocate(history.back(), &grants);
  }

  SnapshotWriter w;
  w.BeginSection("alloc");
  live->SaveState(w);
  w.EndSection();
  const std::string bytes = w.Finish(0);

  // A differently-seeded instance, once restored, must produce the exact
  // grant sequence of the uninterrupted one: matching, VC pointers, and
  // RNG cursor all ride in the snapshot.
  auto restored = MakeSerenadeAllocator(g, /*seed=*/999);
  SnapshotReader r(bytes);
  r.OpenSection("alloc");
  restored->LoadState(r);
  r.CloseSection();

  std::vector<SaGrant> a, b;
  for (int t = 0; t < 120; ++t) {
    const std::vector<SaRequest> reqs = RandomRequests(g, traffic);
    live->Allocate(reqs, &a);
    restored->Allocate(reqs, &b);
    ASSERT_EQ(a.size(), b.size()) << "cycle " << t;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].in_port, b[i].in_port);
      EXPECT_EQ(a[i].vc, b[i].vc);
      EXPECT_EQ(a[i].out_port, b[i].out_port);
    }
  }
}

TEST(SerenadeAllocatorState, LoadRejectsForeignGeometry) {
  auto small = MakeSerenadeAllocator(SerenadeGeom(4, 2), 1);
  SnapshotWriter w;
  w.BeginSection("alloc");
  small->SaveState(w);
  w.EndSection();
  const std::string bytes = w.Finish(0);

  auto big = MakeSerenadeAllocator(SerenadeGeom(8, 2), 1);
  SnapshotReader r(bytes);
  r.OpenSection("alloc");
  EXPECT_THROW(big->LoadState(r), SimError);
}

TEST(SerenadeAllocatorState, ResetRestoresTheInitialStream) {
  const SwitchGeometry g = SerenadeGeom(6, 3);
  auto a = MakeSerenadeAllocator(g, 42);
  auto b = MakeSerenadeAllocator(g, 42);
  Rng traffic(5);
  std::vector<SaGrant> ga, gb;
  std::vector<std::vector<SaRequest>> reqs;
  for (int t = 0; t < 50; ++t) reqs.push_back(RandomRequests(g, traffic));

  std::vector<std::size_t> first_counts;
  for (const auto& r : reqs) {
    a->Allocate(r, &ga);
    first_counts.push_back(ga.size());
  }
  a->Reset();
  for (std::size_t t = 0; t < reqs.size(); ++t) {
    a->Allocate(reqs[t], &ga);
    b->Allocate(reqs[t], &gb);
    ASSERT_EQ(ga.size(), first_counts[t]) << "cycle " << t;
    ASSERT_EQ(ga.size(), gb.size()) << "cycle " << t;
    for (std::size_t i = 0; i < ga.size(); ++i) {
      EXPECT_EQ(ga[i].in_port, gb[i].in_port);
      EXPECT_EQ(ga[i].vc, gb[i].vc);
      EXPECT_EQ(ga[i].out_port, gb[i].out_port);
    }
  }
}

// ---------------------------------------------------------------------------
// Config validation and exec framing for the new knobs.

TEST(SerenadeConfig, PatternKnobsValidate) {
  NetworkSimConfig c =
      SerenadePoint(TopologyKind::kMesh, PatternKind::kUniform, 0.05);
  EXPECT_NO_THROW(ValidateNetworkSimConfig(c));

  // hotspot_node only makes sense for hotspot/incast.
  c.hotspot_node = 9;
  EXPECT_THROW(ValidateNetworkSimConfig(c), SimError);
  c.pattern = PatternKind::kHotspot;
  EXPECT_NO_THROW(ValidateNetworkSimConfig(c));

  // incast_fanin only makes sense for incast.
  c.incast_fanin = 8;
  EXPECT_THROW(ValidateNetworkSimConfig(c), SimError);
  c.pattern = PatternKind::kIncast;
  EXPECT_NO_THROW(ValidateNetworkSimConfig(c));
}

TEST(SerenadeConfig, PointFrameRoundTripsNewFields) {
  NetworkSimConfig c =
      SerenadePoint(TopologyKind::kMesh, PatternKind::kIncast, 0.05);
  c.hotspot_node = 9;
  c.incast_fanin = 5;
  PointFrame frame;
  frame.index = 3;
  frame.attempt = 1;
  frame.config = c;
  const PointFrame back = DecodePointFrame(EncodePointFrame(frame));
  EXPECT_EQ(back.config.scheme, AllocScheme::kSerenade);
  EXPECT_EQ(back.config.pattern, PatternKind::kIncast);
  EXPECT_EQ(back.config.hotspot_node, 9);
  EXPECT_EQ(back.config.incast_fanin, 5);
  EXPECT_EQ(NetworkSimConfigFingerprint(back.config),
            NetworkSimConfigFingerprint(c));
}

}  // namespace
}  // namespace vixnoc
