// Frozen digests of stored simulation state: the bytes a checkpoint or a
// mid-run network snapshot holds must not move when the code that writes
// them is restructured. Each row digests a whole encoding:
//
//  - a RunNetworkSim checkpoint file (sim, network and telemetry sections)
//    with bursty on-off injection, the telemetry window series and the
//    packet trace on, taken after the measurement window closed, so the
//    frozen telemetry scalars and the timeline are in it too;
//  - a RunTraceSim checkpoint file (trace_sim and network sections);
//  - mid-run network bytes for every allocation scheme under both arbiter
//    kinds, which covers every allocator's and arbiter's stored state.
//
// A failure prints the digest as it now is. Update a row only for an
// intentional change of the snapshot layout, with a format version bump.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/rng.hpp"
#include "network/network.hpp"
#include "sim/network_sim.hpp"
#include "sim/trace_sim.hpp"
#include "snapshot/snapshot.hpp"
#include "topology/topology.hpp"

namespace vixnoc {
namespace {

std::uint64_t Digest(const std::string& bytes) {
  return Fnv1a64(bytes.data(), bytes.size());
}

std::string ScratchPath(const char* name) {
  return ::testing::TempDir() + "state_golden_" + name + ".ckpt";
}

void ExpectDigest(const char* what, std::uint64_t got, std::uint64_t want) {
  EXPECT_EQ(got, want) << what << " digest is now 0x" << std::hex << got;
}

TEST(StateGoldenTest, NetworkSimCheckpointBytesAreFrozen) {
  NetworkSimConfig c;
  c.scheme = AllocScheme::kVix;
  c.injection_rate = 0.08;
  c.bursty = true;
  c.burst_on_rate = 0.4;
  c.mean_burst_cycles = 20.0;
  c.seed = 11;
  c.warmup = 200;
  c.measure = 500;
  c.drain = 300;
  c.sample_interval = 100;
  c.telemetry.enabled = true;
  c.telemetry.window_cycles = 64;
  c.telemetry.max_windows = 8;
  c.telemetry.trace_sample_period = 8;
  // The only checkpoint is taken at cycle 900, after measure_end (700).
  c.checkpoint_every = 900;
  c.checkpoint_path = ScratchPath("sim");
  const NetworkSimResult r = RunNetworkSim(c);
  ASSERT_TRUE(r.outcome.ok()) << r.outcome.message;
  ExpectDigest("RunNetworkSim checkpoint",
               Digest(ReadSnapshotFile(c.checkpoint_path)),
               0xd01348d5c603f3d0ull);
}

TEST(StateGoldenTest, TraceSimCheckpointBytesAreFrozen) {
  const PacketTrace trace = GeneratePatternTrace(
      PatternKind::kUniform, 0.1, 64, /*cycles=*/600, /*packet_size=*/4, 21);
  NetworkSimConfig c;
  c.scheme = AllocScheme::kInputFirst;
  c.warmup = 100;
  c.measure = 400;
  c.drain = 200;
  c.checkpoint_every = 450;
  c.checkpoint_path = ScratchPath("trace");
  RunTraceSim(c, trace);
  ExpectDigest("RunTraceSim checkpoint",
               Digest(ReadSnapshotFile(c.checkpoint_path)),
               0x72b83a5e87de5348ull);
}

struct SchemeArm {
  AllocScheme scheme;
  ArbiterKind arbiter;
  std::uint64_t digest;
};

TEST(StateGoldenTest, MidRunNetworkBytesOfEverySchemeAreFrozen) {
  const SchemeArm arms[] = {
      {AllocScheme::kInputFirst, ArbiterKind::kRoundRobin,
       0xc0bb65360ecf19e2ull},
      {AllocScheme::kInputFirst, ArbiterKind::kMatrix,
       0x85a55eb7e99b970bull},
      {AllocScheme::kWavefront, ArbiterKind::kRoundRobin,
       0x22536d5c559fc8e2ull},
      {AllocScheme::kWavefront, ArbiterKind::kMatrix,
       0x7a4eaa2fafc54177ull},
      {AllocScheme::kAugmentingPath, ArbiterKind::kRoundRobin,
       0xc1e92db1dd57a5abull},
      {AllocScheme::kAugmentingPath, ArbiterKind::kMatrix,
       0x2bb9e05cfd49a752ull},
      {AllocScheme::kVix, ArbiterKind::kRoundRobin,
       0xad701ae3d2e275c1ull},
      {AllocScheme::kVix, ArbiterKind::kMatrix,
       0x3ef73587116b8508ull},
      {AllocScheme::kVixIdeal, ArbiterKind::kRoundRobin,
       0x0fa5bf409016d7faull},
      {AllocScheme::kVixIdeal, ArbiterKind::kMatrix,
       0xbb27fa97e4c261fcull},
      {AllocScheme::kPacketChaining, ArbiterKind::kRoundRobin,
       0x24c449008e595238ull},
      {AllocScheme::kPacketChaining, ArbiterKind::kMatrix,
       0xf4c3a86c44ea1674ull},
      {AllocScheme::kIslip, ArbiterKind::kRoundRobin,
       0x67bbc693f16a3b07ull},
      {AllocScheme::kIslip, ArbiterKind::kMatrix,
       0x993c6940cba05411ull},
      {AllocScheme::kSparoflo, ArbiterKind::kRoundRobin,
       0xea84c9894f9989c0ull},
      {AllocScheme::kSparoflo, ArbiterKind::kMatrix,
       0x6cdf4efb48c10d4aull},
      {AllocScheme::kSerenade, ArbiterKind::kRoundRobin,
       0x6c73c7f207dec206ull},
      {AllocScheme::kSerenade, ArbiterKind::kMatrix,
       0xe4ed389352572672ull},
  };
  for (const SchemeArm& arm : arms) {
    const std::string name = ToString(arm.scheme) + "/" +
                             (arm.arbiter == ArbiterKind::kMatrix ? "matrix"
                                                                  : "rr");
    SCOPED_TRACE(name);
    NetworkParams p;
    p.router.radix = 5;
    p.router.num_vcs = 4;
    p.router.buffer_depth = 4;
    p.router.scheme = arm.scheme;
    p.router.arbiter_kind = arm.arbiter;
    p.router.vc_policy = RouterConfig::DefaultPolicyFor(arm.scheme);
    Network net(std::shared_ptr<Topology>(MakeMesh(4, 4)), p);
    Rng rng(31);
    for (Cycle t = 0; t < 300; ++t) {
      for (NodeId n = 0; n < net.NumNodes(); ++n) {
        if (!rng.NextBool(0.2)) continue;
        net.EnqueuePacket(
            n, static_cast<NodeId>(rng.NextBounded(net.NumNodes())), 4);
      }
      net.Step();
    }
    SnapshotWriter w;
    w.BeginSection("network");
    net.SaveState(w);
    w.EndSection();
    ExpectDigest(name.c_str(), Digest(w.Finish(net.StructureFingerprint())),
                 arm.digest);
  }
}

}  // namespace
}  // namespace vixnoc
