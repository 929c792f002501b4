#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "common/error.hpp"
#include "ring_network.hpp"
#include "sim/trace_sim.hpp"
#include "snapshot/snapshot.hpp"
#include "topology/topology.hpp"
#include "traffic/trace.hpp"

namespace vixnoc {
namespace {

TEST(Trace, AddKeepsOrderAndContents) {
  PacketTrace trace;
  trace.Add({0, 1, 2, 4});
  trace.Add({0, 3, 4, 1});
  trace.Add({5, 0, 63, 4});
  EXPECT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace.LastCycle(), 5u);
  EXPECT_EQ(trace.records()[1], (TraceRecord{0, 3, 4, 1}));
}

TEST(Trace, TextRoundTrip) {
  PacketTrace trace;
  trace.Add({0, 1, 2, 4});
  trace.Add({7, 3, 4, 1});
  trace.Add({7, 5, 6, 8});
  const PacketTrace parsed = PacketTrace::FromText(trace.ToText(), 64);
  ASSERT_EQ(parsed.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(parsed.records()[i], trace.records()[i]);
  }
}

TEST(Trace, FromTextSkipsCommentsAndBlanks) {
  const PacketTrace trace = PacketTrace::FromText(
      "# header\n\n3 1 2 4\n# mid comment\n5 0 1 1\n", 8);
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace.records()[0].cycle, 3u);
  EXPECT_EQ(trace.records()[1].src, 0);
}

TEST(Trace, FileRoundTrip) {
  PacketTrace trace;
  for (Cycle t = 0; t < 50; ++t) {
    trace.Add({t, static_cast<NodeId>(t % 8),
               static_cast<NodeId>((t + 3) % 8), 1 + static_cast<int>(t % 4)});
  }
  const std::string path = ::testing::TempDir() + "/trace_roundtrip.txt";
  trace.Save(path);
  const PacketTrace loaded = PacketTrace::Load(path, 8);
  ASSERT_EQ(loaded.size(), trace.size());
  EXPECT_EQ(loaded.records().back(), trace.records().back());
  std::remove(path.c_str());
}

TEST(Trace, ReplayerDeliversPerCycle) {
  PacketTrace trace;
  trace.Add({1, 0, 1, 1});
  trace.Add({1, 2, 3, 1});
  trace.Add({4, 4, 5, 1});
  TraceReplayer replayer(trace);
  EXPECT_TRUE(replayer.TakeDue(0).empty());
  EXPECT_EQ(replayer.TakeDue(1).size(), 2u);
  EXPECT_TRUE(replayer.TakeDue(2).empty());
  EXPECT_TRUE(replayer.TakeDue(3).empty());
  EXPECT_EQ(replayer.TakeDue(4).size(), 1u);
  EXPECT_TRUE(replayer.Exhausted());
  replayer.Reset();
  EXPECT_FALSE(replayer.Exhausted());
}

TEST(TraceGen, MatchesRequestedRateApproximately) {
  const PacketTrace trace = GeneratePatternTrace(
      PatternKind::kUniform, 0.1, 64, 10'000, 4, /*seed=*/3);
  const double rate =
      static_cast<double>(trace.size()) / (64.0 * 10'000.0);
  EXPECT_NEAR(rate, 0.1, 0.005);
  for (const TraceRecord& r : trace.records()) {
    EXPECT_NE(r.src, r.dst);
    EXPECT_EQ(r.size_flits, 4);
  }
}

TEST(TraceSim, DeterministicReplay) {
  const PacketTrace trace = GeneratePatternTrace(
      PatternKind::kUniform, 0.05, 64, 8'000, 4, 9);
  NetworkSimConfig config;
  config.scheme = AllocScheme::kVix;
  config.warmup = 2'000;
  config.measure = 5'000;
  config.drain = 2'000;
  const auto a = RunTraceSim(config, trace);
  const auto b = RunTraceSim(config, trace);
  EXPECT_EQ(a.accepted_ppc, b.accepted_ppc);
  EXPECT_EQ(a.avg_latency, b.avg_latency);
  EXPECT_EQ(a.packets_measured, b.packets_measured);
}

TEST(TraceSim, MatchesBernoulliSimStatistically) {
  // A replayed Bernoulli trace should land near the live Bernoulli sim.
  NetworkSimConfig config;
  config.scheme = AllocScheme::kInputFirst;
  config.injection_rate = 0.05;
  config.warmup = 2'000;
  config.measure = 6'000;
  config.drain = 2'000;
  const auto live = RunNetworkSim(config);
  const PacketTrace trace = GeneratePatternTrace(
      PatternKind::kUniform, 0.05, 64, 10'000, 4, config.seed);
  const auto replay = RunTraceSim(config, trace);
  EXPECT_NEAR(replay.accepted_ppc, live.accepted_ppc, 0.004);
  EXPECT_NEAR(replay.avg_latency, live.avg_latency, live.avg_latency * 0.1);
}

void ExpectTraceBitwiseEqual(const NetworkSimResult& a,
                             const NetworkSimResult& b) {
  EXPECT_EQ(a.accepted_ppc, b.accepted_ppc);
  EXPECT_EQ(a.accepted_fpc, b.accepted_fpc);
  EXPECT_EQ(a.avg_latency, b.avg_latency);
  EXPECT_EQ(a.avg_net_latency, b.avg_net_latency);
  EXPECT_EQ(a.p99_latency, b.p99_latency);
  EXPECT_EQ(a.packets_measured, b.packets_measured);
  EXPECT_EQ(a.activity.xbar_traversals, b.activity.xbar_traversals);
  EXPECT_EQ(a.activity.buffer_writes, b.activity.buffer_writes);
}

TEST(TraceSim, CheckpointRestoreMidRunIsBitwiseEquivalent) {
  const PacketTrace trace = GeneratePatternTrace(
      PatternKind::kUniform, 0.05, 64, 4'000, 4, 13);
  NetworkSimConfig config;
  // SERENADE makes this the strongest restore test available: the
  // allocator RNG cursor must ride through the snapshot too.
  config.scheme = AllocScheme::kSerenade;
  config.warmup = 1'000;
  config.measure = 2'500;
  config.drain = 1'500;
  const auto uninterrupted = RunTraceSim(config, trace);
  ASSERT_GT(uninterrupted.packets_measured, 0u);

  const std::string path = ::testing::TempDir() + "/trace_midrun.ckpt";
  NetworkSimConfig writing = config;
  writing.checkpoint_path = path;
  writing.checkpoint_every = 1'000;
  const auto checkpointed = RunTraceSim(writing, trace);
  ExpectTraceBitwiseEqual(uninterrupted, checkpointed);

  NetworkSimConfig resumed = config;
  resumed.restore_path = path;
  const auto restored = RunTraceSim(resumed, trace);
  ExpectTraceBitwiseEqual(uninterrupted, restored);
  std::remove(path.c_str());
}

TEST(TraceSim, RestoreRejectsADifferentTrace) {
  const PacketTrace trace = GeneratePatternTrace(
      PatternKind::kUniform, 0.05, 64, 4'000, 4, 13);
  NetworkSimConfig config;
  config.warmup = 1'000;
  config.measure = 2'500;
  config.drain = 1'500;
  const std::string path = ::testing::TempDir() + "/trace_reject.ckpt";
  NetworkSimConfig writing = config;
  writing.checkpoint_path = path;
  writing.checkpoint_every = 1'000;
  RunTraceSim(writing, trace);

  // Same config, different records: the trace hash in the fingerprint
  // must refuse the resume instead of silently replaying wrong traffic.
  const PacketTrace other = GeneratePatternTrace(
      PatternKind::kUniform, 0.05, 64, 4'000, 4, 14);
  NetworkSimConfig resumed = config;
  resumed.restore_path = path;
  EXPECT_THROW(RunTraceSim(resumed, other), SimError);
  std::remove(path.c_str());
}

TEST(TraceSim, OutOfRangeReplayPositionThrows) {
  const PacketTrace trace = GeneratePatternTrace(
      PatternKind::kUniform, 0.05, 64, 2'000, 4, 13);
  NetworkSimConfig config;
  config.warmup = 500;
  config.measure = 1'000;
  config.drain = 500;
  const std::string path = ::testing::TempDir() + "/trace_position.ckpt";
  NetworkSimConfig writing = config;
  writing.checkpoint_path = path;
  writing.checkpoint_every = 1'000;
  RunTraceSim(writing, trace);

  // The first section is "trace_sim": its payload starts with the resume
  // cycle, then the replay position. Point the position past the trace
  // and re-seal the section checksum so only the decoder can object.
  std::string bytes = ReadSnapshotFile(path);
  constexpr std::size_t kPayload = 8 + 4 + 8 + 4 + 4 + 9 + 8;
  std::uint64_t len = 0;
  std::memcpy(&len, bytes.data() + kPayload - 8, sizeof len);
  const std::uint64_t position = trace.size() + 1;
  std::memcpy(bytes.data() + kPayload + 8, &position, sizeof position);
  const std::uint64_t sum = Fnv1a64(bytes.data() + kPayload, len);
  std::memcpy(bytes.data() + kPayload + len, &sum, sizeof sum);
  WriteSnapshotFile(path, bytes);

  NetworkSimConfig resumed = config;
  resumed.restore_path = path;
  EXPECT_THROW(RunTraceSim(resumed, trace), SimError);
  std::remove(path.c_str());
}

TEST(TraceSim, CheckpointEveryWithoutPathThrows) {
  PacketTrace trace;
  trace.Add({0, 0, 1, 1});
  NetworkSimConfig config;
  config.checkpoint_every = 100;  // no checkpoint_path
  EXPECT_THROW(RunTraceSim(config, trace), SimError);
}

TEST(TraceSim, SchemesComparedOnIdenticalTraffic) {
  const PacketTrace trace = GeneratePatternTrace(
      PatternKind::kUniform, 0.12, 64, 12'000, 4, 21);
  NetworkSimConfig config;
  config.warmup = 3'000;
  config.measure = 8'000;
  config.drain = 3'000;
  config.scheme = AllocScheme::kInputFirst;
  const auto base = RunTraceSim(config, trace);
  config.scheme = AllocScheme::kVix;
  const auto vix = RunTraceSim(config, trace);
  // Same offered traffic by construction.
  EXPECT_DOUBLE_EQ(base.offered_ppc, vix.offered_ppc);
  EXPECT_GT(vix.accepted_ppc, base.accepted_ppc * 1.05);
}

// The trace path builds its network from the same parameters as
// RunNetworkSim, so a router field such as the pipeline depth changes the
// replay: five stages add a cycle of VA and one of link per hop.
TEST(TraceSim, PipelineStagesChangeTheReplay) {
  const PacketTrace trace = GeneratePatternTrace(
      PatternKind::kUniform, 0.05, 64, 3'000, 4, 17);
  NetworkSimConfig config;
  config.warmup = 500;
  config.measure = 2'000;
  config.drain = 1'000;
  const auto three = RunTraceSim(config, trace);
  config.pipeline_stages = 5;
  const auto five = RunTraceSim(config, trace);
  ASSERT_GT(three.packets_measured, 0u);
  EXPECT_NE(three.avg_latency, five.avg_latency);
}

// Trace runs step through the same driver as RunNetworkSim, so the
// watchdog watches them too: the hand-built ring deadlock wedges a
// replayed trace exactly as it wedges live traffic.
TEST(TraceSim, WatchdogFiresOnHandBuiltDeadlock) {
  NetworkSimConfig config;
  config.topology_factory = [] { return std::make_unique<RingTopology>(); };
  config.routing_factory =
      [](const Topology& topo) -> std::unique_ptr<RoutingAlgorithm> {
    return std::make_unique<RingRouting>(topo);
  };
  config.num_vcs = 1;
  config.buffer_depth = 2;
  config.packet_size = 6;  // wormholes span multiple routers
  config.warmup = 500;
  config.measure = 2'000;
  config.drain = 500;
  config.watchdog_cycles = 400;
  const PacketTrace trace = GeneratePatternTrace(
      PatternKind::kUniform, 0.30, /*num_nodes=*/4, /*cycles=*/3'000,
      config.packet_size, /*seed=*/3);
  const NetworkSimResult r = RunTraceSim(config, trace);
  ASSERT_EQ(r.outcome.status, SimStatus::kDeadlock) << r.outcome.message;
  EXPECT_GT(r.outcome.cycle, 0u);
  ASSERT_EQ(r.outcome.router_occupancy.size(), 4u);
  std::uint32_t total = 0;
  for (std::uint32_t o : r.outcome.router_occupancy) total += o;
  EXPECT_GT(total, 0u);
}

TEST(TraceSim, TelemetryAndTimelineAreRecorded) {
  const PacketTrace trace = GeneratePatternTrace(
      PatternKind::kUniform, 0.05, 64, 3'000, 4, 23);
  NetworkSimConfig config;
  config.scheme = AllocScheme::kVix;
  config.warmup = 500;
  config.measure = 2'000;
  config.drain = 1'000;
  const NetworkSimResult plain = RunTraceSim(config, trace);

  config.telemetry.enabled = true;
  config.sample_interval = 500;
  const NetworkSimResult r = RunTraceSim(config, trace);
  ASSERT_TRUE(r.outcome.ok()) << r.outcome.message;
  EXPECT_TRUE(r.telemetry.enabled);
  EXPECT_GT(r.telemetry.sa_grants, 0u);
  EXPECT_FALSE(r.telemetry.windows.empty());
  ASSERT_FALSE(r.timeline.empty());
  std::uint64_t sampled = 0;
  for (const IntervalSample& s : r.timeline) sampled += s.packets;
  EXPECT_GT(sampled, 0u);
  // Observing a run never changes it.
  ExpectTraceBitwiseEqual(plain, r);
}

// Trace records pass the same reachability gate as synthetic packets: a
// source cut off by permanent faults has its records counted and skipped,
// and the run ends undeliverable instead of routing into a dead end.
TEST(TraceSim, SeveredSourceReportsUndeliverable) {
  NetworkSimConfig config;
  config.warmup = 200;
  config.measure = 1'000;
  config.drain = 1'000;
  const auto topo = MakeTopology64(config.topology);
  const auto links = topo->LinksFor(0);
  for (PortId p = 0; p < topo->Radix(); ++p) {
    if (links[p].neighbor >= 0) {
      config.faults.forced_link_down.emplace_back(0, p);
    }
  }
  const PacketTrace trace = GeneratePatternTrace(
      PatternKind::kUniform, 0.05, 64, 1'500, 4, 29);
  const NetworkSimResult r = RunTraceSim(config, trace);
  EXPECT_EQ(r.outcome.status, SimStatus::kUndeliverable) << r.outcome.message;
  std::uint64_t from_severed = 0;
  for (const TraceRecord& rec : trace.records()) from_severed += rec.src == 0;
  EXPECT_EQ(r.outcome.unreachable_packets, from_severed);
  EXPECT_GT(r.packets_measured, 0u);  // everyone else's records still flow
}

// The trace_sim section holds the window statistics and the replay
// position only. A trace run whose state would not survive a resume is
// refused up front, whether it writes checkpoints, restores one or keeps a
// pre-deadlock snapshot.
void ExpectCheckpointRefused(const NetworkSimConfig& config) {
  const PacketTrace trace = GeneratePatternTrace(
      PatternKind::kUniform, 0.05, 64, 1'000, 4, 13);
  NetworkSimConfig writing = config;
  writing.checkpoint_path = ::testing::TempDir() + "/trace_refused.ckpt";
  writing.checkpoint_every = 500;
  NetworkSimConfig resuming = config;
  resuming.restore_path = writing.checkpoint_path;
  // The rolling pre-deadlock snapshot is a trace_sim checkpoint too.
  NetworkSimConfig snapshotting = config;
  snapshotting.deadlock_checkpoint_path = writing.checkpoint_path;
  for (const NetworkSimConfig& c : {writing, resuming, snapshotting}) {
    try {
      RunTraceSim(c, trace);
      ADD_FAILURE() << "trace run was not refused";
    } catch (const SimError& e) {
      EXPECT_NE(std::string(e.what()).find("cannot checkpoint or restore"),
                std::string::npos)
          << e.what();
    }
  }
}

NetworkSimConfig ShortTraceConfig() {
  NetworkSimConfig config;
  config.warmup = 200;
  config.measure = 600;
  config.drain = 300;
  return config;
}

TEST(TraceSim, CheckpointRefusedWithTelemetry) {
  NetworkSimConfig config = ShortTraceConfig();
  config.telemetry.enabled = true;
  ExpectCheckpointRefused(config);
}

TEST(TraceSim, CheckpointRefusedWithTimeline) {
  NetworkSimConfig config = ShortTraceConfig();
  config.sample_interval = 100;
  ExpectCheckpointRefused(config);
}

TEST(TraceSim, CheckpointRefusedWithFaults) {
  NetworkSimConfig config = ShortTraceConfig();
  config.faults.corruption_rate = 0.001;
  ExpectCheckpointRefused(config);
}

}  // namespace
}  // namespace vixnoc
