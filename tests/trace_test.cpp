#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "common/error.hpp"
#include "sim/trace_sim.hpp"
#include "snapshot/snapshot.hpp"
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

}  // namespace
}  // namespace vixnoc
