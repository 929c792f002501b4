// Checkpoint/restore subsystem (src/snapshot/): the binary format's
// integrity guarantees (checksums, versioning, truncation), and the
// load-bearing contract of the whole feature — a run restored from a
// checkpoint and continued to cycle C is bitwise identical to an
// uninterrupted run to cycle C, across topologies, allocation schemes,
// fault injection and telemetry. Decoders must also refuse crafted input
// — valid checksums around out-of-range counts and indices — with a
// SimError, and routers that sleep through idle cycles must checkpoint
// exactly like routers that never skip one.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "alloc/switch_allocator.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "exec/exec_protocol.hpp"
#include "fault/fault_model.hpp"
#include "network/network.hpp"
#include "sim/sweep.hpp"
#include "snapshot/snapshot.hpp"
#include "snapshot/state_archive.hpp"
#include "store/result_store.hpp"
#include "telemetry/telemetry.hpp"
#include "topology/topology.hpp"

namespace vixnoc {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "vixnoc_snapshot_" + name;
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void Spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

// ---------------------------------------------------------------------------
// Format layer: primitive round trips and corruption detection.

TEST(SnapshotFormat, PrimitivesRoundTrip) {
  SnapshotWriter w;
  w.BeginSection("alpha");
  w.U8(0xAB);
  w.U16(0xBEEF);
  w.U32(0xDEADBEEFu);
  w.U64(0x0123456789ABCDEFull);
  w.I32(-42);
  w.I64(-1'234'567'890'123ll);
  w.F64(3.141592653589793);
  w.B(true);
  w.Str("hello, checkpoint");
  w.VecU64({1, 2, 3});
  w.VecU32({4, 5});
  w.VecI32({-6, 7});
  w.VecBool({true, false, true, true});
  w.EndSection();
  w.BeginSection("beta");
  w.U64(99);
  w.EndSection();

  SnapshotReader r(w.Finish(/*fingerprint=*/0x5EED));
  EXPECT_EQ(r.fingerprint(), 0x5EEDu);
  EXPECT_TRUE(r.HasSection("alpha"));
  EXPECT_TRUE(r.HasSection("beta"));
  EXPECT_FALSE(r.HasSection("gamma"));

  r.OpenSection("alpha");
  EXPECT_EQ(r.U8(), 0xAB);
  EXPECT_EQ(r.U16(), 0xBEEF);
  EXPECT_EQ(r.U32(), 0xDEADBEEFu);
  EXPECT_EQ(r.U64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.I32(), -42);
  EXPECT_EQ(r.I64(), -1'234'567'890'123ll);
  EXPECT_EQ(r.F64(), 3.141592653589793);
  EXPECT_TRUE(r.B());
  EXPECT_EQ(r.Str(), "hello, checkpoint");
  EXPECT_EQ(r.VecU64(), (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(r.VecU32(), (std::vector<std::uint32_t>{4, 5}));
  EXPECT_EQ(r.VecI32(), (std::vector<int>{-6, 7}));
  EXPECT_EQ(r.VecBool(), (std::vector<bool>{true, false, true, true}));
  r.CloseSection();

  r.OpenSection("beta");
  EXPECT_EQ(r.U64(), 99u);
  r.CloseSection();
}

std::string SmallSnapshot() {
  SnapshotWriter w;
  w.BeginSection("state");
  for (int i = 0; i < 32; ++i) w.U64(static_cast<std::uint64_t>(i) * 1000);
  w.EndSection();
  return w.Finish(7);
}

TEST(SnapshotFormat, EveryBitFlipIsDetected) {
  const std::string good = SmallSnapshot();
  // Flip one byte at a time across the whole file: every corruption must
  // surface as SimError (bad magic, bad version, checksum failure, or a
  // frame inconsistency) — never a crash, never a silent success that
  // changes payload bytes.
  int undetected = 0;
  for (std::size_t i = 0; i < good.size(); ++i) {
    std::string bad = good;
    bad[i] = static_cast<char>(bad[i] ^ 0x40);
    try {
      SnapshotReader r(std::move(bad));
      // Parsing succeeded: the flip must not have touched the payload
      // (e.g. the stored fingerprint, which the format itself cannot
      // validate — callers compare it against their config).
      r.OpenSection("state");
      for (int k = 0; k < 32; ++k) {
        EXPECT_EQ(r.U64(), static_cast<std::uint64_t>(k) * 1000)
            << "flip at byte " << i << " silently altered the payload";
      }
      r.CloseSection();
      ++undetected;
    } catch (const SimError&) {
      // Expected for flips in magic/version/lengths/payload/checksums.
    }
  }
  // Only the 8 fingerprint bytes (validated by the caller, not the frame)
  // and the 4 section-count... no: a count flip breaks parsing. Allow the
  // fingerprint plus nothing else to go format-undetected.
  EXPECT_LE(undetected, 8);
}

TEST(SnapshotFormat, ChecksumErrorNamesTheSection) {
  std::string bad = SmallSnapshot();
  bad[bad.size() - 20] = static_cast<char>(bad[bad.size() - 20] ^ 0x01);
  try {
    SnapshotReader r(std::move(bad));
    FAIL() << "corrupted snapshot parsed cleanly";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("state"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos)
        << e.what();
  }
}

TEST(SnapshotFormat, EveryTruncationIsDetected) {
  const std::string good = SmallSnapshot();
  for (std::size_t len = 0; len < good.size(); ++len) {
    EXPECT_THROW(SnapshotReader r(good.substr(0, len)), SimError)
        << "truncation to " << len << " bytes parsed cleanly";
  }
}

TEST(SnapshotFormat, BadMagicAndVersionThrow) {
  std::string bad_magic = SmallSnapshot();
  bad_magic[0] = 'X';
  EXPECT_THROW(SnapshotReader r(std::move(bad_magic)), SimError);

  std::string bad_version = SmallSnapshot();
  bad_version[8] = static_cast<char>(kSnapshotFormatVersion + 1);
  try {
    SnapshotReader r(std::move(bad_version));
    FAIL() << "future-version snapshot parsed cleanly";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos)
        << e.what();
  }
}

TEST(SnapshotFormat, UnreadTrailingBytesFailCloseSection) {
  SnapshotWriter w;
  w.BeginSection("s");
  w.U64(1);
  w.U64(2);
  w.EndSection();
  SnapshotReader r(w.Finish(0));
  r.OpenSection("s");
  EXPECT_EQ(r.U64(), 1u);
  EXPECT_THROW(r.CloseSection(), SimError);  // one u64 left unread
}

TEST(SnapshotFormat, ReadingPastTheSectionThrows) {
  SnapshotWriter w;
  w.BeginSection("s");
  w.U32(5);
  w.EndSection();
  SnapshotReader r(w.Finish(0));
  r.OpenSection("s");
  EXPECT_EQ(r.U32(), 5u);
  EXPECT_THROW(r.U32(), SimError);
}

// ---------------------------------------------------------------------------
// Network layer: a restored network re-serializes to identical bytes.

TEST(NetworkCheckpoint, RestoredNetworkSerializesIdentically) {
  NetworkParams params;
  params.router.radix = 5;
  params.router.num_vcs = 4;
  params.router.buffer_depth = 3;
  params.router.scheme = AllocScheme::kVix;
  params.router.vc_policy = RouterConfig::DefaultPolicyFor(AllocScheme::kVix);
  const auto make_net = [&] {
    return std::make_unique<Network>(
        std::shared_ptr<Topology>(MakeMesh(4, 4)), params);
  };

  auto net = make_net();
  Rng rng(11);
  for (Cycle t = 0; t < 300; ++t) {
    for (NodeId n = 0; n < net->NumNodes(); ++n) {
      if (rng.NextBool(0.1)) {
        net->EnqueuePacket(n, static_cast<NodeId>(rng.NextInRange(
                                  0, net->NumNodes() - 1)),
                           4);
      }
    }
    net->Step();
  }

  const std::string path = TempPath("net.ckpt");
  net->SaveCheckpoint(path);

  auto restored = make_net();
  restored->RestoreCheckpoint(path);
  EXPECT_EQ(restored->now(), net->now());

  const std::string repath = TempPath("net2.ckpt");
  restored->SaveCheckpoint(repath);
  EXPECT_EQ(Slurp(path), Slurp(repath));

  // And the two networks evolve identically from here.
  for (Cycle t = 0; t < 200; ++t) {
    net->Step();
    restored->Step();
  }
  net->SaveCheckpoint(path);
  restored->SaveCheckpoint(repath);
  EXPECT_EQ(Slurp(path), Slurp(repath));
}

TEST(NetworkCheckpoint, StructureMismatchThrows) {
  NetworkParams params;
  params.router.radix = 5;
  params.router.num_vcs = 4;
  params.router.buffer_depth = 3;
  Network small(std::shared_ptr<Topology>(MakeMesh(4, 4)), params);
  const std::string path = TempPath("small.ckpt");
  small.SaveCheckpoint(path);

  Network big(std::shared_ptr<Topology>(MakeMesh(8, 8)), params);
  EXPECT_THROW(big.RestoreCheckpoint(path), SimError);

  params.router.num_vcs = 6;
  Network other_vcs(std::shared_ptr<Topology>(MakeMesh(4, 4)), params);
  EXPECT_THROW(other_vcs.RestoreCheckpoint(path), SimError);
}

// ---------------------------------------------------------------------------
// The contract: restore-then-run equals an uninterrupted run, bitwise.

void ExpectTelemetryIdentical(const TelemetrySummary& a,
                              const TelemetrySummary& b) {
  EXPECT_EQ(a.enabled, b.enabled);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.sa_requests, b.sa_requests);
  EXPECT_EQ(a.sa_grants, b.sa_grants);
  EXPECT_EQ(a.input_arbiter_requests, b.input_arbiter_requests);
  EXPECT_EQ(a.input_arbiter_grants, b.input_arbiter_grants);
  EXPECT_EQ(a.output_arbiter_requests, b.output_arbiter_requests);
  EXPECT_EQ(a.output_arbiter_grants, b.output_arbiter_grants);
  EXPECT_EQ(a.output_conflict_cycles, b.output_conflict_cycles);
  EXPECT_EQ(a.port_multi_request_cycles, b.port_multi_request_cycles);
  EXPECT_EQ(a.vin_conflict_distinct_output, b.vin_conflict_distinct_output);
  EXPECT_EQ(a.vin_conflict_same_output, b.vin_conflict_same_output);
  EXPECT_EQ(a.single_vin_serialized, b.single_vin_serialized);
  EXPECT_EQ(a.stall_empty, b.stall_empty);
  EXPECT_EQ(a.stall_va, b.stall_va);
  EXPECT_EQ(a.stall_credit, b.stall_credit);
  EXPECT_EQ(a.stall_sa, b.stall_sa);
  EXPECT_EQ(a.vc_moving, b.vc_moving);
  EXPECT_EQ(a.crossbar_utilization, b.crossbar_utilization);
  EXPECT_EQ(a.mean_port_occupancy, b.mean_port_occupancy);
  EXPECT_EQ(a.p99_port_occupancy, b.p99_port_occupancy);
  ASSERT_EQ(a.windows.size(), b.windows.size());
  for (std::size_t i = 0; i < a.windows.size(); ++i) {
    EXPECT_EQ(a.windows[i].start, b.windows[i].start);
    EXPECT_EQ(a.windows[i].width, b.windows[i].width);
    EXPECT_EQ(a.windows[i].sa_grants, b.windows[i].sa_grants);
    EXPECT_EQ(a.windows[i].packets_ejected, b.windows[i].packets_ejected);
  }
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].packet, b.trace[i].packet);
    EXPECT_EQ(a.trace[i].kind, b.trace[i].kind);
    EXPECT_EQ(a.trace[i].cycle, b.trace[i].cycle);
    EXPECT_EQ(a.trace[i].router, b.trace[i].router);
  }
}

/// Every metric, the outcome, the timeline and the telemetry must match
/// exactly — doubles compared bitwise, since the resumed run is supposed to
/// have executed the same arithmetic in the same order.
void ExpectResultsIdentical(const NetworkSimResult& a,
                            const NetworkSimResult& b) {
  EXPECT_EQ(a.offered_ppc, b.offered_ppc);
  EXPECT_EQ(a.accepted_ppc, b.accepted_ppc);
  EXPECT_EQ(a.accepted_fpc, b.accepted_fpc);
  EXPECT_EQ(a.avg_latency, b.avg_latency);
  EXPECT_EQ(a.avg_net_latency, b.avg_net_latency);
  EXPECT_EQ(a.p99_latency, b.p99_latency);
  EXPECT_EQ(a.min_node_ppc, b.min_node_ppc);
  EXPECT_EQ(a.max_node_ppc, b.max_node_ppc);
  EXPECT_EQ(a.max_min_ratio, b.max_min_ratio);
  EXPECT_EQ(a.packets_measured, b.packets_measured);
  EXPECT_EQ(a.saturated, b.saturated);
  EXPECT_EQ(a.activity.buffer_writes, b.activity.buffer_writes);
  EXPECT_EQ(a.activity.xbar_traversals, b.activity.xbar_traversals);
  EXPECT_EQ(a.activity.link_flits, b.activity.link_flits);
  EXPECT_EQ(a.activity.sa_requests, b.activity.sa_requests);
  EXPECT_EQ(a.activity.sa_grants, b.activity.sa_grants);
  EXPECT_EQ(a.packets_corrupted, b.packets_corrupted);
  EXPECT_EQ(a.outcome.status, b.outcome.status);
  EXPECT_EQ(a.outcome.cycle, b.outcome.cycle);
  EXPECT_EQ(a.outcome.unreachable_packets, b.outcome.unreachable_packets);
  ASSERT_EQ(a.timeline.size(), b.timeline.size());
  for (std::size_t i = 0; i < a.timeline.size(); ++i) {
    EXPECT_EQ(a.timeline[i].start, b.timeline[i].start);
    EXPECT_EQ(a.timeline[i].packets, b.timeline[i].packets);
    EXPECT_EQ(a.timeline[i].accepted_ppc, b.timeline[i].accepted_ppc);
    EXPECT_EQ(a.timeline[i].avg_latency, b.timeline[i].avg_latency);
  }
  ExpectTelemetryIdentical(a.telemetry, b.telemetry);
}

NetworkSimConfig ShortConfig(TopologyKind topology, AllocScheme scheme) {
  NetworkSimConfig config;
  config.topology = topology;
  config.scheme = scheme;
  config.injection_rate = 0.08;
  config.warmup = 400;
  config.measure = 1'000;
  config.drain = 300;
  config.sample_interval = 250;
  config.seed = 17;
  return config;
}

/// Input VCs stalled on a creditless output VC, summed over the routers of
/// the network section of the checkpoint at `path` (written by a run of
/// `config` with default router knobs).
int CreditStalledVcsIn(const NetworkSimConfig& config,
                       const std::string& path) {
  NetworkParams params;
  std::shared_ptr<Topology> topology = MakeTopology64(config.topology);
  params.router.radix = topology->Radix();
  params.router.num_vcs = config.num_vcs;
  params.router.buffer_depth = config.buffer_depth;
  params.router.scheme = config.scheme;
  params.router.vc_policy = RouterConfig::DefaultPolicyFor(config.scheme);
  Network net(topology, params);
  SnapshotReader r(ReadSnapshotFile(path));
  r.OpenSection("network");
  net.LoadState(r);
  r.CloseSection();
  int stalled = 0;
  for (RouterId id = 0; id < net.NumRouters(); ++id) {
    stalled += net.router(id).CreditStalledVcs();
  }
  return stalled;
}

/// Runs `config` three ways: straight through; with periodic checkpoints
/// enabled (saving must not perturb anything); and restored from the last
/// periodic checkpoint. All three must agree bitwise. With
/// `min_credit_stalled` > 0 the restored checkpoint must also hold at
/// least that many credit-stalled input VCs, whose SA skip mask is derived
/// state rebuilt on restore.
void CheckResumeEquivalence(NetworkSimConfig config, const char* tag,
                            int min_credit_stalled = 0) {
  SCOPED_TRACE(tag);
  const NetworkSimResult straight = RunNetworkSim(config);

  const std::string path = TempPath(std::string("resume_") + tag + ".ckpt");
  NetworkSimConfig saving = config;
  saving.checkpoint_path = path;
  saving.checkpoint_every = 700;  // last checkpoint lands mid-measurement
  const NetworkSimResult with_saves = RunNetworkSim(saving);
  ExpectResultsIdentical(straight, with_saves);
  if (min_credit_stalled > 0) {
    EXPECT_GE(CreditStalledVcsIn(config, path), min_credit_stalled);
  }

  NetworkSimConfig resuming = config;
  resuming.restore_path = path;
  const NetworkSimResult resumed = RunNetworkSim(resuming);
  ExpectResultsIdentical(straight, resumed);
  std::remove(path.c_str());
}

TEST(ResumeEquivalence, MeshVix) {
  CheckResumeEquivalence(ShortConfig(TopologyKind::kMesh, AllocScheme::kVix),
                         "mesh_vix");
}
TEST(ResumeEquivalence, MeshInputFirst) {
  CheckResumeEquivalence(
      ShortConfig(TopologyKind::kMesh, AllocScheme::kInputFirst), "mesh_if");
}
TEST(ResumeEquivalence, MeshAugmentingPath) {
  CheckResumeEquivalence(
      ShortConfig(TopologyKind::kMesh, AllocScheme::kAugmentingPath),
      "mesh_ap");
}
TEST(ResumeEquivalence, TorusVix) {
  CheckResumeEquivalence(ShortConfig(TopologyKind::kTorus, AllocScheme::kVix),
                         "torus_vix");
}
TEST(ResumeEquivalence, TorusInputFirst) {
  CheckResumeEquivalence(
      ShortConfig(TopologyKind::kTorus, AllocScheme::kInputFirst), "torus_if");
}
TEST(ResumeEquivalence, TorusAugmentingPath) {
  CheckResumeEquivalence(
      ShortConfig(TopologyKind::kTorus, AllocScheme::kAugmentingPath),
      "torus_ap");
}
TEST(ResumeEquivalence, FbflyVix) {
  CheckResumeEquivalence(ShortConfig(TopologyKind::kFBfly, AllocScheme::kVix),
                         "fbfly_vix");
}
TEST(ResumeEquivalence, FbflyInputFirst) {
  CheckResumeEquivalence(
      ShortConfig(TopologyKind::kFBfly, AllocScheme::kInputFirst), "fbfly_if");
}
TEST(ResumeEquivalence, FbflyAugmentingPath) {
  CheckResumeEquivalence(
      ShortConfig(TopologyKind::kFBfly, AllocScheme::kAugmentingPath),
      "fbfly_ap");
}

// Past the mesh knee (rate 0.16) a large share of VCs waits on credits at
// any instant, so the checkpoints below are taken with many VCs
// credit-stalled: 347-432 of the mesh's 1920 input VCs. The flattened
// butterfly's express links leave fewer waiting at this rate (10 of 960).
NetworkSimConfig SaturatedConfig(TopologyKind topology, AllocScheme scheme) {
  NetworkSimConfig config = ShortConfig(topology, scheme);
  config.injection_rate = 0.16;
  return config;
}

constexpr int kManyStalledVcs = 100;

TEST(ResumeEquivalence, SaturatedMeshVix) {
  CheckResumeEquivalence(
      SaturatedConfig(TopologyKind::kMesh, AllocScheme::kVix),
      "sat_mesh_vix", kManyStalledVcs);
}
TEST(ResumeEquivalence, SaturatedMeshWavefront) {
  CheckResumeEquivalence(
      SaturatedConfig(TopologyKind::kMesh, AllocScheme::kWavefront),
      "sat_mesh_wf", kManyStalledVcs);
}
TEST(ResumeEquivalence, SaturatedMeshAugmentingPath) {
  CheckResumeEquivalence(
      SaturatedConfig(TopologyKind::kMesh, AllocScheme::kAugmentingPath),
      "sat_mesh_ap", kManyStalledVcs);
}
TEST(ResumeEquivalence, SaturatedMeshSerenade) {
  CheckResumeEquivalence(
      SaturatedConfig(TopologyKind::kMesh, AllocScheme::kSerenade),
      "sat_mesh_serenade", kManyStalledVcs);
}
TEST(ResumeEquivalence, SaturatedFbflyVix) {
  CheckResumeEquivalence(
      SaturatedConfig(TopologyKind::kFBfly, AllocScheme::kVix),
      "sat_fbfly_vix", /*min_credit_stalled=*/5);
}

TEST(ResumeEquivalence, WithFaultsMidSchedule) {
  // Transient outages every 500 cycles for 100, router stalls, payload
  // corruption, plus a couple of permanently dead links. checkpoint_every
  // = 700 puts the restore point mid-way through fault windows, so the
  // restored run must re-derive the same masks from (fault model, cycle).
  NetworkSimConfig config =
      ShortConfig(TopologyKind::kMesh, AllocScheme::kVix);
  config.faults.transient_rate = 0.08;
  config.faults.transient_period = 500;
  config.faults.transient_duration = 100;
  config.faults.router_stall_rate = 0.05;
  config.faults.stall_period = 500;
  config.faults.stall_duration = 50;
  config.faults.corruption_rate = 0.002;
  // Sever two real inter-router links (interior router 9 of the 8x8 mesh).
  const auto mesh = MakeMesh(8, 8);
  for (PortId p = 0; p < mesh->Radix() &&
                     config.faults.forced_link_down.size() < 2;
       ++p) {
    if (mesh->LinksFor(9)[p].neighbor >= 0) {
      config.faults.forced_link_down.emplace_back(9, p);
    }
  }
  config.watchdog_cycles = 2'000;
  CheckResumeEquivalence(config, "mesh_vix_faults");
}

TEST(ResumeEquivalence, WithTelemetryAndTrace) {
  NetworkSimConfig config =
      ShortConfig(TopologyKind::kMesh, AllocScheme::kVix);
  config.telemetry.enabled = true;
  config.telemetry.window_cycles = 256;
  config.telemetry.trace_sample_period = 7;
  CheckResumeEquivalence(config, "mesh_vix_telemetry");
}

TEST(ResumeEquivalence, BurstyInjection) {
  NetworkSimConfig config =
      ShortConfig(TopologyKind::kMesh, AllocScheme::kInputFirst);
  config.bursty = true;
  config.burst_on_rate = 0.4;
  config.mean_burst_cycles = 24.0;
  CheckResumeEquivalence(config, "mesh_if_bursty");
}

// ---------------------------------------------------------------------------
// Guard rails: wrong config, corrupted file, truncated file.

TEST(SimCheckpoint, ConfigMismatchThrows) {
  NetworkSimConfig config =
      ShortConfig(TopologyKind::kMesh, AllocScheme::kVix);
  const std::string path = TempPath("fingerprint.ckpt");
  config.checkpoint_path = path;
  config.checkpoint_every = 700;
  (void)RunNetworkSim(config);

  NetworkSimConfig other = config;
  other.checkpoint_path.clear();
  other.checkpoint_every = 0;
  other.restore_path = path;
  other.seed = config.seed + 1;  // would evolve differently
  EXPECT_THROW(RunNetworkSim(other), SimError);

  // Telemetry knobs are deliberately outside the fingerprint: a replay may
  // switch tracing on without invalidating the checkpoint.
  NetworkSimConfig replay = config;
  replay.checkpoint_path.clear();
  replay.checkpoint_every = 0;
  replay.restore_path = path;
  replay.telemetry.enabled = true;
  replay.telemetry.trace_sample_period = 3;
  const NetworkSimResult r = RunNetworkSim(replay);
  EXPECT_EQ(r.outcome.status, SimStatus::kOk) << r.outcome.message;
  std::remove(path.c_str());
}

TEST(SimCheckpoint, CorruptedAndTruncatedFilesThrowRecoverably) {
  NetworkSimConfig config =
      ShortConfig(TopologyKind::kMesh, AllocScheme::kVix);
  const std::string path = TempPath("corrupt.ckpt");
  config.checkpoint_path = path;
  config.checkpoint_every = 700;
  (void)RunNetworkSim(config);
  const std::string good = Slurp(path);
  ASSERT_GT(good.size(), 1000u);

  NetworkSimConfig restore = config;
  restore.checkpoint_path.clear();
  restore.checkpoint_every = 0;
  restore.restore_path = path;

  // Bit-flip in the middle of the network section's payload.
  std::string corrupted = good;
  corrupted[good.size() / 2] ^= 0x10;
  Spit(path, corrupted);
  EXPECT_THROW(RunNetworkSim(restore), SimError);

  // Truncations at several depths, including mid-header.
  for (const std::size_t len :
       {std::size_t{0}, std::size_t{5}, std::size_t{40}, good.size() / 3,
        good.size() - 1}) {
    Spit(path, good.substr(0, len));
    EXPECT_THROW(RunNetworkSim(restore), SimError) << "len=" << len;
  }

  // Missing file entirely.
  std::remove(path.c_str());
  EXPECT_THROW(RunNetworkSim(restore), SimError);
}

TEST(SimCheckpoint, ValidationRejectsIncoherentKnobs) {
  NetworkSimConfig config;
  config.checkpoint_every = 100;  // no checkpoint_path
  EXPECT_THROW(ValidateNetworkSimConfig(config), SimError);

  NetworkSimConfig config2;
  config2.watchdog_cycles = 0;
  config2.deadlock_checkpoint_path = "x.ckpt";  // watchdog disabled
  EXPECT_THROW(ValidateNetworkSimConfig(config2), SimError);
}

// ---------------------------------------------------------------------------
// Deadlock post-mortem: the rolling pre-deadlock checkpoint replays into
// the same deadlock, and the replay can run with tracing enabled.

class RingRouting final : public RoutingAlgorithm {
 public:
  explicit RingRouting(const Topology& mesh) : mesh_(&mesh) {
    static const RouterId kNext[4] = {1, 3, 0, 2};
    next_port_.assign(4, kInvalidPort);
    for (RouterId r = 0; r < 4; ++r) {
      for (PortId p = 0; p < mesh.Radix(); ++p) {
        if (mesh.LinksFor(r)[p].neighbor == kNext[r]) next_port_[r] = p;
      }
    }
  }
  PortId Route(RouterId router, NodeId dst) const override {
    if (mesh_->RouterOfNode(dst) == router) {
      return mesh_->EjectPortOfNode(dst);
    }
    return next_port_[router];
  }
  PortDimension DimensionOf(PortId port) const override {
    // Mesh port convention: E/W then N/S then locals.
    if (port <= 1) return PortDimension::kX;
    if (port <= 3) return PortDimension::kY;
    return PortDimension::kLocal;
  }

 private:
  const Topology* mesh_;
  std::vector<PortId> next_port_;
};

/// 2x2 mesh whose inter-router traffic is forced around the cycle
/// r0 -> r1 -> r3 -> r2 -> r0 (single VC): a textbook channel-dependency
/// cycle that wedges under load. Mirrors fault_test's watchdog fixture.
class RingTopology final : public Topology {
 public:
  RingTopology() : mesh_(MakeMesh(2, 2)) {}
  TopologyKind Kind() const override { return mesh_->Kind(); }
  int NumRouters() const override { return mesh_->NumRouters(); }
  int NumNodes() const override { return mesh_->NumNodes(); }
  int Radix() const override { return mesh_->Radix(); }
  RouterId RouterOfNode(NodeId node) const override {
    return mesh_->RouterOfNode(node);
  }
  PortId InjectPortOfNode(NodeId node) const override {
    return mesh_->InjectPortOfNode(node);
  }
  PortId EjectPortOfNode(NodeId node) const override {
    return mesh_->EjectPortOfNode(node);
  }
  std::vector<OutputLinkInfo> LinksFor(RouterId router) const override {
    return mesh_->LinksFor(router);
  }
  int Cols() const override { return mesh_->Cols(); }
  int Rows() const override { return mesh_->Rows(); }
  int RouterHops(NodeId src, NodeId dst) const override {
    return mesh_->RouterHops(src, dst);
  }

 private:
  std::unique_ptr<Topology> mesh_;
};

NetworkSimConfig DeadlockConfig() {
  NetworkSimConfig config;
  config.topology_factory = [] { return std::make_unique<RingTopology>(); };
  config.routing_factory =
      [](const Topology& topo) -> std::unique_ptr<RoutingAlgorithm> {
    return std::make_unique<RingRouting>(topo);
  };
  config.num_vcs = 1;
  config.buffer_depth = 2;
  config.packet_size = 6;
  config.injection_rate = 0.30;
  config.warmup = 500;
  config.measure = 2'000;
  config.drain = 500;
  config.watchdog_cycles = 400;
  config.seed = 3;
  return config;
}

TEST(DeadlockPostMortem, RollingCheckpointReplaysIntoTheSameDeadlock) {
  const std::string path = TempPath("predeadlock.ckpt");
  NetworkSimConfig config = DeadlockConfig();
  config.deadlock_checkpoint_path = path;
  const NetworkSimResult crashed = RunNetworkSim(config);
  ASSERT_EQ(crashed.outcome.status, SimStatus::kDeadlock)
      << crashed.outcome.message;
  ASSERT_EQ(crashed.outcome.checkpoint_path, path);
  ASSERT_TRUE(std::filesystem::exists(path));

  // The rolling checkpoint must predate detection by at least one full
  // watchdog window, leaving the entire wedging sequence replayable.
  SnapshotReader peek(ReadSnapshotFile(path));
  peek.OpenSection("sim");
  const Cycle resume_at = peek.U64();
  EXPECT_LE(resume_at + config.watchdog_cycles, crashed.outcome.cycle);

  // Replay with the packet trace switched on — the point of the feature:
  // full observability over the final cycles without re-running from 0.
  NetworkSimConfig replay = DeadlockConfig();
  replay.restore_path = path;
  replay.telemetry.enabled = true;
  replay.telemetry.trace_sample_period = 1;
  const NetworkSimResult replayed = RunNetworkSim(replay);
  EXPECT_EQ(replayed.outcome.status, SimStatus::kDeadlock);
  EXPECT_EQ(replayed.outcome.cycle, crashed.outcome.cycle);
  EXPECT_EQ(replayed.outcome.message, crashed.outcome.message);
  ASSERT_EQ(replayed.outcome.router_occupancy.size(),
            crashed.outcome.router_occupancy.size());
  for (std::size_t i = 0; i < crashed.outcome.router_occupancy.size(); ++i) {
    EXPECT_EQ(replayed.outcome.router_occupancy[i],
              crashed.outcome.router_occupancy[i]);
  }
  EXPECT_FALSE(replayed.telemetry.trace.empty());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Sweep resume: a killed sweep re-run over the same result store only
// simulates the missing points, and the merged results are bitwise
// identical to an uninterrupted sweep.

TEST(SweepResume, CachedPointsAreLoadedNotRerun) {
  std::vector<NetworkSimConfig> points;
  for (int i = 0; i < 6; ++i) {
    NetworkSimConfig c = ShortConfig(TopologyKind::kMesh, AllocScheme::kVix);
    c.injection_rate = 0.02 + 0.02 * i;
    c.sample_interval = 0;
    points.push_back(c);
  }
  const std::vector<NetworkSimResult> straight = RunSweep(points, 2);

  const std::string dir = TempPath("sweepdir");
  std::filesystem::remove_all(dir);
  {
    SweepRunner first(2);
    first.SetCache(std::make_shared<ResultStore>(dir));
    const std::vector<NetworkSimResult> r1 = first.Run(points);
    EXPECT_EQ(first.resumed_points(), 0u);
    for (std::size_t i = 0; i < points.size(); ++i) {
      ExpectResultsIdentical(straight[i], r1[i]);
    }
  }

  // Simulate an interrupted sweep: two results lost, one corrupted.
  auto store = std::make_shared<ResultStore>(dir);
  ASSERT_TRUE(std::filesystem::remove(store->EntryPath(points[1])));
  ASSERT_TRUE(std::filesystem::remove(store->EntryPath(points[4])));
  std::string damaged = Slurp(store->EntryPath(points[2]));
  damaged[damaged.size() / 2] ^= 0x08;
  Spit(store->EntryPath(points[2]), damaged);

  SweepRunner second(2);
  second.SetCache(store);
  const std::vector<NetworkSimResult> r2 = second.Run(points);
  EXPECT_EQ(second.resumed_points(), 3u);  // 0, 3, 5 from the store
  for (std::size_t i = 0; i < points.size(); ++i) {
    ExpectResultsIdentical(straight[i], r2[i]);
  }
  std::filesystem::remove_all(dir);
}

TEST(SweepResume, StaleCacheFromDifferentConfigIsIgnored) {
  NetworkSimConfig a = ShortConfig(TopologyKind::kMesh, AllocScheme::kVix);
  a.sample_interval = 0;
  NetworkSimConfig b = a;
  b.seed = a.seed + 99;

  const std::string dir = TempPath("staledir");
  std::filesystem::remove_all(dir);
  {
    SweepRunner first(1);
    first.SetCache(std::make_shared<ResultStore>(dir));
    (void)first.Run({a});
  }
  // Different config -> different result key -> different entry path: b
  // misses even though a's entry sits in the same store.
  SweepRunner second(1);
  second.SetCache(std::make_shared<ResultStore>(dir));
  const std::vector<NetworkSimResult> rb = second.Run({b});
  EXPECT_EQ(second.resumed_points(), 0u);
  ExpectResultsIdentical(RunNetworkSim(b), rb[0]);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Crafted input: well-framed bytes (valid checksums) carrying out-of-range
// counts or indices must throw SimError — not bad_alloc, not a crash.

std::string Le(std::uint64_t v, int bytes) {
  std::string out;
  for (int i = 0; i < bytes; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
  return out;
}

/// Offset of the only occurrence of `needle` in `hay`.
std::size_t FindOnce(const std::string& hay, const std::string& needle) {
  const std::size_t at = hay.find(needle);
  EXPECT_NE(at, std::string::npos) << "pattern not found";
  EXPECT_EQ(hay.find(needle, at + 1), std::string::npos)
      << "pattern not unique";
  return at;
}

/// Overwrites `bytes` at absolute offset `at` of a snapshot file and
/// re-seals the checksum of the section containing it, so only the
/// decoder, not the frame, can notice.
std::string Patch(std::string file, std::size_t at, const std::string& bytes) {
  const auto u32 = [&](std::size_t pos) {
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i) {
      v = (v << 8) | static_cast<unsigned char>(file[pos + i]);
    }
    return v;
  };
  std::size_t pos = 8 + 4 + 8;  // magic, version, fingerprint
  const std::uint32_t sections = u32(pos);
  pos += 4;
  for (std::uint32_t i = 0; i < sections; ++i) {
    pos += 4 + u32(pos);  // name
    const std::size_t len = u32(pos);  // payload length (< 4 GiB here)
    const std::size_t begin = pos + 8;
    pos = begin + len;
    if (at >= begin && at + bytes.size() <= pos) {
      file.replace(at, bytes.size(), bytes);
      file.replace(pos, 8, Le(Fnv1a64(file.data() + begin, len), 8));
      return file;
    }
    pos += 8;  // checksum
  }
  ADD_FAILURE() << "offset " << at << " is in no section payload";
  return file;
}

std::string InflatedCount() { return Le(0xffffffffu, 4); }

NetworkParams SmallMeshParams() {
  NetworkParams params;
  params.router.radix = 5;
  params.router.num_vcs = 4;
  params.router.buffer_depth = 3;
  return params;
}

std::string NetworkBytes(const Network& net) {
  SnapshotWriter w;
  w.BeginSection("network");
  net.SaveState(w);
  w.EndSection();
  return w.Finish(net.StructureFingerprint());
}

void LoadNetworkBytes(Network* net, const std::string& bytes) {
  SnapshotReader r(bytes);
  r.OpenSection("network");
  net->LoadState(r);
  r.CloseSection();
}

TEST(CraftedInput, FlitEncodingSizeMatchesTheBound) {
  SnapshotWriter none;
  none.BeginSection("f");
  none.EndSection();
  SnapshotWriter one;
  one.BeginSection("f");
  StateArchive::Save(one, FlitRecord{});
  one.EndSection();
  EXPECT_EQ(one.Finish(0).size() - none.Finish(0).size(), kFlitBytes);
}

TEST(CraftedInput, InflatedWheelSlotCountThrows) {
  const NetworkParams params = SmallMeshParams();
  Network net(std::shared_ptr<Topology>(MakeMesh(4, 4)), params);
  const std::string good = NetworkBytes(net);
  // The first slot's count follows four u64 header fields and the u32
  // slot count at the start of the only payload.
  const std::size_t payload = 8 + 4 + 8 + 4 + 4 + 7 + 8;  // "network"
  const std::string bad = Patch(good, payload + 4 * 8 + 4, InflatedCount());
  Network restored(std::shared_ptr<Topology>(MakeMesh(4, 4)), params);
  EXPECT_THROW(LoadNetworkBytes(&restored, bad), SimError);
  LoadNetworkBytes(&restored, good);  // control: the unpatched bytes load
}

TEST(CraftedInput, InflatedNiActiveCountThrows) {
  const NetworkParams params = SmallMeshParams();
  Network net(std::shared_ptr<Topology>(MakeMesh(4, 4)), params);
  const PacketId id = net.EnqueuePacket(0, 15, 4);
  net.Step();  // the NI starts the packet: one active transmission
  const std::string good = NetworkBytes(net);
  // NI 0's active count precedes its one record: id u64, dst, size.
  const std::size_t at =
      FindOnce(good, Le(1, 4) + Le(id, 8) + Le(15, 4) + Le(4, 4));
  Network restored(std::shared_ptr<Topology>(MakeMesh(4, 4)), params);
  EXPECT_THROW(LoadNetworkBytes(&restored, Patch(good, at, InflatedCount())),
               SimError);
  LoadNetworkBytes(&restored, good);
}

TEST(CraftedInput, InflatedForcedLinkDownCountThrows) {
  NetworkSimConfig config;
  config.faults.forced_link_down = {{0x13572468, 0x0246ace0}};
  SnapshotWriter w;
  w.BeginSection("config");
  SaveNetworkSimConfig(w, config);
  w.EndSection();
  const std::string good = w.Finish(0);
  const std::size_t at =
      FindOnce(good, Le(1, 4) + Le(0x13572468, 4) + Le(0x0246ace0, 4));
  SnapshotReader r(Patch(good, at, InflatedCount()));
  r.OpenSection("config");
  EXPECT_THROW(LoadNetworkSimConfig(r), SimError);
}

TEST(CraftedInput, OutOfRangeConfigWordsThrow) {
  // Each scalar config field is one u64 word in table order, so a sentinel
  // locates its neighbour: scheme precedes num_vcs, and ap_rotate_vcs
  // precedes pipeline_stages.
  NetworkSimConfig config;
  config.num_vcs = 0x5a5a5a5a;
  config.pipeline_stages = 0x3c3c3c3c;
  SnapshotWriter w;
  w.BeginSection("config");
  SaveNetworkSimConfig(w, config);
  w.EndSection();
  const std::string good = w.Finish(0);
  const std::size_t vcs = FindOnce(good, Le(0x5a5a5a5a, 8));
  const std::size_t stages = FindOnce(good, Le(0x3c3c3c3c, 8));
  const auto load = [](const std::string& bytes) {
    SnapshotReader r(bytes);
    r.OpenSection("config");
    return LoadNetworkSimConfig(r);
  };
  const std::pair<std::size_t, std::uint64_t> bad[] = {
      {vcs - 8, 9},             // scheme past kSerenade
      {vcs, 0x15a5a5a5aull},    // num_vcs outside int
      {stages - 8, 2},          // ap_rotate_vcs neither 0 nor 1
  };
  for (const auto& [at, word] : bad) {
    EXPECT_THROW(load(Patch(good, at, Le(word, 8))), SimError) << word;
  }
  EXPECT_EQ(load(good).num_vcs, 0x5a5a5a5a);  // control
}

TEST(CraftedInput, InflatedResultListCountsThrow) {
  NetworkSimResult result;
  result.timeline = {IntervalSample{0x1122334455667788ull, 0.5, 2.0, 7}};
  TelemetryWindow window;
  window.start = 0x2233445566778899ull;
  result.telemetry.windows = {window};
  PacketTraceEvent event;
  event.packet = 0x33445566778899aaull;
  result.telemetry.trace = {event};
  SnapshotWriter w;
  w.BeginSection("result");
  SaveNetworkSimResult(w, result);
  w.EndSection();
  const std::string good = w.Finish(0);
  for (const std::uint64_t first_field :
       {result.timeline[0].start, window.start, event.packet}) {
    SCOPED_TRACE(first_field);
    const std::size_t at = FindOnce(good, Le(1, 4) + Le(first_field, 8));
    SnapshotReader r(Patch(good, at, InflatedCount()));
    r.OpenSection("result");
    EXPECT_THROW(LoadNetworkSimResult(r), SimError);
  }
}

TEST(CraftedInput, InflatedCheckpointTimelineCountThrows) {
  NetworkSimConfig config =
      ShortConfig(TopologyKind::kMesh, AllocScheme::kVix);
  const NetworkSimResult straight = RunNetworkSim(config);
  ASSERT_FALSE(straight.timeline.empty());
  const std::string path = TempPath("timeline.ckpt");
  config.checkpoint_path = path;
  config.checkpoint_every = 700;
  (void)RunNetworkSim(config);
  const std::string good = Slurp(path);
  // The checkpoint's timeline starts with the run's first sample.
  const IntervalSample& s = straight.timeline[0];
  std::uint64_t acc = 0;
  std::uint64_t lat = 0;
  std::memcpy(&acc, &s.accepted_ppc, sizeof acc);
  std::memcpy(&lat, &s.avg_latency, sizeof lat);
  const std::size_t at =
      FindOnce(good, Le(s.start, 8) + Le(acc, 8) + Le(lat, 8) +
                         Le(s.packets, 8)) -
      4;
  Spit(path, Patch(good, at, InflatedCount()));
  NetworkSimConfig restore = config;
  restore.checkpoint_path.clear();
  restore.checkpoint_every = 0;
  restore.restore_path = path;
  EXPECT_THROW(RunNetworkSim(restore), SimError);
  std::remove(path.c_str());
}

TEST(CraftedInput, OutOfRangeLinkEventFieldsThrow) {
  const NetworkParams params = SmallMeshParams();
  Network net(std::shared_ptr<Topology>(MakeMesh(4, 4)), params);
  constexpr std::uint64_t kTag = 0xfeedfacecafebeefull;
  net.EnqueuePacket(0, 15, 1, kTag);
  net.Step();  // the NI sends the lone flit: one flit event in the wheel
  const std::string good = NetworkBytes(net);
  // The event header (kind u8, target, port, vc i32) precedes its flit,
  // whose user tag sits 45 bytes in.
  const std::size_t flit = FindOnce(good, Le(kTag, 8)) - 45;
  const std::size_t target = flit - 12;
  const std::size_t port = flit - 8;
  Network restored(std::shared_ptr<Topology>(MakeMesh(4, 4)), params);
  for (const auto& [at, value] :
       {std::pair{target, 16u}, std::pair{target, 0xffffffffu},
        std::pair{port, 5u}, std::pair{port, 0xffffffffu}}) {
    SCOPED_TRACE(at == target ? "target" : "port");
    EXPECT_THROW(LoadNetworkBytes(&restored, Patch(good, at, Le(value, 4))),
                 SimError);
  }
  LoadNetworkBytes(&restored, good);
}

TEST(CraftedInput, OutOfRangeRouterIndicesThrow) {
  NetworkParams params = SmallMeshParams();
  params.router.speculative_sa = false;  // VA now, SA next cycle
  Network net(std::shared_ptr<Topology>(MakeMesh(4, 4)), params);
  constexpr std::uint64_t kTag = 0xfeedfacecafebeefull;
  net.EnqueuePacket(0, 15, 1, kTag);
  net.Step();  // injected
  net.Step();  // delivered to router 0 and granted a VC, not yet sent
  const std::string good = NetworkBytes(net);
  // Stored flit field offsets; the VC record continues after the flit with
  // active u8, out_port i32, out_vc i32, lookahead i32, dateline u8.
  const std::size_t flit = FindOnce(good, Le(kTag, 8)) - 45;
  const std::size_t state = flit + kFlitBytes;
  // Another output VC of the same port: its allocation flag is clear, so
  // no input VC may claim to hold it.
  const int other_vc = (static_cast<unsigned char>(good[state + 5]) + 1) %
                       params.router.num_vcs;
  const struct {
    const char* what;
    std::size_t at;
    std::string bytes;
  } crafted[] = {
      {"flit vc", flit + 37, Le(3, 4)},
      {"flit route", flit + 41, Le(99, 4)},
      {"flit class", flit + 53, Le(1, 1)},
      {"flit dateline", flit + 54, Le(200, 1)},
      {"output port", state + 1, Le(99, 4)},
      {"negative output port", state + 1, Le(0xfffffff0u, 4)},
      {"output vc", state + 5, Le(4, 4)},
      {"lookahead", state + 9, Le(99, 4)},
      {"dateline state", state + 13, Le(9, 1)},
      {"inactive with output state", state, Le(0, 1)},
      {"output vc not allocated", state + 5,
       Le(static_cast<std::uint64_t>(other_vc), 4)},
  };
  for (const auto& c : crafted) {
    SCOPED_TRACE(c.what);
    Network restored(std::shared_ptr<Topology>(MakeMesh(4, 4)), params);
    EXPECT_THROW(LoadNetworkBytes(&restored, Patch(good, c.at, c.bytes)),
                 SimError);
  }
  // Control: the unpatched state restores and delivers the packet.
  Network restored(std::shared_ptr<Topology>(MakeMesh(4, 4)), params);
  LoadNetworkBytes(&restored, good);
  for (int t = 0; t < 100; ++t) restored.Step();
  EXPECT_TRUE(restored.Quiescent());
}

TEST(CraftedInput, OutOfRangeNiPacketFieldsThrow) {
  const NetworkParams params = SmallMeshParams();  // 16 nodes, 4 VCs, depth 3
  Network net(std::shared_ptr<Topology>(MakeMesh(4, 4)), params);
  const PacketId sending = net.EnqueuePacket(0, 15, 4);
  const PacketId queued = net.EnqueuePacket(0, 10, 2);
  net.Step();  // NI 0 starts the first packet; the second stays queued
  const std::string good = NetworkBytes(net);
  // NI 0's queued packet: id u64, dst i32, size i32, created u64,
  // user_tag u64, msg_class i32. Its transmission: id u64, dst, size,
  // sent i32, created, injected, user_tag u64, route_out, vc, msg_class
  // i32; then its credit vector (u64 length, one i32 per VC).
  const std::size_t pend = FindOnce(good, Le(queued, 8) + Le(10, 4) +
                                              Le(2, 4));
  const std::size_t tx = FindOnce(good, Le(sending, 8) + Le(15, 4) +
                                            Le(4, 4) + Le(1, 4));
  const std::size_t credits = tx + 56 + 8;
  const struct {
    const char* what;
    std::size_t at;
    std::uint64_t value;
  } crafted[] = {
      {"queued destination", pend + 8, 16},
      {"queued size", pend + 12, 0},
      {"queued class", pend + 32, 1},
      {"transmission destination", tx + 8, 0xffffffffu},
      {"transmission size", tx + 12, 0},
      {"transmission sent", tx + 16, 4},
      {"transmission route", tx + 44, 99},
      {"transmission vc", tx + 48, 99},
      {"negative transmission vc", tx + 48, 0xffffffffu},
      {"transmission class", tx + 52, 1},
      {"NI credit", credits, 4},
      {"negative NI credit", credits + 4, 0xffffffffu},
  };
  for (const auto& c : crafted) {
    SCOPED_TRACE(c.what);
    Network restored(std::shared_ptr<Topology>(MakeMesh(4, 4)), params);
    EXPECT_THROW(
        LoadNetworkBytes(&restored, Patch(good, c.at, Le(c.value, 4))),
        SimError);
  }
  // Control: the unpatched state restores and delivers both packets.
  Network restored(std::shared_ptr<Topology>(MakeMesh(4, 4)), params);
  LoadNetworkBytes(&restored, good);
  for (int t = 0; t < 100; ++t) restored.Step();
  EXPECT_TRUE(restored.Quiescent());
}

TEST(CraftedInput, OutOfRangeFlitNodesThrow) {
  NetworkParams params = SmallMeshParams();
  params.router.speculative_sa = false;  // VA now, SA next cycle
  constexpr std::uint64_t kTag = 0xfeedfacecafebeefull;
  // After one Step the lone flit is on the injection link; after two it
  // sits in router 0's input buffer. Its source and destination follow
  // the packet id, 45 bytes before the user tag.
  for (const int steps : {1, 2}) {
    SCOPED_TRACE(steps == 1 ? "on a link" : "in a buffer");
    Network net(std::shared_ptr<Topology>(MakeMesh(4, 4)), params);
    net.EnqueuePacket(0, 15, 1, kTag);
    for (int t = 0; t < steps; ++t) net.Step();
    const std::string good = NetworkBytes(net);
    const std::size_t flit = FindOnce(good, Le(kTag, 8)) - 45;
    for (const auto& [at, value] :
         {std::pair{flit + 8, 16u}, std::pair{flit + 8, 0xffffffffu},
          std::pair{flit + 12, 16u}, std::pair{flit + 12, 0xffffffffu}}) {
      Network restored(std::shared_ptr<Topology>(MakeMesh(4, 4)), params);
      EXPECT_THROW(LoadNetworkBytes(&restored, Patch(good, at, Le(value, 4))),
                   SimError);
    }
    Network restored(std::shared_ptr<Topology>(MakeMesh(4, 4)), params);
    LoadNetworkBytes(&restored, good);  // control
  }
}

// The cross-object bounds: a restore whose wheel would overfill a buffer
// or a credit count, or whose NI busy VCs disagree with its
// transmissions, throws instead of aborting on the next Step.
TEST(CraftedInput, WheelFlitIntoAFullBufferThrows) {
  NetworkParams params = SmallMeshParams();  // 4 VCs, depth 3
  const auto topo = std::shared_ptr<Topology>(MakeMesh(4, 4));
  FaultConfig faults;
  faults.forced_link_down = {{0, 0}};  // router 0's east link
  params.faults = std::make_shared<const FaultModel>(*topo, faults, 1);
  Network net(topo, params);
  // Routed east first, the packet's head waits at router 0 while the NI
  // fills its VC there.
  net.EnqueuePacket(0, 15, 4);
  for (int t = 0; t < 6; ++t) net.Step();
  const PortId inject = topo->InjectPortOfNode(0);
  VcId full = kInvalidVc;
  for (VcId vc = 0; vc < params.router.num_vcs; ++vc) {
    if (net.router(0).BufferOccupancy(inject, vc) == 3) full = vc;
  }
  ASSERT_NE(full, kInvalidVc);
  constexpr std::uint64_t kTag = 0xfeedfacecafebeefull;
  net.EnqueuePacket(0, 15, 1, kTag);
  net.Step();  // the NI sends the lone flit on another VC
  const std::string good = NetworkBytes(net);
  const std::size_t flit_vc = FindOnce(good, Le(kTag, 8)) - 45 + 37;
  ASSERT_NE(static_cast<VcId>(good[flit_vc]), full);
  Network restored(topo, params);
  EXPECT_THROW(LoadNetworkBytes(&restored, Patch(good, flit_vc, Le(full, 4))),
               SimError);
  LoadNetworkBytes(&restored, good);  // control
}

TEST(CraftedInput, CreditsBeyondDepthThrow) {
  const NetworkParams params = SmallMeshParams();  // 4 VCs, depth 3
  const auto topo = std::shared_ptr<Topology>(MakeMesh(4, 4));
  SnapshotWriter flit;
  flit.BeginSection("f");
  StateArchive::Save(flit, FlitRecord{});
  flit.EndSection();
  // A credit event is stored as its header (kind u8, target, port, vc
  // i32) and an empty flit: the section above, whose payload is followed
  // only by its u64 digest.
  const std::string file = flit.Finish(0);
  const std::string flit_bytes =
      file.substr(file.size() - 8 - kFlitBytes, kFlitBytes);
  // One hop: router 0 returns NI 0 its credit, and node 1's router
  // returns router 0's output toward it its credit. Each case patches the
  // VC of the credit in flight to one whose count is already full.
  PortId toward = kInvalidPort;
  {
    Network net(topo, params);
    for (PortId o = 0; o < params.router.radix; ++o) {
      if (net.router(0).link(o).neighbor == topo->RouterOfNode(1)) toward = o;
    }
  }
  ASSERT_NE(toward, kInvalidPort);
  const struct {
    const char* what;
    std::uint64_t kind;
    std::uint64_t port;
  } crafted[] = {
      {"router output VC", 1, static_cast<std::uint64_t>(toward)},
      {"NI VC", 3, 0xffffffffu},  // kCreditToNi: no port
  };
  for (const auto& c : crafted) {
    SCOPED_TRACE(c.what);
    Network net(topo, params);
    net.EnqueuePacket(0, 1, 1);
    std::string good;
    std::size_t at = std::string::npos;
    VcId vc = 0;
    for (int t = 0; t < 10 && at == std::string::npos; ++t) {
      net.Step();
      good = NetworkBytes(net);
      for (vc = 0; vc < params.router.num_vcs; ++vc) {
        at = good.find(Le(c.kind, 1) + Le(0, 4) + Le(c.port, 4) + Le(vc, 4) +
                       flit_bytes);
        if (at != std::string::npos) break;
      }
    }
    ASSERT_NE(at, std::string::npos);
    Network restored(topo, params);
    const VcId other = (vc + 1) % params.router.num_vcs;
    EXPECT_THROW(LoadNetworkBytes(&restored, Patch(good, at + 9, Le(other, 4))),
                 SimError);
    LoadNetworkBytes(&restored, good);  // control
  }
}

TEST(CraftedInput, NiBusyVcsUnlikeTransmissionsThrow) {
  const NetworkParams params = SmallMeshParams();  // 4 VCs
  Network net(std::shared_ptr<Topology>(MakeMesh(4, 4)), params);
  const PacketId first = net.EnqueuePacket(0, 15, 4);
  const PacketId second = net.EnqueuePacket(0, 10, 4);
  net.Step();
  net.Step();  // NI 0 transmits both packets, each on its own VC
  const std::string good = NetworkBytes(net);
  // Each transmission: id u64, dst, size, sent i32, created, injected,
  // user_tag u64, then route_out, vc, msg_class i32. After the list come
  // the credit vector and the vc_busy vector (u64 length, then one byte
  // per VC).
  const std::size_t tx1 = FindOnce(good, Le(first, 8) + Le(15, 4) + Le(4, 4));
  const std::size_t tx2 = FindOnce(good, Le(second, 8) + Le(10, 4) +
                                             Le(4, 4));
  const VcId vc1 = static_cast<VcId>(good[tx1 + 48]);
  const std::size_t busy =
      std::max(tx1, tx2) + 56 + 8 + 4 * params.router.num_vcs + 8;
  ASSERT_EQ(good[busy + vc1], 1);
  VcId idle = 0;
  while (good[busy + idle] != 0) ++idle;
  const struct {
    const char* what;
    std::size_t at;
    std::string bytes;
  } crafted[] = {
      {"busy VC with no transmission", busy + idle, Le(1, 1)},
      {"transmission on a free VC", busy + vc1, Le(0, 1)},
      {"two transmissions on one VC", tx2 + 48, Le(vc1, 4)},
  };
  for (const auto& c : crafted) {
    SCOPED_TRACE(c.what);
    Network restored(std::shared_ptr<Topology>(MakeMesh(4, 4)), params);
    EXPECT_THROW(LoadNetworkBytes(&restored, Patch(good, c.at, c.bytes)),
                 SimError);
  }
  Network restored(std::shared_ptr<Topology>(MakeMesh(4, 4)), params);
  LoadNetworkBytes(&restored, good);  // control
  for (int t = 0; t < 100; ++t) restored.Step();
  EXPECT_TRUE(restored.Quiescent());
}

// The packet table: a restore interns every stored flit and transmission
// by packet id, so the records of one packet must agree, and each flit's
// seq and type must fit its packet.

/// Offsets of every occurrence of `needle` in `hay`, in order.
std::vector<std::size_t> FindAll(const std::string& hay,
                                 const std::string& needle) {
  std::vector<std::size_t> at;
  for (std::size_t pos = hay.find(needle); pos != std::string::npos;
       pos = hay.find(needle, pos + 1)) {
    at.push_back(pos);
  }
  return at;
}

// Stored flit field offsets: packet_id u64, src, dst i32, type u8, seq,
// packet_size u16, created, injected u64, vc, route_out i32, user_tag
// u64, msg_class, dateline u8, corrupted bool.
constexpr std::size_t kFlitType = 16;
constexpr std::size_t kFlitSeq = 17;
constexpr std::size_t kFlitCreated = 21;
constexpr std::size_t kFlitInjected = 29;
constexpr std::size_t kFlitUserTag = 45;

/// Loads `good` patched with each of `crafted` into a fresh network (each
/// must throw SimError), then `good` itself: a control that loads and,
/// when it `drains`, delivers every packet.
void ExpectRefused(
    const NetworkParams& params, const std::string& good,
    std::initializer_list<std::pair<std::size_t, std::string>> crafted,
    bool drains = true) {
  for (const auto& [at, bytes] : crafted) {
    SCOPED_TRACE(at);
    Network restored(std::shared_ptr<Topology>(MakeMesh(4, 4)), params);
    EXPECT_THROW(LoadNetworkBytes(&restored, Patch(good, at, bytes)),
                 SimError);
  }
  Network restored(std::shared_ptr<Topology>(MakeMesh(4, 4)), params);
  LoadNetworkBytes(&restored, good);
  if (!drains) return;
  for (int t = 0; t < 200; ++t) restored.Step();
  EXPECT_TRUE(restored.Quiescent());
}

constexpr std::uint64_t kPacketTag = 0xfeedfacecafebeefull;

TEST(PacketTableRestore, BufferedFlitsThatDisagreeThrow) {
  NetworkParams params = SmallMeshParams();  // 4 VCs, depth 3
  const auto topo = std::shared_ptr<Topology>(MakeMesh(4, 4));
  FaultConfig faults;
  faults.forced_link_down = {{0, 0}};  // router 0's east link
  params.faults = std::make_shared<const FaultModel>(*topo, faults, 1);
  Network net(topo, params);
  // Routed east first, the whole 3-flit packet waits in one input VC of
  // router 0; the NI has sent it all, so only those flits name it.
  net.EnqueuePacket(0, 15, 3, kPacketTag);
  for (int t = 0; t < 6; ++t) net.Step();
  const std::string good = NetworkBytes(net);
  const std::vector<std::size_t> tags = FindAll(good, Le(kPacketTag, 8));
  ASSERT_EQ(tags.size(), 3u);
  const std::size_t second = tags[1] - kFlitUserTag;
  const std::size_t tail = tags[2] - kFlitUserTag;
  // The east link stays down, so the control loads but cannot drain.
  ExpectRefused(params, good,
                {{second + kFlitCreated, Le(99, 8)},
                 {tail + kFlitUserTag, Le(kPacketTag + 1, 8)},
                 {second + 12, Le(14, 4)}},  // another destination
                /*drains=*/false);
}

TEST(PacketTableRestore, WheelAndBufferedFlitsThatDisagreeThrow) {
  NetworkParams params = SmallMeshParams();
  params.router.speculative_sa = false;  // VA now, SA next cycle
  Network net(std::shared_ptr<Topology>(MakeMesh(4, 4)), params);
  // After two Steps the head waits in router 0 and the tail is on the
  // injection link; the NI is done with the packet.
  net.EnqueuePacket(0, 15, 2, kPacketTag);
  net.Step();
  net.Step();
  const std::string good = NetworkBytes(net);
  const std::vector<std::size_t> tags = FindAll(good, Le(kPacketTag, 8));
  ASSERT_EQ(tags.size(), 2u);  // the wheel is stored before the routers
  const std::size_t wheel = tags[0] - kFlitUserTag;
  const std::size_t buffered = tags[1] - kFlitUserTag;
  ExpectRefused(params, good,
                {{buffered + kFlitCreated, Le(99, 8)},
                 {buffered + kFlitInjected, Le(7, 8)},
                 {wheel + kFlitUserTag, Le(1, 8)}});
}

TEST(PacketTableRestore, SeqOutsideThePacketThrows) {
  const NetworkParams params = SmallMeshParams();
  Network net(std::shared_ptr<Topology>(MakeMesh(4, 4)), params);
  net.EnqueuePacket(0, 15, 1, kPacketTag);
  net.Step();  // the lone flit is on the injection link
  const std::string good = NetworkBytes(net);
  const std::size_t flit = FindOnce(good, Le(kPacketTag, 8)) - kFlitUserTag;
  ExpectRefused(params, good,
                {{flit + kFlitSeq, Le(1, 2)},
                 {flit + kFlitSeq, Le(0xffff, 2)},
                 {flit + kFlitSeq + 2, Le(0, 2)}});  // a 0-flit packet
}

TEST(PacketTableRestore, TypeThatContradictsSeqAndSizeThrows) {
  NetworkParams params = SmallMeshParams();
  params.router.speculative_sa = false;
  for (const int steps : {1, 2}) {
    SCOPED_TRACE(steps == 1 ? "on a link" : "in a buffer");
    Network net(std::shared_ptr<Topology>(MakeMesh(4, 4)), params);
    net.EnqueuePacket(0, 15, 1, kPacketTag);
    for (int t = 0; t < steps; ++t) net.Step();
    const std::string good = NetworkBytes(net);
    const std::size_t flit =
        FindOnce(good, Le(kPacketTag, 8)) - kFlitUserTag;
    ASSERT_EQ(good[flit + kFlitType],
              static_cast<char>(FlitType::kHeadTail));
    ExpectRefused(
        params, good,
        {{flit + kFlitType, Le(static_cast<int>(FlitType::kHead), 1)},
         {flit + kFlitType, Le(static_cast<int>(FlitType::kBody), 1)},
         {flit + kFlitType, Le(static_cast<int>(FlitType::kTail), 1)}});
  }
}

TEST(PacketTableRestore, TransmissionThatDisagreesWithItsFlitsThrows) {
  const NetworkParams params = SmallMeshParams();
  Network net(std::shared_ptr<Topology>(MakeMesh(4, 4)), params);
  const PacketId id = net.EnqueuePacket(0, 15, 4, kPacketTag);
  net.Step();  // flit 0 is on the injection link; the NI sends the rest
  const std::string good = NetworkBytes(net);
  // The transmission: id u64, dst, size, sent i32, created, injected,
  // user_tag u64, route_out, vc, msg_class i32.
  const std::size_t tx =
      FindOnce(good, Le(id, 8) + Le(15, 4) + Le(4, 4) + Le(1, 4));
  const std::size_t flit = FindAll(good, Le(kPacketTag, 8))[0] - kFlitUserTag;
  ASSERT_LT(flit, tx);  // the wheel is stored before the NIs
  ExpectRefused(params, good,
                {{tx + 8, Le(14, 4)},               // destination
                 {tx + 12, Le(5, 4)},               // size
                 {tx + 20, Le(3, 8)},               // created
                 {tx + 28, Le(kNeverCycle, 8)},     // injected
                 {tx + 36, Le(kPacketTag - 1, 8)},  // user tag
                 // A tail flit (type, then seq 3) on the link while the NI
                 // still sends the packet: the packet would end twice.
                 {flit + kFlitType,
                  Le(static_cast<int>(FlitType::kTail), 1) + Le(3, 2)}});
}

TEST(CraftedInput, InflatedTelemetryCountsThrow) {
  // A collector section with no router blocks: the window count, then
  // (after an empty window list) the window width, seven more scalars and
  // the trace count.
  const auto section = [](std::uint32_t windows, std::uint32_t trace,
                          std::uint64_t width = 1) {
    SnapshotWriter w;
    w.BeginSection("telemetry");
    w.U32(0);  // router blocks
    w.U32(windows);
    w.U64(width);
    for (int i = 0; i < 7; ++i) w.U64(1);  // start, totals
    w.U32(trace);
    w.EndSection();
    return w.Finish(0);
  };
  const auto load = [](const std::string& bytes) {
    TelemetryCollector collector{TelemetryConfig{}};
    SnapshotReader r(bytes);
    r.OpenSection("telemetry");
    StateArchive::Load(r, collector);
    r.CloseSection();
  };
  EXPECT_THROW(load(section(0xffffffffu, 0)), SimError);
  EXPECT_THROW(load(section(0, 0xffffffffu)), SimError);
  // A zero-width window would never close: Tick would spin forever.
  EXPECT_THROW(load(section(0, 0, 0)), SimError);
  load(section(0, 0));  // control
}

TEST(CraftedInput, MismatchedHistogramBucketsThrow) {
  NetworkSimConfig config =
      ShortConfig(TopologyKind::kMesh, AllocScheme::kVix);
  const std::string path = TempPath("histogram.ckpt");
  config.checkpoint_path = path;
  config.checkpoint_every = 700;
  (void)RunNetworkSim(config);
  const std::string good = Slurp(path);
  // The "sim" section opens the file. Its latency histogram follows the
  // resume cycle, the RNG (4 u64), the injector name ("bernoulli"), two
  // running stats (6 x 8 bytes each) and the histogram's total; the
  // length of its bucket vector (4096 buckets plus overflow) is next.
  const std::size_t at =
      8 + 4 + 8 + 4 + 4 + 3 + 8 + 8 + 4 * 8 + (8 + 9) + 2 * 48 + 8;
  ASSERT_EQ(good.substr(at, 8), Le(4097, 8));
  Spit(path, Patch(good, at, Le(1, 8)));
  NetworkSimConfig restore = config;
  restore.checkpoint_path.clear();
  restore.checkpoint_every = 0;
  restore.restore_path = path;
  EXPECT_THROW(RunNetworkSim(restore), SimError);
  std::remove(path.c_str());
}

/// The bytes of a freshly built allocator's state, alone in a section.
std::string AllocatorBytes(const SwitchAllocator& alloc) {
  SnapshotWriter w;
  w.BeginSection("alloc");
  StateArchive::Save(w, alloc);
  w.EndSection();
  return w.Finish(0);
}

void LoadAllocatorBytes(SwitchAllocator* alloc, const std::string& bytes) {
  SnapshotReader r(bytes);
  r.OpenSection("alloc");
  StateArchive::Load(r, *alloc);
  r.CloseSection();
}

/// Offset of the first element of the `k`-th VecI32 at the start of an
/// "alloc" section whose vectors before it hold `lens` elements.
std::size_t AllocVecAt(std::initializer_list<std::size_t> lens) {
  std::size_t at = 8 + 4 + 8 + 4 + 4 + 5 + 8;  // frame, section "alloc"
  for (const std::size_t n : lens) at += 8 + 4 * n;
  return at + 8;
}

SwitchGeometry FivePortGeometry() {
  SwitchGeometry g;
  g.num_inports = 5;
  g.num_outports = 5;
  g.num_vcs = 4;
  return g;
}

TEST(CraftedInput, OutOfRangeIslipPointersThrow) {
  const SwitchGeometry g = FivePortGeometry();
  auto alloc = MakeSwitchAllocator(AllocScheme::kIslip, g,
                                   ArbiterKind::kRoundRobin, 1);
  const std::string good = AllocatorBytes(*alloc);
  // grant pointers (per output), accept pointers (per input), then the
  // per-(input, output) VC pointers.
  const struct {
    const char* what;
    std::size_t at;
    std::uint64_t value;
  } crafted[] = {
      {"negative grant pointer", AllocVecAt({}), 0xffffffffu},
      {"grant pointer", AllocVecAt({}) + 4, 5},
      {"negative accept pointer", AllocVecAt({5}), 0xffffffffu},
      {"accept pointer", AllocVecAt({5}) + 8, 5},
      {"VC pointer", AllocVecAt({5, 5}), 4},
  };
  for (const auto& c : crafted) {
    SCOPED_TRACE(c.what);
    EXPECT_THROW(LoadAllocatorBytes(alloc.get(),
                                    Patch(good, c.at, Le(c.value, 4))),
                 SimError);
  }
  LoadAllocatorBytes(alloc.get(), good);  // control
}

TEST(CraftedInput, OutOfRangePacketChainingStateThrows) {
  const SwitchGeometry g = FivePortGeometry();
  auto alloc = MakeSwitchAllocator(AllocScheme::kPacketChaining, g,
                                   ArbiterKind::kRoundRobin, 1);
  const std::string good = AllocatorBytes(*alloc);
  // The chain per output (an input, or -1), then the per-(input, output)
  // VC pointers.
  const struct {
    const char* what;
    std::size_t at;
    std::uint64_t value;
  } crafted[] = {
      {"chain input", AllocVecAt({}), 5},
      {"negative chain input", AllocVecAt({}) + 4, 0xfffffffeu},
      {"chain VC pointer", AllocVecAt({5}), 4},
      {"negative chain VC pointer", AllocVecAt({5}) + 4, 0xffffffffu},
  };
  for (const auto& c : crafted) {
    SCOPED_TRACE(c.what);
    EXPECT_THROW(LoadAllocatorBytes(alloc.get(),
                                    Patch(good, c.at, Le(c.value, 4))),
                 SimError);
  }
  LoadAllocatorBytes(alloc.get(), good);  // control
}

// ---------------------------------------------------------------------------
// Sleeping routers: a network that skips idle routers must checkpoint
// byte for byte like one that steps every router every cycle. Attaching
// telemetry keeps every router awake, which makes it the reference.

class SleepingRoutersTest : public ::testing::TestWithParam<AllocScheme> {};

TEST_P(SleepingRoutersTest, CheckpointsMatchAnAlwaysAwakeNetwork) {
  const AllocScheme scheme = GetParam();
  NetworkParams params;
  params.router.radix = 5;
  params.router.num_vcs = 6;
  params.router.buffer_depth = 5;
  params.router.scheme = scheme;
  params.router.vc_policy = RouterConfig::DefaultPolicyFor(scheme);
  const auto make_net = [&](TelemetryCollector* telemetry) {
    NetworkParams p = params;
    p.telemetry = telemetry;
    return std::make_unique<Network>(
        std::shared_ptr<Topology>(MakeMesh(8, 8)), p);
  };
  TelemetryConfig tc;
  tc.enabled = true;
  TelemetryCollector collector(tc);
  auto awake = make_net(&collector);
  auto sleepy = make_net(nullptr);

  Rng rng(23);
  const auto step_both = [&](Cycle cycles) {
    for (Cycle t = 0; t < cycles; ++t) {
      for (NodeId n = 0; n < sleepy->NumNodes(); ++n) {
        if (!rng.NextBool(0.01)) continue;
        const auto dst =
            static_cast<NodeId>(rng.NextBounded(sleepy->NumNodes()));
        awake->EnqueuePacket(n, dst, 4);
        sleepy->EnqueuePacket(n, dst, 4);
      }
      awake->Step();
      sleepy->Step();
    }
  };
  Cycle cleared_at = 0;
  for (int round = 0; round < 6; ++round) {
    step_both(round == 3 ? 1'000 : 150);  // one long idle-heavy stretch
    ASSERT_EQ(NetworkBytes(*sleepy), NetworkBytes(*awake)) << "round "
                                                           << round;
    EXPECT_EQ(sleepy->TotalActivity().cycles,
              static_cast<std::uint64_t>(sleepy->NumRouters()) *
                  (sleepy->now() - cleared_at));
    if (round == 2) {
      sleepy->ClearActivity();
      awake->ClearActivity();
      cleared_at = sleepy->now();
    }
  }

  // A checkpoint taken while most routers sleep re-serializes identically
  // and resumes bitwise.
  const std::string ckpt = NetworkBytes(*sleepy);
  auto restored = make_net(nullptr);
  LoadNetworkBytes(restored.get(), ckpt);
  EXPECT_EQ(NetworkBytes(*restored), ckpt);
  for (Cycle t = 0; t < 400; ++t) {
    for (NodeId n = 0; n < sleepy->NumNodes(); ++n) {
      if (!rng.NextBool(0.01)) continue;
      const auto dst = static_cast<NodeId>(rng.NextBounded(sleepy->NumNodes()));
      sleepy->EnqueuePacket(n, dst, 4);
      restored->EnqueuePacket(n, dst, 4);
    }
    sleepy->Step();
    restored->Step();
  }
  EXPECT_EQ(NetworkBytes(*restored), NetworkBytes(*sleepy));
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SleepingRoutersTest,
    ::testing::Values(AllocScheme::kInputFirst, AllocScheme::kWavefront,
                      AllocScheme::kAugmentingPath, AllocScheme::kVix,
                      AllocScheme::kVixIdeal, AllocScheme::kPacketChaining,
                      AllocScheme::kIslip, AllocScheme::kSparoflo,
                      AllocScheme::kSerenade),
    [](const ::testing::TestParamInfo<AllocScheme>& info) {
      std::string name = ToString(info.param);
      for (char& ch : name) {
        if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
      }
      return name;
    });

// ---------------------------------------------------------------------------
// Slot reuse: past the mesh knee thousands of packets have come and gone by
// mid-measure, so the packet table hands out recycled slots, and a restore
// interns the live packets into fresh ones in stored order. Slot numbers
// must leak into neither the results nor the stored bytes.

class SlotReuseTest : public ::testing::TestWithParam<AllocScheme> {};

/// The payload of section `name` of snapshot file `file` (the layout
/// Patch walks).
std::string SectionPayload(const std::string& file, const std::string& name) {
  const auto u32 = [&](std::size_t pos) {
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i) {
      v = (v << 8) | static_cast<unsigned char>(file[pos + i]);
    }
    return v;
  };
  std::size_t pos = 8 + 4 + 8;  // magic, version, fingerprint
  const std::uint32_t sections = u32(pos);
  pos += 4;
  for (std::uint32_t i = 0; i < sections; ++i) {
    const std::uint32_t name_len = u32(pos);
    const std::string section = file.substr(pos + 4, name_len);
    pos += 4 + name_len;
    const std::size_t len = u32(pos);
    if (section == name) return file.substr(pos + 8, len);
    pos += 8 + len + 8;  // length, payload, checksum
  }
  ADD_FAILURE() << "no section " << name;
  return "";
}

TEST_P(SlotReuseTest, SaturatedRestoreMatchesAndResavesTheSameBytes) {
  const NetworkSimConfig config =
      SaturatedConfig(TopologyKind::kMesh, GetParam());
  const NetworkSimResult straight = RunNetworkSim(config);

  const std::string path =
      TempPath("slot_reuse_" + ToString(GetParam()) + ".ckpt");
  NetworkSimConfig saving = config;
  saving.checkpoint_path = path;
  saving.checkpoint_every = 1'000;  // one checkpoint, mid-measure
  ExpectResultsIdentical(straight, RunNetworkSim(saving));
  NetworkSimConfig resuming = config;
  resuming.restore_path = path;
  ExpectResultsIdentical(straight, RunNetworkSim(resuming));

  // A fresh network loaded from the checkpoint saves the same bytes.
  const std::string file = Slurp(path);
  std::shared_ptr<Topology> topology = MakeTopology64(config.topology);
  NetworkParams params;
  params.router.radix = topology->Radix();
  params.router.num_vcs = config.num_vcs;
  params.router.buffer_depth = config.buffer_depth;
  params.router.scheme = config.scheme;
  params.router.vc_policy = RouterConfig::DefaultPolicyFor(config.scheme);
  Network net(topology, params);
  SnapshotReader r(file);
  r.OpenSection("network");
  net.LoadState(r);
  r.CloseSection();
  EXPECT_EQ(net.now(), 1'000u);
  EXPECT_EQ(SectionPayload(NetworkBytes(net), "network"),
            SectionPayload(file, "network"));
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    BenchmarkSchemes, SlotReuseTest,
    ::testing::Values(AllocScheme::kInputFirst, AllocScheme::kWavefront,
                      AllocScheme::kAugmentingPath, AllocScheme::kVix,
                      AllocScheme::kSerenade),
    [](const ::testing::TestParamInfo<AllocScheme>& info) {
      std::string name = ToString(info.param);
      for (char& ch : name) {
        if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
      }
      return name;
    });

}  // namespace
}  // namespace vixnoc
