#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "network/network.hpp"
#include "snapshot/snapshot.hpp"
#include "topology/topology.hpp"

namespace vixnoc {
namespace {

NetworkParams DefaultParams(const Topology& topo,
                            AllocScheme scheme = AllocScheme::kInputFirst,
                            int vcs = 6, int depth = 5) {
  NetworkParams p;
  p.router.radix = topo.Radix();
  p.router.num_vcs = vcs;
  p.router.buffer_depth = depth;
  p.router.scheme = scheme;
  p.router.vc_policy = RouterConfig::DefaultPolicyFor(scheme);
  return p;
}

std::unique_ptr<Network> MakeNet(TopologyKind kind,
                                 AllocScheme scheme = AllocScheme::kInputFirst,
                                 int vcs = 6, int depth = 5) {
  std::shared_ptr<Topology> topo = MakeTopology64(kind);
  return std::make_unique<Network>(topo, DefaultParams(*topo, scheme, vcs,
                                                       depth));
}

void RunCycles(Network& net, Cycle n) {
  for (Cycle t = 0; t < n; ++t) net.Step();
}

TEST(Network, StartsQuiescent) {
  auto net = MakeNet(TopologyKind::kMesh);
  EXPECT_TRUE(net->Quiescent());
  RunCycles(*net, 10);
  EXPECT_TRUE(net->Quiescent());
  EXPECT_EQ(net->now(), 10u);
}

TEST(Network, DeliversSinglePacket) {
  auto net = MakeNet(TopologyKind::kMesh);
  std::vector<PacketRecord> delivered;
  net->SetEjectCallback([&](const PacketRecord& r) { delivered.push_back(r); });
  const PacketId id = net->EnqueuePacket(0, 63, 4);
  RunCycles(*net, 200);
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0].id, id);
  EXPECT_EQ(delivered[0].src, 0);
  EXPECT_EQ(delivered[0].dst, 63);
  EXPECT_EQ(delivered[0].size_flits, 4);
  EXPECT_TRUE(net->Quiescent());
}

TEST(Network, ZeroLoadLatencyMatchesPipelineModel) {
  auto net = MakeNet(TopologyKind::kMesh);
  std::vector<PacketRecord> delivered;
  net->SetEjectCallback([&](const PacketRecord& r) { delivered.push_back(r); });
  // 0 -> 1: one router hop, so the head visits 2 routers.
  // head: 1 (NI link) + 2 routers x (SA..arrival = 3 cycles) = 7 cycles;
  // tail of a 4-flit packet adds 3 serialization cycles.
  net->EnqueuePacket(0, 1, 4);
  RunCycles(*net, 50);
  ASSERT_EQ(delivered.size(), 1u);
  const Cycle latency = delivered[0].ejected - delivered[0].created;
  EXPECT_EQ(latency, 10u);
}

TEST(Network, LatencyScalesWithHops) {
  auto net = MakeNet(TopologyKind::kMesh);
  std::vector<PacketRecord> delivered;
  net->SetEjectCallback([&](const PacketRecord& r) { delivered.push_back(r); });
  net->EnqueuePacket(0, 63, 1);  // 14 router hops, 15 routers
  RunCycles(*net, 200);
  ASSERT_EQ(delivered.size(), 1u);
  // 1 + 15*3 = 46 cycles for a single-flit packet.
  EXPECT_EQ(delivered[0].ejected - delivered[0].created, 46u);
}

TEST(Network, SelfTrafficLoopsThroughLocalRouter) {
  auto net = MakeNet(TopologyKind::kMesh);
  std::vector<PacketRecord> delivered;
  net->SetEjectCallback([&](const PacketRecord& r) { delivered.push_back(r); });
  net->EnqueuePacket(5, 5, 2);
  RunCycles(*net, 50);
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0].dst, 5);
}

TEST(Network, CountersTrackInjectionsAndEjections) {
  auto net = MakeNet(TopologyKind::kMesh);
  net->EnqueuePacket(3, 42, 4);
  RunCycles(*net, 200);
  EXPECT_EQ(net->counters(3).packets_injected, 1u);
  EXPECT_EQ(net->counters(3).flits_injected, 4u);
  EXPECT_EQ(net->counters(3).packets_delivered, 1u);
  EXPECT_EQ(net->counters(42).packets_ejected, 1u);
  EXPECT_EQ(net->counters(42).flits_ejected, 4u);
  net->ClearCounters();
  EXPECT_EQ(net->counters(3).packets_injected, 0u);
}

struct ConservationCase {
  TopologyKind topology;
  AllocScheme scheme;
};

class ConservationTest : public ::testing::TestWithParam<ConservationCase> {};

TEST_P(ConservationTest, NoFlitEverLostUnderRandomLoad) {
  const auto [kind, scheme] = GetParam();
  auto net = MakeNet(kind, scheme);
  Rng rng(2024);
  std::uint64_t enqueued_packets = 0;
  std::uint64_t delivered_packets = 0;
  std::map<PacketId, int> outstanding;
  net->SetEjectCallback([&](const PacketRecord& r) {
    ++delivered_packets;
    ASSERT_EQ(outstanding.count(r.id), 1u) << "duplicate or unknown packet";
    outstanding.erase(r.id);
  });
  for (Cycle t = 0; t < 3000; ++t) {
    for (NodeId n = 0; n < 64; ++n) {
      if (rng.NextBool(0.02)) {
        const auto dst = static_cast<NodeId>(rng.NextBounded(64));
        const int size = 1 + static_cast<int>(rng.NextBounded(5));
        const PacketId id = net->EnqueuePacket(n, dst, size);
        outstanding[id] = size;
        ++enqueued_packets;
      }
    }
    net->Step();
  }
  // Drain: no deadlock, everything arrives.
  Cycle guard = 0;
  while (!net->Quiescent()) {
    net->Step();
    ASSERT_LT(++guard, 20'000u) << "network failed to drain (deadlock?)";
  }
  EXPECT_EQ(delivered_packets, enqueued_packets);
  EXPECT_TRUE(outstanding.empty());
}

TEST_P(ConservationTest, CreditsFullyRestoredAfterDrain) {
  const auto [kind, scheme] = GetParam();
  auto net = MakeNet(kind, scheme);
  Rng rng(7);
  for (Cycle t = 0; t < 1000; ++t) {
    for (NodeId n = 0; n < 64; ++n) {
      if (rng.NextBool(0.05)) {
        net->EnqueuePacket(n, static_cast<NodeId>(rng.NextBounded(64)), 4);
      }
    }
    net->Step();
  }
  Cycle guard = 0;
  while (!net->Quiescent()) {
    net->Step();
    ASSERT_LT(++guard, 20'000u);
  }
  // Extra settling for in-flight credits.
  RunCycles(*net, 10);
  const auto& topo = net->topology();
  for (RouterId r = 0; r < net->NumRouters(); ++r) {
    const auto links = topo.LinksFor(r);
    for (PortId o = 0; o < topo.Radix(); ++o) {
      if (links[o].neighbor < 0) continue;  // ejection/unconnected
      for (VcId vc = 0; vc < net->params().router.num_vcs; ++vc) {
        EXPECT_EQ(net->router(r).CreditsFor(o, vc),
                  net->params().router.buffer_depth)
            << "router " << r << " port " << o << " vc " << vc;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ConservationTest,
    ::testing::Values(
        ConservationCase{TopologyKind::kMesh, AllocScheme::kInputFirst},
        ConservationCase{TopologyKind::kMesh, AllocScheme::kVix},
        ConservationCase{TopologyKind::kMesh, AllocScheme::kVixIdeal},
        ConservationCase{TopologyKind::kMesh, AllocScheme::kWavefront},
        ConservationCase{TopologyKind::kMesh, AllocScheme::kAugmentingPath},
        ConservationCase{TopologyKind::kMesh, AllocScheme::kPacketChaining},
        ConservationCase{TopologyKind::kMesh, AllocScheme::kIslip},
        ConservationCase{TopologyKind::kCMesh, AllocScheme::kInputFirst},
        ConservationCase{TopologyKind::kCMesh, AllocScheme::kVix},
        ConservationCase{TopologyKind::kFBfly, AllocScheme::kInputFirst},
        ConservationCase{TopologyKind::kFBfly, AllocScheme::kVix}),
    [](const ::testing::TestParamInfo<ConservationCase>& info) {
      std::string name = ToString(info.param.topology) + "_" +
                         ToString(info.param.scheme);
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

TEST(Network, FlitsOfPacketArriveContiguouslyPerVc) {
  // Per-packet flit order is guaranteed; verify via per-packet seq checks.
  auto net = MakeNet(TopologyKind::kMesh);
  std::vector<PacketRecord> delivered;
  net->SetEjectCallback([&](const PacketRecord& r) { delivered.push_back(r); });
  Rng rng(5);
  std::uint64_t sent = 0;
  for (Cycle t = 0; t < 500; ++t) {
    if (t % 3 == 0) {
      net->EnqueuePacket(static_cast<NodeId>(rng.NextBounded(64)),
                         static_cast<NodeId>(rng.NextBounded(64)), 4);
      ++sent;
    }
    net->Step();
  }
  Cycle guard = 0;
  while (!net->Quiescent()) {
    net->Step();
    ASSERT_LT(++guard, 20'000u);
  }
  // Every packet completed exactly once (the callback fires on tails only;
  // a mis-ordered flit stream would break reassembly counts).
  EXPECT_EQ(delivered.size(), sent);
}

TEST(Network, BackpressurePropagatesToSourceQueues) {
  // A tiny network config saturates instantly; the source queue must grow
  // rather than flits being dropped.
  auto net = MakeNet(TopologyKind::kMesh, AllocScheme::kInputFirst,
                     /*vcs=*/2, /*depth=*/2);
  for (Cycle t = 0; t < 300; ++t) {
    net->EnqueuePacket(0, 63, 8);  // one long packet per cycle: way over BW
    net->Step();
  }
  EXPECT_GT(net->SourceQueueLength(0), 100u);
  EXPECT_GT(net->TotalSourceQueueFlits(), 800u);
}

TEST(Network, ActivityAggregatesAcrossRouters) {
  auto net = MakeNet(TopologyKind::kMesh);
  net->EnqueuePacket(0, 7, 4);  // 7 hops along the top row
  RunCycles(*net, 200);
  const RouterActivity a = net->TotalActivity();
  // 4 flits x 8 routers touched.
  EXPECT_EQ(a.buffer_writes, 32u);
  EXPECT_EQ(a.xbar_traversals, 32u);
  EXPECT_EQ(a.link_flits, 28u);  // 7 inter-router hops x 4 flits
  net->ClearActivity();
  EXPECT_EQ(net->TotalActivity().buffer_writes, 0u);
}

TEST(Network, DeterministicGivenSeedlessConfig) {
  // Two identical networks fed identical packets step identically.
  auto a = MakeNet(TopologyKind::kMesh, AllocScheme::kVix);
  auto b = MakeNet(TopologyKind::kMesh, AllocScheme::kVix);
  std::vector<Cycle> eject_a, eject_b;
  a->SetEjectCallback([&](const PacketRecord& r) { eject_a.push_back(r.ejected); });
  b->SetEjectCallback([&](const PacketRecord& r) { eject_b.push_back(r.ejected); });
  Rng rng_a(3), rng_b(3);
  for (Cycle t = 0; t < 800; ++t) {
    for (NodeId n = 0; n < 64; ++n) {
      if (rng_a.NextBool(0.05)) {
        a->EnqueuePacket(n, static_cast<NodeId>(rng_a.NextBounded(64)), 4);
      }
      if (rng_b.NextBool(0.05)) {
        b->EnqueuePacket(n, static_cast<NodeId>(rng_b.NextBounded(64)), 4);
      }
    }
    a->Step();
    b->Step();
  }
  EXPECT_EQ(eject_a, eject_b);
}

// One node queues far more packets than it has injection VCs, into
// background traffic, so its NI front waits for a free VC for many cycles
// at a time. Its ejection cycles and final checkpoint bytes are frozen: a
// front that waits must end exactly where one retrying every cycle did,
// including the random policy's draws.
class NiBacklogTest : public ::testing::TestWithParam<
                          std::pair<VcAssignPolicy, std::uint64_t>> {};

TEST_P(NiBacklogTest, BackloggedNodeMatchesFrozenDigest) {
  std::shared_ptr<Topology> topo = MakeTopology64(TopologyKind::kMesh);
  NetworkParams p = DefaultParams(*topo, AllocScheme::kVix);
  p.router.vc_policy = GetParam().first;
  p.router.vc_rng_seed = 21;
  Network net(topo, p);
  std::string log;
  net.SetEjectCallback([&](const PacketRecord& r) {
    log += std::to_string(r.id) + ":" + std::to_string(r.ejected) + ";";
  });
  for (int i = 0; i < 120; ++i) {
    net.EnqueuePacket(27, static_cast<NodeId>((i * 7 + 1) % 64), 8);
  }
  Rng rng(17);
  for (Cycle t = 0; t < 1'500; ++t) {
    for (NodeId n = 0; n < 64; ++n) {
      if (rng.NextBool(0.03)) {
        net.EnqueuePacket(n, static_cast<NodeId>(rng.NextBounded(64)), 4);
      }
    }
    net.Step();
  }
  RunCycles(net, 1'500);
  EXPECT_EQ(net.SourceQueueLength(27), 0u);
  SnapshotWriter w;
  w.BeginSection("network");
  net.SaveState(w);
  w.EndSection();
  const std::string bytes = w.Finish(0);
  const std::uint64_t digest = Fnv1a64(log.data(), log.size()) ^
                               Fnv1a64(bytes.data(), bytes.size());
  EXPECT_EQ(digest, GetParam().second)
      << std::hex << "0x" << digest << "ull";
}

INSTANTIATE_TEST_SUITE_P(
    Policies, NiBacklogTest,
    ::testing::Values(
        std::make_pair(VcAssignPolicy::kRandomFree, 0x6512d6978e5a39c0ull),
        std::make_pair(VcAssignPolicy::kVixDimension,
                       0x39b9728bda5eefaeull)),
    [](const auto& info) {
      return info.param.first == VcAssignPolicy::kRandomFree
                 ? std::string("RandomFree")
                 : std::string("VixDimension");
    });

}  // namespace
}  // namespace vixnoc
