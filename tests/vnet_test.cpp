// Virtual networks (message classes): VC partition isolation.
#include <gtest/gtest.h>

#include <memory>

#include "app/app_sim.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "network/network.hpp"
#include "router/router.hpp"
#include "router_slots.hpp"
#include "topology/topology.hpp"

namespace vixnoc {
namespace {

class PortIsDestRouting final : public RoutingAlgorithm {
 public:
  PortId Route(RouterId, NodeId dst) const override { return dst % 5; }
  PortDimension DimensionOf(PortId port) const override {
    if (port < 2) return PortDimension::kX;
    if (port < 4) return PortDimension::kY;
    return PortDimension::kLocal;
  }
};

std::vector<OutputLinkInfo> TestLinks() {
  std::vector<OutputLinkInfo> links(5);
  for (PortId p = 0; p < 4; ++p) links[p] = {1, p, kInvalidNode};
  links[4] = {-1, kInvalidPort, 0};
  return links;
}

Flit ClassFlit(PacketId id, VcId vc, int msg_class, PortId route_out) {
  Flit f;
  f.packet_id = id;
  f.src = 1;
  f.dst = route_out;
  f.type = FlitType::kHeadTail;
  f.packet_size = 1;
  f.vc = vc;
  f.route_out = route_out;
  f.msg_class = static_cast<std::uint8_t>(msg_class);
  return f;
}

TEST(Vnet, RouterAssignsOutputVcWithinClass) {
  RouterConfig config;
  config.radix = 5;
  config.num_vcs = 6;
  config.buffer_depth = 3;
  config.num_message_classes = 2;  // class 0: VCs 0-2, class 1: VCs 3-5
  PortIsDestRouting routing;
  Router r(0, config, TestLinks(), &routing);

  RouterSlots out(r);
  r.AcceptFlit(0, ClassFlit(1, 0, /*msg_class=*/1, /*route_out=*/2));
  out.Step(0);
  ASSERT_EQ(out.sent(), 1u);
  EXPECT_GE(out.flit(0).vc, 3);  // class 1 VCs only

  r.AcceptFlit(1, ClassFlit(2, 0, /*msg_class=*/0, /*route_out=*/3));
  out.Step(1);
  ASSERT_EQ(out.sent(), 1u);
  EXPECT_LT(out.flit(0).vc, 3);  // class 0 VCs only
}

TEST(Vnet, ClassStallsWhenItsVcsBusyEvenIfOthersFree) {
  RouterConfig config;
  config.radix = 5;
  config.num_vcs = 2;  // one VC per class
  config.buffer_depth = 1;
  config.num_message_classes = 2;
  PortIsDestRouting routing;
  Router r(0, config, TestLinks(), &routing);
  RouterSlots out(r);

  // Two class-1 packets from different ports to the same output: the
  // second must wait for VC 1 even though VC 0 (class 0) is free.
  r.AcceptFlit(0, ClassFlit(1, 1, 1, 2));
  r.AcceptFlit(1, ClassFlit(2, 1, 1, 2));
  out.Step(0);
  ASSERT_EQ(out.sent(), 1u);
  EXPECT_EQ(out.flit(0).vc, 1);
  // The tail released the VC at send time (non-atomic), so the second
  // packet proceeds next cycle onto the SAME class-1 VC, never VC 0.
  r.AcceptCredit(2, 1);
  out.Step(1);
  ASSERT_EQ(out.sent(), 1u);
  EXPECT_EQ(out.flit(0).vc, 1);
}

TEST(Vnet, NetworkConservationWithTwoClasses) {
  std::shared_ptr<Topology> topo = MakeTopology64(TopologyKind::kMesh);
  NetworkParams params;
  params.router.radix = 5;
  params.router.num_vcs = 6;
  params.router.buffer_depth = 5;
  params.router.num_message_classes = 2;
  Network net(topo, params);

  Rng rng(8);
  std::uint64_t sent = 0, got = 0;
  net.SetEjectCallback([&](const PacketRecord&) { ++got; });
  for (int t = 0; t < 2000; ++t) {
    for (NodeId n = 0; n < 64; ++n) {
      if (rng.NextBool(0.04)) {
        net.EnqueuePacket(n, static_cast<NodeId>(rng.NextBounded(64)), 4, 0,
                          static_cast<int>(rng.NextBounded(2)));
        ++sent;
      }
    }
    net.Step();
  }
  int guard = 0;
  while (!net.Quiescent()) {
    net.Step();
    ASSERT_LT(++guard, 20'000);
  }
  EXPECT_EQ(got, sent);
}

TEST(Vnet, VixWithTwoClassesStillBeatsBaseline) {
  auto run = [](AllocScheme scheme) {
    std::shared_ptr<Topology> topo = MakeTopology64(TopologyKind::kMesh);
    NetworkParams params;
    params.router.radix = 5;
    params.router.num_vcs = 6;
    params.router.buffer_depth = 5;
    params.router.scheme = scheme;
    params.router.vc_policy = RouterConfig::DefaultPolicyFor(scheme);
    params.router.num_message_classes = 2;
    Network net(topo, params);
    Rng rng(9);
    std::uint64_t got = 0;
    net.SetEjectCallback([&](const PacketRecord&) { ++got; });
    for (int t = 0; t < 8000; ++t) {
      for (NodeId n = 0; n < 64; ++n) {
        if (rng.NextBool(0.25)) {
          net.EnqueuePacket(n, static_cast<NodeId>(rng.NextBounded(64)), 4,
                            0, static_cast<int>(rng.NextBounded(2)));
        }
      }
      net.Step();
    }
    return got;
  };
  EXPECT_GT(run(AllocScheme::kVix), run(AllocScheme::kInputFirst) * 1.05);
}

TEST(Vnet, AppSimRunsWithRequestReplyNetworks) {
  app::AppSimConfig config;
  config.num_message_classes = 2;
  config.warmup = 2'000;
  config.measure = 6'000;
  const auto cores = app::ExpandMix(app::PaperMixes()[4]);
  const auto r = RunAppSim(config, cores);
  EXPECT_GT(r.aggregate_ipc, 1.0);
  EXPECT_LE(r.aggregate_ipc, 64.0);
  EXPECT_GT(r.total_requests, 1000u);
}

TEST(Vnet, InvalidClassCountRejected) {
  RouterConfig config;
  config.radix = 5;
  config.num_vcs = 6;
  config.buffer_depth = 3;
  config.num_message_classes = 4;  // 6 % 4 != 0
  PortIsDestRouting routing;
  EXPECT_THROW(Router(0, config, TestLinks(), &routing), SimError);
}

}  // namespace
}  // namespace vixnoc
