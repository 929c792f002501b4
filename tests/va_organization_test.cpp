// Greedy vs separable-arbitrated VC allocation.
#include <gtest/gtest.h>

#include <vector>

#include "router/router.hpp"
#include "router_slots.hpp"
#include "sim/network_sim.hpp"

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

FlitRecord HeadTail(PacketId id, VcId vc, PortId route_out) {
  FlitRecord f;
  f.packet_id = id;
  f.src = 1;
  f.dst = route_out;
  f.type = FlitType::kHeadTail;
  f.packet_size = 1;
  f.vc = vc;
  f.route_out = route_out;
  return f;
}

RouterConfig Config(VaOrganization org) {
  RouterConfig c;
  c.radix = 5;
  c.num_vcs = 2;
  c.buffer_depth = 3;
  c.va_organization = org;
  return c;
}

TEST(VaOrganization, GreedyResolvesConflictSameCycle) {
  // Two heads prefer the same output VC (equal credits -> both prefer VC
  // 0). Greedy VA lets the loser take VC 1 in the same cycle: both flits
  // traverse together (distinct ports, distinct output VCs).
  PortIsDestRouting routing;
  Router r(0, Config(VaOrganization::kGreedyRotating), TestLinks(),
           &routing);
  RouterSlots out(r);
  out.Accept(0, HeadTail(1, 0, 2));
  out.Accept(1, HeadTail(2, 0, 3));  // different outputs: no SA conflict
  out.Step(0);
  EXPECT_EQ(out.sent(), 2u);
}

TEST(VaOrganization, SeparableLoserWaitsACycle) {
  // Both heads want output 2 and (same credits) prefer output VC 0; under
  // separable arbitration only one gets a VC this cycle. SA then serializes
  // them on the port anyway; the observable difference is the VA grant
  // count on cycle 0.
  PortIsDestRouting routing;
  Router r(0, Config(VaOrganization::kSeparableArbitrated), TestLinks(),
           &routing);
  RouterSlots out(r);
  out.Accept(0, HeadTail(1, 0, 2));
  out.Accept(1, HeadTail(2, 0, 2));
  out.Step(0);
  EXPECT_EQ(r.activity().va_grants, 1u);  // one winner, one retry
  out.Step(1);
  out.Step(2);
  EXPECT_EQ(r.activity().va_grants, 2u);  // loser got VC 1 next cycle
}

TEST(VaOrganization, SeparableStillDrainsEverything) {
  NetworkSimConfig c;
  c.va_organization = VaOrganization::kSeparableArbitrated;
  c.injection_rate = 0.06;
  c.warmup = 2'000;
  c.measure = 6'000;
  c.drain = 2'000;
  const auto r = RunNetworkSim(c);
  EXPECT_NEAR(r.accepted_ppc, 0.06, 0.005);
  EXPECT_FALSE(r.saturated);
}

TEST(VaOrganization, SeparableCostsLittleAtSaturation) {
  auto run = [](VaOrganization org) {
    NetworkSimConfig c;
    c.va_organization = org;
    c.injection_rate = 0.25;
    c.warmup = 3'000;
    c.measure = 8'000;
    c.drain = 1'000;
    return RunNetworkSim(c).accepted_ppc;
  };
  const double greedy = run(VaOrganization::kGreedyRotating);
  const double separable = run(VaOrganization::kSeparableArbitrated);
  EXPECT_LE(separable, greedy * 1.02);
  EXPECT_GE(separable, greedy * 0.90);
}

TEST(VaOrganization, VixGainSurvivesRealisticVa) {
  auto run = [](AllocScheme scheme) {
    NetworkSimConfig c;
    c.scheme = scheme;
    c.va_organization = VaOrganization::kSeparableArbitrated;
    c.injection_rate = 0.25;
    c.warmup = 3'000;
    c.measure = 8'000;
    c.drain = 1'000;
    return RunNetworkSim(c).accepted_ppc;
  };
  EXPECT_GT(run(AllocScheme::kVix), run(AllocScheme::kInputFirst) * 1.08);
}

}  // namespace
}  // namespace vixnoc
