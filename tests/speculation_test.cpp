// Speculative-SA priority masking (Becker & Dally; paper §5).
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

Flit MakeFlit(PacketId id, int seq, int size, VcId vc, PortId route_out) {
  Flit f;
  f.packet_id = id;
  f.src = 1;
  f.dst = route_out;
  f.type = FlitTypeFor(seq, size);
  f.seq = static_cast<std::uint16_t>(seq);
  f.packet_size = static_cast<std::uint16_t>(size);
  f.vc = vc;
  f.route_out = route_out;
  return f;
}

RouterConfig MaskedConfig() {
  RouterConfig c;
  c.radix = 5;
  c.num_vcs = 4;
  c.buffer_depth = 4;
  c.prioritize_nonspeculative = true;
  return c;
}

TEST(Speculation, EstablishedPacketBeatsNewHead) {
  PortIsDestRouting routing;
  Router r(0, MaskedConfig(), TestLinks(), &routing);
  RouterSlots out(r);

  // Cycle 0: a 3-flit packet on port 0 establishes itself toward output 2.
  for (int s = 0; s < 3; ++s) r.AcceptFlit(0, MakeFlit(1, s, 3, 0, 2));
  out.Step(0);
  ASSERT_EQ(out.sent(), 1u);
  EXPECT_EQ(out.flit(0).packet_id, 1u);

  // Cycle 1: a new head on port 1 also wants output 2. It is speculative
  // (VA this cycle); the established packet's body flit must win.
  r.AcceptFlit(1, MakeFlit(2, 0, 1, 0, 2));
  out.Step(1);
  ASSERT_EQ(out.sent(), 1u);
  EXPECT_EQ(out.flit(0).packet_id, 1u);
}

TEST(Speculation, SpeculativeGrantProceedsWhenOutputUncontested) {
  PortIsDestRouting routing;
  Router r(0, MaskedConfig(), TestLinks(), &routing);
  RouterSlots out(r);
  // A lone new head must not be delayed by the masking rule.
  r.AcceptFlit(0, MakeFlit(1, 0, 1, 0, 2));
  out.Step(0);
  EXPECT_EQ(out.sent(), 1u);
}

TEST(Speculation, MaskingCostsLittleThroughput) {
  auto run = [](bool mask) {
    NetworkSimConfig c;
    c.prioritize_nonspeculative = mask;
    c.injection_rate = 0.25;
    c.warmup = 3'000;
    c.measure = 8'000;
    c.drain = 1'000;
    return RunNetworkSim(c).accepted_ppc;
  };
  const double masked = run(true);
  const double unmasked = run(false);
  EXPECT_NEAR(masked, unmasked, unmasked * 0.05);
}

TEST(Speculation, MaskingComposesWithVix) {
  NetworkSimConfig c;
  c.scheme = AllocScheme::kVix;
  c.prioritize_nonspeculative = true;
  c.injection_rate = 0.25;
  c.warmup = 3'000;
  c.measure = 8'000;
  c.drain = 1'000;
  const auto vix = RunNetworkSim(c);
  c.scheme = AllocScheme::kInputFirst;
  const auto base = RunNetworkSim(c);
  EXPECT_GT(vix.accepted_ppc, base.accepted_ppc * 1.05);
}

}  // namespace
}  // namespace vixnoc
