#include <gtest/gtest.h>

#include <vector>

#include "router/router.hpp"
#include "router_slots.hpp"

namespace vixnoc {
namespace {

// Standalone routing stub: a destination node id < radix names the output
// port to take at *every* router, so tests can steer flits precisely.
class PortIsDestRouting final : public RoutingAlgorithm {
 public:
  explicit PortIsDestRouting(int radix) : radix_(radix) {}
  PortId Route(RouterId, NodeId dst) const override {
    return dst % radix_;
  }
  PortDimension DimensionOf(PortId port) const override {
    if (port < 2) return PortDimension::kX;
    if (port < 4) return PortDimension::kY;
    return PortDimension::kLocal;
  }

 private:
  int radix_;
};

// Radix-5 router: ports 0-3 connect to a fictional neighbor router 1
// (mirrored port), port 4 ejects to node 0.
std::vector<OutputLinkInfo> TestLinks() {
  std::vector<OutputLinkInfo> links(5);
  for (PortId p = 0; p < 4; ++p) links[p] = {1, p, kInvalidNode};
  links[4] = {-1, kInvalidPort, 0};
  return links;
}

Flit MakeFlit(PacketId id, int seq, int size, VcId vc, PortId route_out,
              NodeId dst = 0) {
  Flit f;
  f.packet_id = id;
  f.src = 1;
  f.dst = dst;
  f.type = FlitTypeFor(seq, size);
  f.seq = static_cast<std::uint16_t>(seq);
  f.packet_size = static_cast<std::uint16_t>(size);
  f.vc = vc;
  f.route_out = route_out;
  return f;
}

class RouterTest : public ::testing::Test {
 protected:
  RouterConfig Config(AllocScheme scheme = AllocScheme::kInputFirst,
                      int vcs = 4, int depth = 3) {
    RouterConfig c;
    c.radix = 5;
    c.num_vcs = vcs;
    c.buffer_depth = depth;
    c.scheme = scheme;
    c.vc_policy = RouterConfig::DefaultPolicyFor(scheme);
    return c;
  }

  PortIsDestRouting routing_{5};
};

TEST_F(RouterTest, SingleFlitTraversesToEjection) {
  Router r(0, Config(), TestLinks(), &routing_);
  RouterSlots out(r);
  r.AcceptFlit(0, MakeFlit(1, 0, 1, 0, /*route_out=*/4, /*dst=*/4));
  out.Step(0);
  ASSERT_EQ(out.sent(), 1u);
  EXPECT_EQ(out.out_port(0), 4);
  EXPECT_EQ(out.flit(0).packet_id, 1u);
  ASSERT_EQ(out.credits.events.size(), 1u);
  EXPECT_EQ(out.credits.events[0].port, 0);
  EXPECT_EQ(out.credits.events[0].vc, 0);
  EXPECT_TRUE(r.Quiescent());
}

TEST_F(RouterTest, EmptyRouterEmitsNothing) {
  Router r(0, Config(), TestLinks(), &routing_);
  RouterSlots out(r);
  out.Step(0);
  EXPECT_EQ(out.sent(), 0u);
  EXPECT_TRUE(out.credits.events.empty());
  EXPECT_TRUE(r.Quiescent());
}

TEST_F(RouterTest, SharedSlotHoldsFlitsBeforeCredits) {
  // Equal flit and credit delays make the two slots one: every flit the
  // router sends this cycle must precede every credit it frees.
  Router r(0, Config(), TestLinks(), &routing_);
  RouterSlots out(r);  // installs the dispatch rows
  r.AcceptFlit(0, MakeFlit(1, 0, 1, 0, /*route_out=*/2, /*dst=*/3));
  r.AcceptFlit(1, MakeFlit(2, 0, 1, 0, /*route_out=*/4, /*dst=*/4));
  LinkSlot slot;
  r.Step(0, &slot, &slot);
  using Kind = LinkEvent::Kind;
  ASSERT_EQ(slot.events.size(), 4u);
  ASSERT_EQ(slot.flits.size(), 2u);
  EXPECT_EQ(slot.events[0].kind, Kind::kFlitToRouter);
  EXPECT_EQ(slot.events[1].kind, Kind::kFlitToRouter);
  EXPECT_EQ(slot.events[2].kind, Kind::kCreditToRouter);
  EXPECT_EQ(slot.events[3].kind, Kind::kCreditToRouter);
  // Flits and credits each keep grant order, and payloads header order.
  EXPECT_EQ(slot.events[0].port, 2);
  EXPECT_EQ(slot.flits[0].packet_id, 1u);
  EXPECT_EQ(slot.events[1].port, 4);
  EXPECT_EQ(slot.flits[1].packet_id, 2u);
  EXPECT_EQ(slot.events[2].port, 0);
  EXPECT_EQ(slot.events[3].port, 1);
}

TEST_F(RouterTest, ForwardedFlitCarriesLookaheadRoute) {
  Router r(0, Config(), TestLinks(), &routing_);
  RouterSlots out(r);
  // Packet leaves on port 2 toward router 1; its route there is dst % 5.
  r.AcceptFlit(0, MakeFlit(1, 0, 1, 0, /*route_out=*/2, /*dst=*/3));
  out.Step(0);
  ASSERT_EQ(out.sent(), 1u);
  EXPECT_EQ(out.out_port(0), 2);
  EXPECT_EQ(out.flit(0).route_out, 3);  // lookahead computed here
}

TEST_F(RouterTest, CreditsDecrementAndRecover) {
  Router r(0, Config(), TestLinks(), &routing_);
  RouterSlots out(r);
  r.AcceptFlit(0, MakeFlit(1, 0, 1, 0, 2, 3));
  out.Step(0);
  ASSERT_EQ(out.sent(), 1u);
  const VcId out_vc = out.flit(0).vc;
  EXPECT_EQ(r.CreditsFor(2, out_vc), 2);  // depth 3 - 1 in flight
  r.AcceptCredit(2, out_vc);
  EXPECT_EQ(r.CreditsFor(2, out_vc), 3);
}

TEST_F(RouterTest, StallsWithoutCredits) {
  Router r(0, Config(AllocScheme::kInputFirst, /*vcs=*/1, /*depth=*/1),
           TestLinks(), &routing_);
  RouterSlots out(r);
  // Two single-flit packets queued back-to-back in the lone VC of port 0;
  // with depth 1 downstream, the second must wait for the credit.
  r.AcceptFlit(0, MakeFlit(1, 0, 1, 0, 2, 3));
  out.Step(0);
  ASSERT_EQ(out.sent(), 1u);
  r.AcceptFlit(0, MakeFlit(2, 0, 1, 0, 2, 3));
  out.Step(1);
  EXPECT_EQ(out.sent(), 0u);  // zero credits: blocked
  r.AcceptCredit(2, 0);
  out.Step(2);
  ASSERT_EQ(out.sent(), 1u);
  EXPECT_EQ(out.flit(0).packet_id, 2u);
}

TEST_F(RouterTest, WormholeFlitsStayInOrder) {
  Router r(0, Config(), TestLinks(), &routing_);
  RouterSlots out(r);
  const int size = 3;
  for (int s = 0; s < size; ++s) {
    r.AcceptFlit(1, MakeFlit(7, s, size, 2, 0, 1));
  }
  std::vector<int> seqs;
  for (Cycle t = 0; t < 6; ++t) {
    out.Step(t);
    for (const Flit& f : out.flits.flits) {
      seqs.push_back(f.seq);
    }
  }
  ASSERT_EQ(seqs.size(), 3u);
  EXPECT_EQ(seqs[0], 0);
  EXPECT_EQ(seqs[1], 1);
  EXPECT_EQ(seqs[2], 2);
}

TEST_F(RouterTest, TailFreesOutputVcForNextPacket) {
  Router r(0, Config(AllocScheme::kInputFirst, /*vcs=*/1, /*depth=*/3),
           TestLinks(), &routing_);
  RouterSlots out(r);
  // Port 0 and port 1 both head to output 2; with one VC per port the
  // second packet needs the output VC released by the first one's tail.
  r.AcceptFlit(0, MakeFlit(1, 0, 2, 0, 2, 3));
  r.AcceptFlit(0, MakeFlit(1, 1, 2, 0, 2, 3));
  r.AcceptFlit(1, MakeFlit(2, 0, 1, 0, 2, 3));
  int sent_p1 = 0, sent_p2 = 0;
  for (Cycle t = 0; t < 8; ++t) {
    out.Step(t);
    for (const Flit& f : out.flits.flits) {
      if (f.packet_id == 1) ++sent_p1;
      if (f.packet_id == 2) ++sent_p2;
    }
  }
  EXPECT_EQ(sent_p1, 2);
  EXPECT_EQ(sent_p2, 1);
  EXPECT_TRUE(r.Quiescent());
}

TEST_F(RouterTest, NonAtomicVcAcceptsBackToBackPackets) {
  Router r(0, Config(), TestLinks(), &routing_);
  RouterSlots out(r);
  // Two packets share input VC 0 FIFO; both complete.
  r.AcceptFlit(0, MakeFlit(1, 0, 1, 0, 4, 4));
  r.AcceptFlit(0, MakeFlit(2, 0, 1, 0, 4, 4));
  int delivered = 0;
  for (Cycle t = 0; t < 4; ++t) {
    out.Step(t);
    delivered += static_cast<int>(out.sent());
  }
  EXPECT_EQ(delivered, 2);
}

TEST_F(RouterTest, BaselineSendsOneFlitPerInputPortPerCycle) {
  Router r(0, Config(AllocScheme::kInputFirst), TestLinks(), &routing_);
  RouterSlots out(r);
  // Two VCs of port 0 request different free outputs.
  r.AcceptFlit(0, MakeFlit(1, 0, 1, 0, 2, 3));
  r.AcceptFlit(0, MakeFlit(2, 0, 1, 3, 1, 0));
  out.Step(0);
  EXPECT_EQ(out.sent(), 1u);
}

TEST_F(RouterTest, VixSendsTwoFlitsFromOneInputPort) {
  Router r(0, Config(AllocScheme::kVix), TestLinks(), &routing_);
  RouterSlots out(r);
  // VC 0 (sub-group 0) and VC 3 (sub-group 1) of port 0, distinct outputs.
  r.AcceptFlit(0, MakeFlit(1, 0, 1, 0, 2, 3));
  r.AcceptFlit(0, MakeFlit(2, 0, 1, 3, 1, 0));
  out.Step(0);
  EXPECT_EQ(out.sent(), 2u);
}

TEST_F(RouterTest, OutputPortNeverDoubleGranted) {
  Router r(0, Config(AllocScheme::kVix), TestLinks(), &routing_);
  RouterSlots out(r);
  r.AcceptFlit(0, MakeFlit(1, 0, 1, 0, 2, 3));
  r.AcceptFlit(1, MakeFlit(2, 0, 1, 0, 2, 3));
  r.AcceptFlit(2, MakeFlit(3, 0, 1, 0, 2, 3));
  for (Cycle t = 0; t < 5; ++t) {
    out.Step(t);
    EXPECT_LE(out.sent(), 1u);  // all compete for output 2
  }
}

TEST_F(RouterTest, ActivityCountersTrackEvents) {
  Router r(0, Config(), TestLinks(), &routing_);
  RouterSlots out(r);
  r.AcceptFlit(0, MakeFlit(1, 0, 2, 0, 2, 3));
  r.AcceptFlit(0, MakeFlit(1, 1, 2, 0, 2, 3));
  for (Cycle t = 0; t < 4; ++t) out.Step(t);
  const RouterActivity& a = r.activity();
  EXPECT_EQ(a.buffer_writes, 2u);
  EXPECT_EQ(a.buffer_reads, 2u);
  EXPECT_EQ(a.xbar_traversals, 2u);
  EXPECT_EQ(a.link_flits, 2u);  // port 2 is a router-router link
  EXPECT_EQ(a.va_grants, 1u);
  EXPECT_GE(a.sa_grants, 2u);
  EXPECT_EQ(a.cycles, 4u);
  r.ClearActivity();
  EXPECT_EQ(r.activity().buffer_writes, 0u);
}

TEST_F(RouterTest, EjectionNeedsNoCredits) {
  Router r(0, Config(AllocScheme::kInputFirst, 2, 2), TestLinks(),
           &routing_);
  RouterSlots out(r);
  // Many packets eject back-to-back without any credit returns on port 4.
  int delivered = 0;
  for (Cycle t = 0; t < 12; ++t) {
    if (t < 4) r.AcceptFlit(0, MakeFlit(10 + t, 0, 1, t % 2, 4, 4));
    out.Step(t);
    delivered += static_cast<int>(out.sent());
  }
  EXPECT_EQ(delivered, 4);
}

TEST_F(RouterTest, BufferOccupancyReflectsArrivalsAndDepartures) {
  Router r(0, Config(), TestLinks(), &routing_);
  RouterSlots out(r);
  EXPECT_EQ(r.BufferOccupancy(0, 0), 0);
  r.AcceptFlit(0, MakeFlit(1, 0, 2, 0, 2, 3));
  r.AcceptFlit(0, MakeFlit(1, 1, 2, 0, 2, 3));
  EXPECT_EQ(r.BufferOccupancy(0, 0), 2);
  out.Step(0);
  EXPECT_EQ(r.BufferOccupancy(0, 0), 1);
}

TEST_F(RouterTest, GeometryMatchesScheme) {
  Router base(0, Config(AllocScheme::kInputFirst), TestLinks(), &routing_);
  EXPECT_EQ(base.geometry().num_vins, 1);
  Router vix(0, Config(AllocScheme::kVix), TestLinks(), &routing_);
  EXPECT_EQ(vix.geometry().num_vins, 2);
  Router ideal(0, Config(AllocScheme::kVixIdeal), TestLinks(), &routing_);
  EXPECT_EQ(ideal.geometry().num_vins, 4);
}

}  // namespace
}  // namespace vixnoc
