#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <tuple>
#include <vector>

#include "alloc/augmenting_path.hpp"
#include "alloc/packet_chaining.hpp"
#include "alloc/separable.hpp"
#include "alloc/switch_allocator.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"

namespace vixnoc {
namespace {

SwitchGeometry Geom(int ports, int vcs, int vins) {
  SwitchGeometry g;
  g.num_inports = ports;
  g.num_outports = ports;
  g.num_vcs = vcs;
  g.num_vins = vins;
  return g;
}

SwitchGeometry GeomFor(AllocScheme scheme, int ports, int vcs) {
  return Geom(ports, vcs, VirtualInputsForScheme(scheme, vcs));
}

// ---------------------------------------------------------------------------
// Geometry basics
// ---------------------------------------------------------------------------

TEST(Geometry, VinOfVcPartitionsContiguously) {
  const SwitchGeometry g = Geom(5, 6, 2);
  EXPECT_EQ(g.VcsPerVin(), 3);
  EXPECT_EQ(g.VinOfVc(0), 0);
  EXPECT_EQ(g.VinOfVc(2), 0);
  EXPECT_EQ(g.VinOfVc(3), 1);
  EXPECT_EQ(g.VinOfVc(5), 1);
  EXPECT_EQ(g.NumCrossbarInputs(), 10);
}

TEST(Geometry, ValidityChecks) {
  EXPECT_TRUE(Geom(5, 6, 1).Valid());
  EXPECT_TRUE(Geom(5, 6, 2).Valid());
  EXPECT_TRUE(Geom(5, 6, 6).Valid());
  EXPECT_FALSE(Geom(5, 6, 4).Valid());  // 6 % 4 != 0
  EXPECT_FALSE(Geom(0, 6, 1).Valid());
  EXPECT_FALSE(Geom(5, 6, 7).Valid());  // more vins than vcs
}

TEST(Geometry, VirtualInputsForScheme) {
  EXPECT_EQ(VirtualInputsForScheme(AllocScheme::kInputFirst, 6), 1);
  EXPECT_EQ(VirtualInputsForScheme(AllocScheme::kWavefront, 6), 1);
  EXPECT_EQ(VirtualInputsForScheme(AllocScheme::kAugmentingPath, 6), 1);
  EXPECT_EQ(VirtualInputsForScheme(AllocScheme::kPacketChaining, 6), 1);
  EXPECT_EQ(VirtualInputsForScheme(AllocScheme::kVix, 6), 2);
  EXPECT_EQ(VirtualInputsForScheme(AllocScheme::kVixIdeal, 6), 6);
}

// ---------------------------------------------------------------------------
// Separable input-first: baseline behaviour
// ---------------------------------------------------------------------------

TEST(SeparableIF, SingleRequestGranted) {
  auto alloc = MakeSwitchAllocator(AllocScheme::kInputFirst, Geom(5, 6, 1));
  std::vector<SaGrant> grants;
  alloc->Allocate({{0, 2, 3}}, &grants);
  ASSERT_EQ(grants.size(), 1u);
  EXPECT_EQ(grants[0].in_port, 0);
  EXPECT_EQ(grants[0].vc, 2);
  EXPECT_EQ(grants[0].out_port, 3);
  EXPECT_EQ(grants[0].vin, 0);
}

TEST(SeparableIF, TwoInputsSameOutputOneGrant) {
  auto alloc = MakeSwitchAllocator(AllocScheme::kInputFirst, Geom(5, 6, 1));
  std::vector<SaGrant> grants;
  alloc->Allocate({{0, 0, 4}, {1, 0, 4}}, &grants);
  EXPECT_EQ(grants.size(), 1u);
}

TEST(SeparableIF, InputPortConstraintOneFlitPerPort) {
  // The paper's second problem: two VCs of one input port requesting two
  // different outputs — the baseline can only serve one per cycle.
  auto alloc = MakeSwitchAllocator(AllocScheme::kInputFirst, Geom(5, 4, 1));
  std::vector<SaGrant> grants;
  alloc->Allocate({{0, 0, 1}, {0, 2, 3}}, &grants);
  EXPECT_EQ(grants.size(), 1u);
}

TEST(SeparableIF, DisjointRequestsAllGranted) {
  auto alloc = MakeSwitchAllocator(AllocScheme::kInputFirst, Geom(5, 6, 1));
  std::vector<SaGrant> grants;
  alloc->Allocate({{0, 0, 1}, {1, 0, 2}, {2, 0, 3}, {3, 0, 4}, {4, 0, 0}},
                  &grants);
  EXPECT_EQ(grants.size(), 5u);
}

TEST(SeparableIF, ContendersAlternateOverCycles) {
  auto alloc = MakeSwitchAllocator(AllocScheme::kInputFirst, Geom(5, 6, 1));
  std::vector<SaGrant> grants;
  std::map<PortId, int> wins;
  for (int t = 0; t < 100; ++t) {
    alloc->Allocate({{0, 0, 4}, {1, 0, 4}}, &grants);
    ASSERT_EQ(grants.size(), 1u);
    ++wins[grants[0].in_port];
  }
  EXPECT_EQ(wins[0], 50);
  EXPECT_EQ(wins[1], 50);
}

// ---------------------------------------------------------------------------
// VIX: the paper's two motivating scenarios
// ---------------------------------------------------------------------------

TEST(Vix, Fig4TwoFlitsFromOneInputPort) {
  // 5-port mesh router, 4 VCs, 1:2 VIX: sub-groups {VC0,VC1} and {VC2,VC3}.
  // West port holds a packet in VC0 for Local and one in VC2 for East.
  // With virtual inputs both transfer in the same cycle.
  auto alloc = MakeSwitchAllocator(AllocScheme::kVix, Geom(5, 4, 2));
  std::vector<SaGrant> grants;
  alloc->Allocate({{1, 0, 4}, {1, 2, 0}}, &grants);
  EXPECT_EQ(grants.size(), 2u);
}

TEST(Vix, Fig4BaselineTransfersOnlyOne) {
  auto alloc = MakeSwitchAllocator(AllocScheme::kInputFirst, Geom(5, 4, 1));
  std::vector<SaGrant> grants;
  alloc->Allocate({{1, 0, 4}, {1, 2, 0}}, &grants);
  EXPECT_EQ(grants.size(), 1u);
}

TEST(Vix, SameSubgroupStillConstrained) {
  // Two VCs in the SAME sub-group share one crossbar input: only one grant.
  auto alloc = MakeSwitchAllocator(AllocScheme::kVix, Geom(5, 4, 2));
  std::vector<SaGrant> grants;
  alloc->Allocate({{1, 0, 4}, {1, 1, 0}}, &grants);
  EXPECT_EQ(grants.size(), 1u);
}

TEST(Vix, Fig5ExposesMoreRequestsForBetterMatching) {
  // South port has VCs requesting East (VC0, sub-group 0) and North (VC2,
  // sub-group 1); West requests East. Baseline separable can pick East at
  // both ports and transfer one flit; VIX transfers three when West->East,
  // South->North, and the third South VC all line up. We verify VIX serves
  // East + North + one more distinct output in one cycle.
  auto alloc = MakeSwitchAllocator(AllocScheme::kVix, Geom(5, 4, 2));
  std::vector<SaGrant> grants;
  // Ports: 0=E,1=W,2=N,3=S,4=L (numbering irrelevant to the allocator).
  alloc->Allocate({{1, 0, 0},    // West VC0 -> East
                   {3, 0, 0},    // South VC0 -> East (conflicts with West)
                   {3, 2, 2}},   // South VC2 -> North (different sub-group)
                  &grants);
  // East granted once, North granted once: 2 or 3 total (West and South
  // VC0 conflict on East; only one wins).
  ASSERT_EQ(grants.size(), 2u);
  bool east = false, north = false;
  for (const auto& g : grants) {
    east |= g.out_port == 0;
    north |= g.out_port == 2;
  }
  EXPECT_TRUE(east);
  EXPECT_TRUE(north);
}

TEST(Vix, GrantVinMatchesVcSubgroup) {
  auto alloc = MakeSwitchAllocator(AllocScheme::kVix, Geom(5, 6, 2));
  std::vector<SaGrant> grants;
  alloc->Allocate({{2, 4, 1}}, &grants);
  ASSERT_EQ(grants.size(), 1u);
  EXPECT_EQ(grants[0].vin, 1);  // vc 4 of 6 with 2 sub-groups -> group 1
}

TEST(Vix, InterleavedMappingAssignsVinByParity) {
  SwitchGeometry g = Geom(5, 6, 2);
  g.interleaved_vins = true;
  EXPECT_EQ(g.VinOfVc(0), 0);
  EXPECT_EQ(g.VinOfVc(1), 1);
  EXPECT_EQ(g.VinOfVc(4), 0);
  EXPECT_EQ(g.VcOf(1, 2), 5);  // sub 2 of odd group
  EXPECT_EQ(g.SubIndexOfVc(5), 2);

  auto alloc = MakeSwitchAllocator(AllocScheme::kVix, g);
  std::vector<SaGrant> grants;
  // VCs 0 (vin 0) and 1 (vin 1) of one port, distinct outputs: both
  // transmit — under the contiguous wiring they would share vin 0.
  alloc->Allocate({{0, 0, 1}, {0, 1, 3}}, &grants);
  EXPECT_EQ(grants.size(), 2u);
  ASSERT_TRUE(GrantsAreLegal(g, {{0, 0, 1}, {0, 1, 3}}, grants));
}

TEST(Vix, InterleavedLegalOnRandomMatrices) {
  SwitchGeometry g = Geom(5, 6, 2);
  g.interleaved_vins = true;
  auto alloc = MakeSwitchAllocator(AllocScheme::kVix, g);
  Rng rng(77);
  std::vector<SaGrant> grants;
  for (int t = 0; t < 400; ++t) {
    std::vector<SaRequest> reqs;
    for (PortId in = 0; in < 5; ++in) {
      for (VcId vc = 0; vc < 6; ++vc) {
        if (rng.NextBool(0.5)) {
          reqs.push_back({in, vc, static_cast<PortId>(rng.NextBounded(5))});
        }
      }
    }
    alloc->Allocate(reqs, &grants);
    ASSERT_TRUE(GrantsAreLegal(g, reqs, grants)) << "cycle " << t;
  }
}

TEST(VixIdeal, AllDistinctOutputsServed) {
  // With one virtual input per VC there is no input constraint at all:
  // every requested output is granted.
  auto alloc = MakeSwitchAllocator(AllocScheme::kVixIdeal, Geom(5, 6, 6));
  std::vector<SaGrant> grants;
  alloc->Allocate({{0, 0, 0}, {0, 1, 1}, {0, 2, 2}, {0, 3, 3}, {0, 4, 4}},
                  &grants);
  EXPECT_EQ(grants.size(), 5u);
}

// ---------------------------------------------------------------------------
// Wavefront
// ---------------------------------------------------------------------------

TEST(Wavefront, SingleRequestGranted) {
  auto alloc = MakeSwitchAllocator(AllocScheme::kWavefront, Geom(5, 6, 1));
  std::vector<SaGrant> grants;
  alloc->Allocate({{3, 1, 2}}, &grants);
  ASSERT_EQ(grants.size(), 1u);
  EXPECT_EQ(grants[0].in_port, 3);
  EXPECT_EQ(grants[0].out_port, 2);
}

TEST(Wavefront, ProducesMaximalMatching) {
  auto alloc = MakeSwitchAllocator(AllocScheme::kWavefront, Geom(6, 4, 1));
  Rng rng(99);
  std::vector<SaGrant> grants;
  for (int t = 0; t < 500; ++t) {
    std::vector<SaRequest> reqs;
    std::vector<std::vector<bool>> matrix(6, std::vector<bool>(6, false));
    for (PortId in = 0; in < 6; ++in) {
      for (VcId vc = 0; vc < 4; ++vc) {
        if (rng.NextBool(0.3)) {
          const auto out = static_cast<PortId>(rng.NextBounded(6));
          reqs.push_back({in, vc, out});
          matrix[in][out] = true;
          break;  // one request per VC; keep at most one VC per port here
        }
      }
    }
    alloc->Allocate(reqs, &grants);
    ASSERT_TRUE(GrantsAreLegal(alloc->geometry(), reqs, grants));
    // Maximality: no (in, out) pair with a request where both sides are free.
    std::vector<bool> in_used(6, false), out_used(6, false);
    for (const auto& g : grants) {
      in_used[g.in_port] = true;
      out_used[g.out_port] = true;
    }
    for (int in = 0; in < 6; ++in) {
      for (int out = 0; out < 6; ++out) {
        if (matrix[in][out]) {
          EXPECT_TRUE(in_used[in] || out_used[out])
              << "non-maximal at (" << in << "," << out << ")";
        }
      }
    }
  }
}

TEST(Wavefront, RotatingDiagonalIsFair) {
  auto alloc = MakeSwitchAllocator(AllocScheme::kWavefront, Geom(4, 2, 1));
  std::vector<SaGrant> grants;
  std::map<PortId, int> wins;
  for (int t = 0; t < 400; ++t) {
    alloc->Allocate({{0, 0, 2}, {1, 0, 2}, {2, 0, 2}, {3, 0, 2}}, &grants);
    ASSERT_EQ(grants.size(), 1u);
    ++wins[grants[0].in_port];
  }
  for (int in = 0; in < 4; ++in) {
    EXPECT_EQ(wins[in], 100) << "input " << in;
  }
}

// ---------------------------------------------------------------------------
// Augmenting path: maximum matching
// ---------------------------------------------------------------------------

int BruteForceMaxMatching(const std::vector<std::vector<bool>>& m) {
  const int n = static_cast<int>(m.size());
  int best = 0;
  std::vector<int> perm;  // try all assignments via DFS
  std::vector<bool> out_used(n, false);
  std::function<void(int, int)> go = [&](int in, int matched) {
    best = std::max(best, matched);
    if (in == n) return;
    go(in + 1, matched);  // leave input unmatched
    for (int out = 0; out < n; ++out) {
      if (m[in][out] && !out_used[out]) {
        out_used[out] = true;
        go(in + 1, matched + 1);
        out_used[out] = false;
      }
    }
  };
  go(0, 0);
  return best;
}

TEST(AugmentingPath, MatchesBruteForceMaximum) {
  auto alloc =
      MakeSwitchAllocator(AllocScheme::kAugmentingPath, Geom(5, 3, 1));
  Rng rng(5);
  std::vector<SaGrant> grants;
  for (int t = 0; t < 300; ++t) {
    std::vector<SaRequest> reqs;
    std::vector<std::vector<bool>> matrix(5, std::vector<bool>(5, false));
    for (PortId in = 0; in < 5; ++in) {
      for (VcId vc = 0; vc < 3; ++vc) {
        if (rng.NextBool(0.4)) {
          const auto out = static_cast<PortId>(rng.NextBounded(5));
          reqs.push_back({in, vc, out});
          matrix[in][out] = true;
        }
      }
    }
    alloc->Allocate(reqs, &grants);
    ASSERT_TRUE(GrantsAreLegal(alloc->geometry(), reqs, grants));
    EXPECT_EQ(static_cast<int>(grants.size()),
              BruteForceMaxMatching(matrix));
  }
}

TEST(AugmentingPath, AugmentsThroughConflict) {
  // in0 can reach {0,1}, in1 only {0}: greedy in0->0 must be augmented to
  // in0->1, in1->0 for the maximum matching of 2.
  auto alloc =
      MakeSwitchAllocator(AllocScheme::kAugmentingPath, Geom(5, 6, 1));
  std::vector<SaGrant> grants;
  alloc->Allocate({{0, 0, 0}, {0, 1, 1}, {1, 0, 0}}, &grants);
  EXPECT_EQ(grants.size(), 2u);
}

TEST(AugmentingPath, DeterministicallyFavorsLowInputs) {
  // The paper's unfairness mechanism: with a fixed exploration order, the
  // lower-indexed input always wins a persistent tie.
  auto alloc =
      MakeSwitchAllocator(AllocScheme::kAugmentingPath, Geom(5, 6, 1));
  std::vector<SaGrant> grants;
  for (int t = 0; t < 50; ++t) {
    alloc->Allocate({{1, 0, 3}, {4, 0, 3}}, &grants);
    ASSERT_EQ(grants.size(), 1u);
    EXPECT_EQ(grants[0].in_port, 1);
  }
}

TEST(AugmentingPath, DefaultWorkBoundNeverTripsOnDenseMatrices) {
  // The default bound is P^2 * (P + 1), above Kuhn's worst case, so even
  // an all-ones request matrix (the probe-heaviest input) must allocate.
  // Each input VC requests one output, so VC `out` requests output `out`.
  auto alloc =
      MakeSwitchAllocator(AllocScheme::kAugmentingPath, Geom(16, 16, 1));
  auto* ap = static_cast<AugmentingPathAllocator*>(alloc.get());
  EXPECT_EQ(ap->work_limit(), 16ll * 16 * 17);
  std::vector<SaRequest> reqs;
  for (PortId in = 0; in < 16; ++in) {
    for (PortId out = 0; out < 16; ++out) reqs.push_back({in, out, out});
  }
  std::vector<SaGrant> grants;
  for (int t = 0; t < 20; ++t) {
    ASSERT_NO_THROW(alloc->Allocate(reqs, &grants));
    EXPECT_EQ(grants.size(), 16u);  // perfect matching exists
  }
}

TEST(AugmentingPath, ExhaustedWorkBoundIsASimErrorNotAHang) {
  auto alloc =
      MakeSwitchAllocator(AllocScheme::kAugmentingPath, Geom(8, 8, 1));
  auto* ap = static_cast<AugmentingPathAllocator*>(alloc.get());
  ap->set_work_limit(3);  // trips on any nontrivial matrix
  std::vector<SaRequest> reqs;
  for (PortId in = 0; in < 8; ++in) {
    for (PortId out = 0; out < 8; ++out) reqs.push_back({in, out, out});
  }
  std::vector<SaGrant> grants;
  try {
    alloc->Allocate(reqs, &grants);
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("work bound"), std::string::npos) << msg;
  }
}

TEST(AugmentingPath, VcSelectionRotates) {
  auto alloc =
      MakeSwitchAllocator(AllocScheme::kAugmentingPath, Geom(5, 4, 1));
  std::vector<SaGrant> grants;
  std::map<VcId, int> wins;
  for (int t = 0; t < 200; ++t) {
    alloc->Allocate({{0, 0, 2}, {0, 1, 2}}, &grants);
    ASSERT_EQ(grants.size(), 1u);
    ++wins[grants[0].vc];
  }
  EXPECT_EQ(wins[0], 100);
  EXPECT_EQ(wins[1], 100);
}

// ---------------------------------------------------------------------------
// Packet chaining
// ---------------------------------------------------------------------------

TEST(PacketChaining, ChainPersistsAcrossCycles) {
  PacketChainingAllocator alloc(Geom(5, 4, 1), ArbiterKind::kRoundRobin);
  std::vector<SaGrant> grants;
  // Cycle 1: in0 wins out2.
  alloc.Allocate({{0, 0, 2}}, &grants);
  ASSERT_EQ(grants.size(), 1u);
  // Cycle 2: in0 and in3 both request out2; the chain keeps in0 connected
  // without arbitration.
  alloc.Allocate({{0, 1, 2}, {3, 0, 2}}, &grants);
  ASSERT_EQ(grants.size(), 1u);
  EXPECT_EQ(grants[0].in_port, 0);
  EXPECT_GE(alloc.chained_grants(), 1u);
}

TEST(PacketChaining, AnyVcContinuesChain) {
  PacketChainingAllocator alloc(Geom(5, 4, 1), ArbiterKind::kRoundRobin);
  std::vector<SaGrant> grants;
  alloc.Allocate({{0, 0, 2}}, &grants);
  // A different VC at the same input keeps the chain (SameInput/anyVC).
  alloc.Allocate({{0, 3, 2}}, &grants);
  ASSERT_EQ(grants.size(), 1u);
  EXPECT_EQ(grants[0].vc, 3);
}

TEST(PacketChaining, BrokenChainFreesOutput) {
  PacketChainingAllocator alloc(Geom(5, 4, 1), ArbiterKind::kRoundRobin);
  std::vector<SaGrant> grants;
  alloc.Allocate({{0, 0, 2}}, &grants);
  // in0 no longer requests out2: in3 must win it via the separable pass.
  alloc.Allocate({{3, 0, 2}}, &grants);
  ASSERT_EQ(grants.size(), 1u);
  EXPECT_EQ(grants[0].in_port, 3);
}

TEST(PacketChaining, ChainedInputSkipsResidualArbitration) {
  PacketChainingAllocator alloc(Geom(5, 4, 1), ArbiterKind::kRoundRobin);
  std::vector<SaGrant> grants;
  alloc.Allocate({{0, 0, 2}}, &grants);
  // in0 requests out2 (chained) and another VC requests out4: the chained
  // input cannot also take out4 (one crossbar input per port).
  alloc.Allocate({{0, 0, 2}, {0, 1, 4}}, &grants);
  ASSERT_EQ(grants.size(), 1u);
  EXPECT_EQ(grants[0].out_port, 2);
}

// ---------------------------------------------------------------------------
// Property sweep: legality + ordering across every scheme
// ---------------------------------------------------------------------------

struct SchemeCase {
  AllocScheme scheme;
  int ports;
  int vcs;
};

class AllSchemesTest : public ::testing::TestWithParam<SchemeCase> {};

TEST_P(AllSchemesTest, GrantsAlwaysLegalOnRandomMatrices) {
  const auto [scheme, ports, vcs] = GetParam();
  const SwitchGeometry geom = GeomFor(scheme, ports, vcs);
  auto alloc = MakeSwitchAllocator(scheme, geom);
  Rng rng(static_cast<std::uint64_t>(ports) * 31 + vcs);
  std::vector<SaGrant> grants;
  for (int t = 0; t < 400; ++t) {
    std::vector<SaRequest> reqs;
    for (PortId in = 0; in < ports; ++in) {
      for (VcId vc = 0; vc < vcs; ++vc) {
        if (rng.NextBool(0.5)) {
          reqs.push_back(
              {in, vc, static_cast<PortId>(rng.NextBounded(ports))});
        }
      }
    }
    alloc->Allocate(reqs, &grants);
    ASSERT_TRUE(GrantsAreLegal(geom, reqs, grants)) << "cycle " << t;
  }
}

TEST_P(AllSchemesTest, NoGrantsWithoutRequests) {
  const auto [scheme, ports, vcs] = GetParam();
  auto alloc = MakeSwitchAllocator(scheme, GeomFor(scheme, ports, vcs));
  std::vector<SaGrant> grants{{0, 0, 0, 0}};  // stale content must be cleared
  alloc->Allocate(std::vector<SaRequest>{}, &grants);
  EXPECT_TRUE(grants.empty());
}

TEST_P(AllSchemesTest, ResetIsIdempotentAndRestoresDeterminism) {
  const auto [scheme, ports, vcs] = GetParam();
  auto alloc = MakeSwitchAllocator(scheme, GeomFor(scheme, ports, vcs));
  std::vector<SaRequest> reqs{{0, 0, 1}, {1, 0, 1}, {2, 0, 0}};
  std::vector<SaGrant> first, replay;
  alloc->Allocate(reqs, &first);
  alloc->Allocate(reqs, &replay);  // state may have advanced
  alloc->Reset();
  std::vector<SaGrant> after_reset;
  alloc->Allocate(reqs, &after_reset);
  ASSERT_EQ(first.size(), after_reset.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].in_port, after_reset[i].in_port);
    EXPECT_EQ(first[i].vc, after_reset[i].vc);
    EXPECT_EQ(first[i].out_port, after_reset[i].out_port);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AllSchemesTest,
    ::testing::Values(
        SchemeCase{AllocScheme::kInputFirst, 5, 6},
        SchemeCase{AllocScheme::kInputFirst, 8, 6},
        SchemeCase{AllocScheme::kInputFirst, 10, 4},
        SchemeCase{AllocScheme::kVix, 5, 6},
        SchemeCase{AllocScheme::kVix, 8, 6},
        SchemeCase{AllocScheme::kVix, 10, 4},
        SchemeCase{AllocScheme::kVixIdeal, 5, 6},
        SchemeCase{AllocScheme::kVixIdeal, 8, 4},
        SchemeCase{AllocScheme::kWavefront, 5, 6},
        SchemeCase{AllocScheme::kWavefront, 10, 6},
        SchemeCase{AllocScheme::kAugmentingPath, 5, 6},
        SchemeCase{AllocScheme::kAugmentingPath, 8, 4},
        SchemeCase{AllocScheme::kPacketChaining, 5, 6},
        SchemeCase{AllocScheme::kPacketChaining, 8, 6},
        SchemeCase{AllocScheme::kIslip, 5, 6},
        SchemeCase{AllocScheme::kIslip, 10, 6}),
    [](const ::testing::TestParamInfo<SchemeCase>& info) {
      std::string name = ToString(info.param.scheme) + "_p" +
                         std::to_string(info.param.ports) + "v" +
                         std::to_string(info.param.vcs);
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// ---------------------------------------------------------------------------
// Relative matching quality on saturated random matrices
// ---------------------------------------------------------------------------

double SaturatedGrantRate(AllocScheme scheme, int ports, int vcs,
                          std::uint64_t seed) {
  const SwitchGeometry geom = GeomFor(scheme, ports, vcs);
  auto alloc = MakeSwitchAllocator(scheme, geom);
  Rng rng(seed);
  std::vector<SaGrant> grants;
  // Persistent per-VC requests, re-drawn only when granted — models
  // saturated input queues.
  std::vector<PortId> want(static_cast<std::size_t>(ports) * vcs);
  for (auto& w : want) w = static_cast<PortId>(rng.NextBounded(ports));
  std::uint64_t total = 0;
  const int cycles = 3000;
  for (int t = 0; t < cycles; ++t) {
    std::vector<SaRequest> reqs;
    for (PortId in = 0; in < ports; ++in) {
      for (VcId vc = 0; vc < vcs; ++vc) {
        reqs.push_back({in, vc, want[in * vcs + vc]});
      }
    }
    alloc->Allocate(reqs, &grants);
    total += grants.size();
    for (const auto& g : grants) {
      want[g.in_port * vcs + g.vc] =
          static_cast<PortId>(rng.NextBounded(ports));
    }
  }
  return static_cast<double>(total) / cycles;
}

TEST(MatchingQuality, PaperOrderingHoldsAtRadix5) {
  const double ideal = SaturatedGrantRate(AllocScheme::kVixIdeal, 5, 6, 42);
  const double ap = SaturatedGrantRate(AllocScheme::kAugmentingPath, 5, 6, 42);
  const double vix = SaturatedGrantRate(AllocScheme::kVix, 5, 6, 42);
  const double wf = SaturatedGrantRate(AllocScheme::kWavefront, 5, 6, 42);
  const double base = SaturatedGrantRate(AllocScheme::kInputFirst, 5, 6, 42);
  // Fig 7: AP and VIX clearly above IF; both near ideal; WF above IF.
  EXPECT_GT(ap, base * 1.15);
  EXPECT_GT(vix, base * 1.15);
  EXPECT_GT(wf, base * 1.02);
  EXPECT_GT(ideal, base * 1.2);
  EXPECT_LE(vix, ideal * 1.001);
  EXPECT_LE(ap, ideal * 1.001);
}

TEST(MatchingQuality, VixGainGrowsWithRadix) {
  for (int ports : {5, 8, 10}) {
    const double vix = SaturatedGrantRate(AllocScheme::kVix, ports, 6, 7);
    const double base =
        SaturatedGrantRate(AllocScheme::kInputFirst, ports, 6, 7);
    EXPECT_GT(vix, base * 1.1) << "radix " << ports;
  }
}

}  // namespace
}  // namespace vixnoc
