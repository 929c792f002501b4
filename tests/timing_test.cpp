#include <gtest/gtest.h>

#include "timing/delay_model.hpp"

namespace vixnoc::timing {
namespace {

// Paper Table 1 anchors. The model is a least-squares fit; every anchor
// must reproduce within 2%.
struct Table1Row {
  const char* design;
  int radix;
  int vins;
  double va_ps;
  double sa_ps;
  double xbar_ps;
};

constexpr Table1Row kTable1[] = {
    {"Mesh", 5, 1, 300, 280, 167},
    {"Mesh+VIX", 5, 2, 300, 290, 205},
    {"CMesh", 8, 1, 340, 315, 205},
    {"CMesh+VIX", 8, 2, 340, 330, 289},
    {"FBfly", 10, 1, 360, 340, 238},
    {"FBfly+VIX", 10, 2, 360, 345, 359},
};

// Without this gtest prints the row's raw bytes, which include the address
// of `design` and so change from one process to the next; the discovered
// test names must stay the same across builds.
void PrintTo(const Table1Row& row, std::ostream* os) { *os << row.design; }

class Table1Test : public ::testing::TestWithParam<Table1Row> {};

TEST_P(Table1Test, VaWithinTwoPercent) {
  const auto& row = GetParam();
  EXPECT_NEAR(VaDelayPs(row.radix, 6), row.va_ps, row.va_ps * 0.02)
      << row.design;
}

TEST_P(Table1Test, SaWithinTwoPercent) {
  const auto& row = GetParam();
  EXPECT_NEAR(SaDelayPs(row.radix, 6, row.vins), row.sa_ps, row.sa_ps * 0.02)
      << row.design;
}

TEST_P(Table1Test, XbarWithinTwoPercent) {
  const auto& row = GetParam();
  EXPECT_NEAR(XbarDelayPs(row.radix * row.vins, row.radix), row.xbar_ps,
              row.xbar_ps * 0.02)
      << row.design;
}

TEST_P(Table1Test, CrossbarNeverOnCriticalPath) {
  // The paper's feasibility argument: even the doubled VIX crossbar stays
  // below the VA stage delay for all three topologies.
  const auto& row = GetParam();
  const StageDelays d = RouterStageDelays(row.radix, 6, row.vins);
  EXPECT_LT(d.xbar_ps, d.va_ps) << row.design;
}

INSTANTIATE_TEST_SUITE_P(Anchors, Table1Test, ::testing::ValuesIn(kTable1),
                         [](const auto& info) {
                           std::string n = info.param.design;
                           for (char& c : n) {
                             if (c == '+') c = '_';
                           }
                           return n;
                         });

TEST(DelayModel, VixDoesNotStretchRouterCycle) {
  for (int radix : {5, 8, 10}) {
    EXPECT_DOUBLE_EQ(RouterCyclePs(radix, 6, 1), RouterCyclePs(radix, 6, 2))
        << "radix " << radix;
  }
}

TEST(DelayModel, MeshVixCrossbarGrowthMatchesPaper) {
  // §2.4: "the delay of crossbar stage increases by 22%, while still
  // remaining within 70% of the router's cycle time."
  const double base = XbarDelayPs(5, 5);
  const double vix = XbarDelayPs(10, 5);
  EXPECT_NEAR(vix / base, 1.22, 0.03);
  EXPECT_LT(vix, 0.71 * RouterCyclePs(5, 6, 1));
}

TEST(DelayModel, FbflyVixCrossbarGrowthMatchesPaper) {
  // §2.4: FBfly crossbar delay grows ~50% under VIX yet stays below VA.
  const double base = XbarDelayPs(10, 10);
  const double vix = XbarDelayPs(20, 10);
  EXPECT_NEAR(vix / base, 1.50, 0.03);
  EXPECT_LT(vix, VaDelayPs(10, 6));
}

TEST(DelayModel, Table3SeparableAnchor) {
  EXPECT_NEAR(SaDelayPs(5, 6, 1), 280.0, 280.0 * 0.02);
}

TEST(DelayModel, Table3WavefrontAnchor) {
  EXPECT_NEAR(WavefrontDelayPs(5, 6), 390.0, 390.0 * 0.02);
  // "+39% higher cycle time than a separable allocator".
  EXPECT_NEAR(WavefrontDelayPs(5, 6) / SaDelayPs(5, 6, 1), 1.39, 0.01);
}

TEST(DelayModel, Table3AugmentingPathInfeasible) {
  for (int radix : {5, 8, 10}) {
    EXPECT_FALSE(AllocatorFeasible(AugmentingPathDelayPs(radix, 6), radix, 6))
        << "radix " << radix;
  }
}

TEST(DelayModel, SeparableAndVixFeasibleEverywhere) {
  for (int radix : {5, 8, 10}) {
    EXPECT_TRUE(AllocatorFeasible(SaDelayPs(radix, 6, 1), radix, 6));
    EXPECT_TRUE(AllocatorFeasible(SaDelayPs(radix, 6, 2), radix, 6));
  }
}

TEST(DelayModel, WavefrontInfeasibleWithinBaselineCycle) {
  // WF (390ps) exceeds the radix-5 router's 300ps cycle: the reason the
  // paper assumes equalized cycle times when comparing schemes.
  EXPECT_FALSE(AllocatorFeasible(WavefrontDelayPs(5, 6), 5, 6));
}

TEST(DelayModel, DelaysIncreaseWithRadix) {
  double prev_va = 0, prev_sa = 0, prev_xb = 0;
  for (int radix : {3, 5, 8, 10, 16}) {
    const StageDelays d = RouterStageDelays(radix, 6, 1);
    EXPECT_GT(d.va_ps, prev_va);
    EXPECT_GT(d.sa_ps, prev_sa);
    EXPECT_GT(d.xbar_ps, prev_xb);
    prev_va = d.va_ps;
    prev_sa = d.sa_ps;
    prev_xb = d.xbar_ps;
  }
}

TEST(DelayModel, SaDelayGrowsWithVcsAndShrinksWithSplitInputArbiters) {
  // More VCs -> deeper input arbiter -> slower.
  EXPECT_GT(SaDelayPs(5, 8, 1), SaDelayPs(5, 4, 1));
  // Splitting into two sub-groups halves the input arbiter, but doubles
  // the output arbiter; the net effect for the paper's configs is a small
  // increase (Table 1: 280 -> 290 at radix 5).
  const double delta = SaDelayPs(5, 6, 2) - SaDelayPs(5, 6, 1);
  EXPECT_GT(delta, 0.0);
  EXPECT_LT(delta, 20.0);
}

TEST(DelayModel, IdealVixSaIsPureOutputArbitration) {
  // num_vins == num_vcs removes the input arbiter entirely (log2(1) = 0).
  const double ideal = SaDelayPs(5, 6, 6);
  const double vix2 = SaDelayPs(5, 6, 2);
  // Larger output arbiter (30:1) but no input stage.
  EXPECT_GT(ideal, 0.0);
  EXPECT_NE(ideal, vix2);
}

}  // namespace
}  // namespace vixnoc::timing
