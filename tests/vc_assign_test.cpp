// The VA stage's output-VC pick. Every case runs the word pick
// (router/vc_assign.hpp) on a window built from its views and checks it
// against the element-at-a-time reference in tests/reference_vc_assign.*:
// same pick, same RNG state after the call. The lockstep sweep at the end
// covers random free/credit windows for every policy, k in {1, 2, 3, 6},
// both wirings, first-VC offsets, and windows that cross or exceed a
// 64-bit word.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "alloc/request_matrix.hpp"
#include "common/rng.hpp"
#include "reference_vc_assign.hpp"
#include "router/vc_assign.hpp"

namespace vixnoc {
namespace {

using ref::OutputVcView;
using ref::VinLayout;

std::vector<OutputVcView> Views(std::initializer_list<std::pair<bool, int>>
                                    alloc_credits) {
  std::vector<OutputVcView> v;
  for (const auto& [allocated, credits] : alloc_credits) {
    v.push_back(OutputVcView{allocated, credits});
  }
  return v;
}

/// Full-range layout over `total` VCs with `vins` contiguous sub-groups.
VinLayout Contiguous(int vins, int total) {
  VinLayout layout;
  layout.num_vins = vins;
  layout.total_vcs = total;
  return layout;
}

VinLayout Interleaved(int vins, int total) {
  VinLayout layout = Contiguous(vins, total);
  layout.interleaved = true;
  return layout;
}

/// The word pick over `views`, placed at VCs [first_vc, first_vc + n) of
/// a port whose free bits and credits start at `base`; asserts that the
/// reference agrees and leaves the RNG in the same state.
int Pick(VcAssignPolicy policy, const std::vector<OutputVcView>& views,
         const VinLayout& layout, PortDimension dim, Rng* rng = nullptr,
         int base = 0) {
  BitWords free(base + layout.total_vcs);
  std::vector<std::int32_t> credits(
      static_cast<std::size_t>(base + layout.total_vcs), 0);
  for (int i = 0; i < static_cast<int>(views.size()); ++i) {
    free.Assign(base + layout.first_vc + i, !views[i].allocated);
    credits[base + layout.first_vc + i] = views[i].credits;
  }
  const VinMasks vins(layout.num_vins, layout.total_vcs, layout.interleaved);
  Rng ref_rng = rng != nullptr ? *rng : Rng();
  const int got = PickOutputVc(
      policy,
      VcWindow{free.data(), credits.data(), base, layout.first_vc,
               static_cast<int>(views.size())},
      vins, dim, rng);
  const int want = ref::PickOutputVc(policy, views, layout, dim,
                                     rng != nullptr ? &ref_rng : nullptr);
  EXPECT_EQ(got, want);
  if (rng != nullptr) {
    EXPECT_EQ(rng->state(), ref_rng.state());
  }
  return got;
}

TEST(VinMasks, WindowsFollowTheWiring) {
  EXPECT_EQ(VinMasks(2, 6, false).Window(0, 0, 6), 0b000111u);
  EXPECT_EQ(VinMasks(2, 6, false).Window(1, 0, 6), 0b111000u);
  EXPECT_EQ(VinMasks(2, 6, true).Window(1, 0, 6), 0b101010u);
  EXPECT_EQ(VinMasks(3, 6, true).Window(2, 1, 5), 0b10010u);
  // A window straddling two words of a 72-VC row.
  EXPECT_EQ(VinMasks(2, 72, true).Window(1, 60, 8), 0b10101010u);
  EXPECT_EQ(VinMasks(2, 72, false).Window(1, 32, 8), 0b11110000u);
}

TEST(VinLayout, ContiguousMapping) {
  const VinLayout l = Contiguous(2, 6);
  EXPECT_EQ(l.VinOfView(0), 0);
  EXPECT_EQ(l.VinOfView(2), 0);
  EXPECT_EQ(l.VinOfView(3), 1);
  EXPECT_EQ(l.VinOfView(5), 1);
}

TEST(VinLayout, InterleavedMapping) {
  const VinLayout l = Interleaved(2, 6);
  EXPECT_EQ(l.VinOfView(0), 0);
  EXPECT_EQ(l.VinOfView(1), 1);
  EXPECT_EQ(l.VinOfView(2), 0);
  EXPECT_EQ(l.VinOfView(5), 1);
}

TEST(VinLayout, FirstVcOffsetsTheMapping) {
  VinLayout l = Contiguous(2, 6);
  l.first_vc = 3;  // views cover VCs 3..5 = all of sub-group 1
  EXPECT_EQ(l.VinOfView(0), 1);
  EXPECT_EQ(l.VinOfView(2), 1);
}

TEST(MaxCredits, PicksFreeVcWithMostCredits) {
  const auto vcs = Views({{false, 2}, {false, 5}, {false, 3}});
  EXPECT_EQ(Pick(VcAssignPolicy::kMaxCredits, vcs, Contiguous(1, 3),
                         PortDimension::kX),
            1);
}

TEST(MaxCredits, SkipsAllocatedVcs) {
  const auto vcs = Views({{true, 5}, {false, 1}, {true, 4}});
  EXPECT_EQ(Pick(VcAssignPolicy::kMaxCredits, vcs, Contiguous(1, 3),
                         PortDimension::kY),
            1);
}

TEST(MaxCredits, AllAllocatedReturnsNegative) {
  const auto vcs = Views({{true, 5}, {true, 5}});
  EXPECT_EQ(Pick(VcAssignPolicy::kMaxCredits, vcs, Contiguous(1, 2),
                         PortDimension::kX),
            -1);
}

TEST(MaxCredits, TieBreaksToLowestIndex) {
  const auto vcs = Views({{false, 3}, {false, 3}, {false, 3}});
  EXPECT_EQ(Pick(VcAssignPolicy::kMaxCredits, vcs, Contiguous(1, 3),
                         PortDimension::kX),
            0);
}

TEST(VixDimension, XTrafficPrefersGroupZero) {
  const auto vcs = Views({{false, 5}, {false, 5}, {false, 5},
                          {false, 5}, {false, 5}, {false, 5}});
  const int pick = Pick(VcAssignPolicy::kVixDimension, vcs,
                                Contiguous(2, 6), PortDimension::kX);
  EXPECT_LT(pick, 3);
}

TEST(VixDimension, YTrafficPrefersGroupOne) {
  const auto vcs = Views({{false, 5}, {false, 5}, {false, 5},
                          {false, 5}, {false, 5}, {false, 5}});
  const int pick = Pick(VcAssignPolicy::kVixDimension, vcs,
                                Contiguous(2, 6), PortDimension::kY);
  EXPECT_GE(pick, 3);
}

TEST(VixDimension, InterleavedYTrafficLandsOnOddVcs) {
  const auto vcs = Views({{false, 5}, {false, 5}, {false, 5},
                          {false, 5}, {false, 5}, {false, 5}});
  const int pick = Pick(VcAssignPolicy::kVixDimension, vcs,
                                Interleaved(2, 6), PortDimension::kY);
  EXPECT_EQ(pick % 2, 1);
}

TEST(VixDimension, FallsBackWhenPreferredGroupFull) {
  const auto vcs = Views({{true, 0}, {true, 0}, {true, 0},
                          {false, 5}, {false, 2}, {false, 3}});
  const int pick = Pick(VcAssignPolicy::kVixDimension, vcs,
                                Contiguous(2, 6), PortDimension::kX);
  EXPECT_EQ(pick, 3);  // max credits in the fallback set
}

TEST(VixDimension, LocalTrafficBalancesLoad) {
  const auto vcs = Views({{false, 5}, {false, 5}, {false, 5},
                          {true, 0}, {true, 0}, {false, 5}});
  const int pick = Pick(VcAssignPolicy::kVixDimension, vcs,
                                Contiguous(2, 6), PortDimension::kLocal);
  EXPECT_LT(pick, 3);
}

TEST(VixDimension, MaxCreditsWithinPreferredGroup) {
  const auto vcs = Views({{false, 1}, {false, 4}, {false, 2},
                          {false, 5}, {false, 5}, {false, 5}});
  EXPECT_EQ(Pick(VcAssignPolicy::kVixDimension, vcs,
                         Contiguous(2, 6), PortDimension::kX),
            1);
}

TEST(VixDimension, SubrangeCoveringOneGroupStillWorks) {
  // Candidate range = VCs 3..5 (contiguous sub-group 1 only). X traffic
  // prefers group 0, which is absent: fallback must still pick a VC.
  const auto vcs = Views({{false, 2}, {false, 4}, {false, 1}});
  VinLayout layout = Contiguous(2, 6);
  layout.first_vc = 3;
  EXPECT_EQ(Pick(VcAssignPolicy::kVixDimension, vcs, layout,
                         PortDimension::kX),
            1);
}

TEST(VixDimension, InterleavedSubrangeKeepsBothGroupsReachable) {
  // Candidate range = VCs 0..2 of an interleaved 2-vin router: vins are
  // {0, 2} -> group 0 and {1} -> group 1, so Y traffic can still land in
  // group 1 inside the lower dateline half — the motivation for the
  // interleaved wiring.
  const auto vcs = Views({{false, 5}, {false, 5}, {false, 5}});
  VinLayout layout = Interleaved(2, 6);
  const int pick = Pick(VcAssignPolicy::kVixDimension, vcs, layout,
                                PortDimension::kY);
  EXPECT_EQ(pick, 1);
}

TEST(VixBalance, PicksLessLoadedGroupRegardlessOfDimension) {
  const auto vcs = Views({{true, 0}, {true, 0}, {false, 1},
                          {false, 5}, {false, 5}, {false, 5}});
  const int pick = Pick(VcAssignPolicy::kVixBalance, vcs,
                                Contiguous(2, 6), PortDimension::kX);
  EXPECT_GE(pick, 3);
}

TEST(VixBalance, AllFullReturnsNegative) {
  const auto vcs = Views({{true, 0}, {true, 0}, {true, 0},
                          {true, 0}, {true, 0}, {true, 0}});
  EXPECT_EQ(Pick(VcAssignPolicy::kVixBalance, vcs, Contiguous(2, 6),
                         PortDimension::kY),
            -1);
}

TEST(VixPolicies, DegenerateToMaxCreditsWithOneVin) {
  const auto vcs = Views({{false, 2}, {false, 7}, {false, 3}});
  for (auto policy : {VcAssignPolicy::kVixDimension,
                      VcAssignPolicy::kVixBalance}) {
    EXPECT_EQ(Pick(policy, vcs, Contiguous(1, 3), PortDimension::kX),
              1);
  }
}

class VinCountTest : public ::testing::TestWithParam<int> {};

TEST_P(VinCountTest, AlwaysReturnsFreeVcWhenOneExists) {
  const int num_vins = GetParam();
  std::vector<OutputVcView> vcs(6);
  for (int busy = 0; busy < 6; ++busy) {
    for (auto& v : vcs) v = {true, 0};
    vcs[busy] = {false, 2};
    for (auto dim : {PortDimension::kX, PortDimension::kY,
                     PortDimension::kLocal}) {
      for (auto policy : {VcAssignPolicy::kMaxCredits,
                          VcAssignPolicy::kVixDimension,
                          VcAssignPolicy::kVixBalance}) {
        for (bool interleaved : {false, true}) {
          VinLayout layout = Contiguous(num_vins, 6);
          layout.interleaved = interleaved;
          EXPECT_EQ(Pick(policy, vcs, layout, dim), busy);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Vins, VinCountTest, ::testing::Values(1, 2, 3, 6));

TEST(RandomFree, DrawsTheSameStreamAsTheReference) {
  Rng rng(17);
  const auto vcs = Views({{false, 1}, {true, 5}, {false, 2}, {false, 0}});
  for (int i = 0; i < 100; ++i) {
    Pick(VcAssignPolicy::kRandomFree, vcs, Contiguous(2, 4),
         PortDimension::kX, &rng, 4 * (i % 3));
  }
}

/// Random free/credit windows for every policy, virtual-input count and
/// wiring, at random offsets into multi-port bit sets: the word pick must
/// match the reference pick and RNG state after every call.
TEST(VcAssignLockstep, RandomWindowsMatchReference) {
  std::mt19937_64 gen(0x7ac5);
  const VcAssignPolicy policies[] = {
      VcAssignPolicy::kMaxCredits, VcAssignPolicy::kVixDimension,
      VcAssignPolicy::kVixBalance, VcAssignPolicy::kRandomFree};
  const PortDimension dims[] = {PortDimension::kX, PortDimension::kY,
                                PortDimension::kLocal};
  const double free_rates[] = {0.0, 0.05, 0.3, 0.7, 1.0};
  constexpr int kPorts = 3;
  int wide = 0;
  int crossing = 0;
  for (const int total : {6, 12, 72, 132}) {
    for (const int k : {1, 2, 3, 6}) {
      for (const bool interleaved : {false, true}) {
        const VinMasks vins(k, total, interleaved);
        for (const VcAssignPolicy policy : policies) {
          Rng rng(gen());
          Rng ref_rng = rng;
          BitWords free(kPorts * total);
          std::vector<std::int32_t> credits(
              static_cast<std::size_t>(kPorts * total));
          for (int round = 0; round < 150; ++round) {
            const double rate = free_rates[gen() % 5];
            for (int i = 0; i < kPorts * total; ++i) {
              free.Assign(i, std::uniform_real_distribution<>(0, 1)(gen) <
                                 rate);
              credits[i] = static_cast<std::int32_t>(gen() % 6);
            }
            const int base = static_cast<int>(gen() % kPorts) * total;
            const int first = static_cast<int>(gen() % total);
            const int span = 1 + static_cast<int>(gen() % (total - first));
            const PortDimension dim = dims[gen() % 3];
            wide += span > bits::kWordBits;
            crossing += (base + first) / bits::kWordBits !=
                        (base + first + span - 1) / bits::kWordBits;

            std::vector<OutputVcView> views(static_cast<std::size_t>(span));
            bool any_free = false;
            for (int i = 0; i < span; ++i) {
              views[i].allocated = !free.Test(base + first + i);
              views[i].credits = credits[base + first + i];
              any_free |= !views[i].allocated;
            }
            VinLayout layout = Contiguous(k, total);
            layout.interleaved = interleaved;
            layout.first_vc = first;
            const VcWindow window{free.data(), credits.data(), base, first,
                                  span};
            SCOPED_TRACE(::testing::Message()
                         << "total=" << total << " k=" << k
                         << " interleaved=" << interleaved << " policy="
                         << static_cast<int>(policy) << " round=" << round);
            ASSERT_EQ(window.AnyFree(), any_free);
            ASSERT_EQ(PickOutputVc(policy, window, vins, dim, &rng),
                      ref::PickOutputVc(policy, views, layout, dim,
                                        &ref_rng));
            ASSERT_EQ(rng.state(), ref_rng.state());
          }
        }
      }
    }
  }
  EXPECT_GT(wide, 0);
  EXPECT_GT(crossing, 0);
}

}  // namespace
}  // namespace vixnoc
