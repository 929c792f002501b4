#include "router/vc_assign.hpp"

#include <algorithm>
#include <bit>

#include "alloc/request_matrix.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"

namespace vixnoc {

namespace {

constexpr int kW = bits::kWordBits;

/// A window of at most 64 VCs, as one word: its free bits are read once.
class OneWordWindow {
 public:
  OneWordWindow(const VcWindow& w, const VinMasks& vins)
      : w_(w),
        vins_(vins),
        free_(bits::Extract(w.free, w.base + w.first, w.span)) {}

  int chunks() const { return 1; }
  std::uint64_t Free(int) const { return free_; }
  std::uint64_t Group(int vin, int) const {
    return vins_.Window(vin, w_.first, w_.span);
  }

 private:
  const VcWindow& w_;
  const VinMasks& vins_;
  std::uint64_t free_;
};

/// A wider window, a word at a time: chunk c holds window positions
/// [64c, 64c + 64).
class MultiWordWindow {
 public:
  MultiWordWindow(const VcWindow& w, const VinMasks& vins)
      : w_(w), vins_(vins) {}

  int chunks() const { return bits::WordCount(w_.span); }
  std::uint64_t Free(int c) const {
    return bits::Extract(w_.free, w_.base + w_.first + c * kW, Len(c));
  }
  std::uint64_t Group(int vin, int c) const {
    return vins_.Window(vin, w_.first + c * kW, Len(c));
  }

 private:
  int Len(int c) const { return std::min(kW, w_.span - c * kW); }

  const VcWindow& w_;
  const VinMasks& vins_;
};

/// The free VC with the most credits among the window positions whose bit
/// is set in `cand(chunk)`; ties go to the lowest position. -1 if none.
template <typename Window, typename Cand>
int BestFree(const Window& win, const VcWindow& w, Cand&& cand) {
  const std::int32_t* credits = w.credits + w.base + w.first;
  int best = -1;
  int best_credits = -1;
  for (int c = 0; c < win.chunks(); ++c) {
    for (std::uint64_t m = win.Free(c) & cand(c); m != 0; m &= m - 1) {
      const int i = c * kW + std::countr_zero(m);
      if (credits[i] > best_credits) {
        best = i;
        best_credits = credits[i];
      }
    }
  }
  return best;
}

template <typename Window>
int Pick(VcAssignPolicy policy, const Window& win, const VcWindow& w,
         int num_vins, PortDimension downstream_dim, Rng* rng) {
  if (policy == VcAssignPolicy::kRandomFree) {
    // Control arm for steering-policy studies: uniform over the free
    // candidates, blind to virtual inputs. One NextBounded draw per free
    // choice; no draw when zero or one candidate is free. The n-th free
    // VC in ascending order is taken.
    VIXNOC_DCHECK(rng != nullptr);
    int free_count = 0;
    for (int c = 0; c < win.chunks(); ++c) {
      free_count += std::popcount(win.Free(c));
    }
    if (free_count == 0) return -1;
    int target = free_count == 1
                     ? 0
                     : static_cast<int>(rng->NextBounded(
                           static_cast<std::uint64_t>(free_count)));
    for (int c = 0;; ++c) {
      const std::uint64_t m = win.Free(c);
      const int n = std::popcount(m);
      if (target < n) return c * kW + WordSpan(m, kW).NthSet(target);
      target -= n;
    }
  }

  const auto any = [](int) { return ~std::uint64_t{0}; };
  if (policy == VcAssignPolicy::kMaxCredits || num_vins == 1) {
    return BestFree(win, w, any);
  }

  // Determine the preferred sub-group.
  int preferred = -1;
  if (policy == VcAssignPolicy::kVixDimension) {
    switch (downstream_dim) {
      case PortDimension::kX:
        preferred = 0;
        break;
      case PortDimension::kY:
        preferred = 1 % num_vins;
        break;
      case PortDimension::kLocal:
        preferred = -1;  // no dimension info: fall through to balancing
        break;
    }
  }

  if (preferred < 0) {
    // Load balance: the candidate-set group with the fewest allocated
    // (non-free) VCs, lowest group on ties.
    int best_load = 0;
    for (int g = 0; g < num_vins; ++g) {
      bool present = false;
      int load = 0;
      for (int c = 0; c < win.chunks(); ++c) {
        const std::uint64_t group = win.Group(g, c);
        present |= group != 0;
        load += std::popcount(group & ~win.Free(c));
      }
      if (!present) continue;
      if (preferred < 0 || load < best_load) {
        preferred = g;
        best_load = load;
      }
    }
  }

  // Try the preferred sub-group first; fall back to any free VC so the
  // steering heuristic never blocks a packet a baseline router would admit.
  const int in_group =
      BestFree(win, w, [&](int c) { return win.Group(preferred, c); });
  if (in_group >= 0) return in_group;
  return BestFree(win, w, any);
}

}  // namespace

VinMasks::VinMasks(int num_vins, int num_vcs, bool interleaved)
    : num_vins_(num_vins), words_per_row_(bits::WordCount(num_vcs)) {
  VIXNOC_CHECK(num_vins >= 1 && num_vcs % num_vins == 0);
  rows_.assign(static_cast<std::size_t>(num_vins) * words_per_row_, 0);
  const int vcs_per_vin = num_vcs / num_vins;
  for (VcId vc = 0; vc < num_vcs; ++vc) {
    const int vin = interleaved ? vc % num_vins : vc / vcs_per_vin;
    rows_[static_cast<std::size_t>(vin) * words_per_row_ + vc / kW] |=
        std::uint64_t{1} << (vc % kW);
  }
}

std::uint64_t VinMasks::Window(int vin, VcId first, int len) const {
  VIXNOC_DCHECK(vin >= 0 && vin < num_vins_);
  return bits::Extract(
      rows_.data() + static_cast<std::size_t>(vin) * words_per_row_, first,
      len);
}

bool VcWindow::AnyFree() const {
  for (int pos = 0; pos < span; pos += kW) {
    if (bits::Extract(free, base + first + pos, std::min(kW, span - pos)) !=
        0) {
      return true;
    }
  }
  return false;
}

int PickOutputVc(VcAssignPolicy policy, const VcWindow& window,
                 const VinMasks& vins, PortDimension downstream_dim,
                 Rng* rng) {
  VIXNOC_DCHECK(window.span >= 1);
  if (window.span <= kW) {
    return Pick(policy, OneWordWindow(window, vins), window, vins.num_vins(),
                downstream_dim, rng);
  }
  return Pick(policy, MultiWordWindow(window, vins), window, vins.num_vins(),
              downstream_dim, rng);
}

}  // namespace vixnoc
