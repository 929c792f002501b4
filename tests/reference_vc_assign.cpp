#include "reference_vc_assign.hpp"

#include "common/check.hpp"

namespace vixnoc::ref {

namespace {

/// Free candidate with max credits whose virtual input is `group`
/// (group < 0 matches every group); ties go to the lowest index.
int BestInGroup(const std::vector<OutputVcView>& views,
                const VinLayout& layout, int group) {
  int best = -1;
  int best_credits = -1;
  for (int i = 0; i < static_cast<int>(views.size()); ++i) {
    if (views[i].allocated) continue;
    if (group >= 0 && layout.VinOfView(i) != group) continue;
    if (views[i].credits > best_credits) {
      best = i;
      best_credits = views[i].credits;
    }
  }
  return best;
}

int AllocatedInGroup(const std::vector<OutputVcView>& views,
                     const VinLayout& layout, int group) {
  int n = 0;
  for (int i = 0; i < static_cast<int>(views.size()); ++i) {
    if (layout.VinOfView(i) == group && views[i].allocated) ++n;
  }
  return n;
}

bool GroupPresent(const std::vector<OutputVcView>& views,
                  const VinLayout& layout, int group) {
  for (int i = 0; i < static_cast<int>(views.size()); ++i) {
    if (layout.VinOfView(i) == group) return true;
  }
  return false;
}

}  // namespace

int PickOutputVc(VcAssignPolicy policy,
                 const std::vector<OutputVcView>& views,
                 const VinLayout& layout, PortDimension downstream_dim,
                 Rng* rng) {
  VIXNOC_DCHECK(!views.empty());
  VIXNOC_DCHECK(layout.num_vins >= 1 &&
                layout.total_vcs % layout.num_vins == 0);

  if (policy == VcAssignPolicy::kRandomFree) {
    // Control arm for steering-policy studies: uniform over the free
    // candidates, blind to virtual inputs. One NextBounded draw per free
    // choice; no draw when zero or one candidate is free.
    VIXNOC_DCHECK(rng != nullptr);
    int free_count = 0;
    for (const OutputVcView& v : views) free_count += v.allocated ? 0 : 1;
    if (free_count == 0) return -1;
    int target = free_count == 1
                     ? 0
                     : static_cast<int>(rng->NextBounded(
                           static_cast<std::uint64_t>(free_count)));
    for (int i = 0; i < static_cast<int>(views.size()); ++i) {
      if (views[i].allocated) continue;
      if (target-- == 0) return i;
    }
    return -1;  // unreachable
  }

  if (policy == VcAssignPolicy::kMaxCredits || layout.num_vins == 1) {
    return BestInGroup(views, layout, -1);
  }

  // Determine the preferred sub-group.
  int preferred = -1;
  if (policy == VcAssignPolicy::kVixDimension) {
    switch (downstream_dim) {
      case PortDimension::kX:
        preferred = 0;
        break;
      case PortDimension::kY:
        preferred = 1 % layout.num_vins;
        break;
      case PortDimension::kLocal:
        preferred = -1;  // no dimension info: fall through to balancing
        break;
    }
  }

  if (preferred < 0) {
    // Load balance: the candidate-set group with the fewest allocated VCs.
    int best_group = -1;
    int best_load = 0;
    for (int g = 0; g < layout.num_vins; ++g) {
      if (!GroupPresent(views, layout, g)) continue;
      const int load = AllocatedInGroup(views, layout, g);
      if (best_group < 0 || load < best_load) {
        best_group = g;
        best_load = load;
      }
    }
    preferred = best_group;
  }

  // Try the preferred sub-group first; fall back to any free VC so the
  // steering heuristic never blocks a packet a baseline router would admit.
  const int in_group = BestInGroup(views, layout, preferred);
  if (in_group >= 0) return in_group;
  return BestInGroup(views, layout, -1);
}

}  // namespace vixnoc::ref
