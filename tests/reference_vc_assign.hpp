// Scalar reference for the VA stage's output-VC pick, kept for lockstep
// tests: the element-at-a-time form the router used before it picked from
// its free-VC words (router/vc_assign.hpp). Each candidate VC is one
// OutputVcView, and VinLayout maps candidates to virtual inputs.
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "router/vc_assign.hpp"
#include "routing/routing_algorithm.hpp"

namespace vixnoc::ref {

/// Snapshot of one output VC's allocation state.
struct OutputVcView {
  bool allocated = false;  ///< currently owned by another packet
  int credits = 0;         ///< free flit-buffers downstream
};

/// How candidate VCs map onto the downstream router's virtual inputs.
struct VinLayout {
  int num_vins = 1;         ///< virtual inputs at the downstream router
  int total_vcs = 1;        ///< VCs per port at the downstream router
  bool interleaved = false; ///< vc % k wiring instead of vc / (v/k)
  VcId first_vc = 0;        ///< actual VC id of candidate views[0]

  VinId VinOfView(int view_index) const {
    const VcId vc = first_vc + view_index;
    return interleaved ? vc % num_vins : vc / (total_vcs / num_vins);
  }
};

/// Picks a candidate index (into `views`), or -1 if none is free; the
/// contract of vixnoc::PickOutputVc.
int PickOutputVc(VcAssignPolicy policy,
                 const std::vector<OutputVcView>& views,
                 const VinLayout& layout, PortDimension downstream_dim,
                 Rng* rng = nullptr);

}  // namespace vixnoc::ref
