#include "alloc/switch_allocator.hpp"

#include <set>

#include "common/error.hpp"

#include "alloc/augmenting_path.hpp"
#include "alloc/islip.hpp"
#include "alloc/packet_chaining.hpp"
#include "alloc/separable.hpp"
#include "alloc/serenade.hpp"
#include "alloc/sparoflo.hpp"
#include "alloc/wavefront.hpp"

namespace vixnoc {

bool GrantsAreLegal(const SwitchGeometry& geom,
                    const std::vector<SaRequest>& requests,
                    const std::vector<SaGrant>& grants) {
  std::set<std::pair<PortId, VcId>> req_index;
  std::set<std::tuple<PortId, VcId, PortId>> req_full;
  for (const SaRequest& r : requests) {
    req_index.emplace(r.in_port, r.vc);
    req_full.emplace(r.in_port, r.vc, r.out_port);
  }
  std::set<PortId> outs_used;
  std::set<std::pair<PortId, VinId>> xins_used;
  for (const SaGrant& g : grants) {
    if (g.in_port < 0 || g.in_port >= geom.num_inports) return false;
    if (g.out_port < 0 || g.out_port >= geom.num_outports) return false;
    if (g.vc < 0 || g.vc >= geom.num_vcs) return false;
    if (g.vin != geom.VinOfVc(g.vc)) return false;
    if (!req_full.count({g.in_port, g.vc, g.out_port})) return false;
    if (!outs_used.insert(g.out_port).second) return false;
    if (!xins_used.insert({g.in_port, g.vin}).second) return false;
  }
  return true;
}

void SwitchAllocator::AdvanceIdle(std::uint64_t n) {
  if (n == 0) return;
  static const std::vector<SaRequest> kNoRequests;
  std::vector<SaGrant> no_grants;  // stays empty: nothing to allocate
  Allocate(kNoRequests, &no_grants);
}

int VirtualInputsForScheme(AllocScheme scheme, int num_vcs) {
  switch (scheme) {
    case AllocScheme::kVix:
      return 2;
    case AllocScheme::kVixIdeal:
      return num_vcs;
    default:
      return 1;
  }
}

std::unique_ptr<SwitchAllocator> MakeSwitchAllocator(AllocScheme scheme,
                                                     const SwitchGeometry& g,
                                                     ArbiterKind kind,
                                                     std::uint64_t seed) {
  VIXNOC_REQUIRE(g.Valid(),
                 "invalid switch geometry: %d inports, %d outports, %d VCs, "
                 "%d virtual inputs (need positive sizes and num_vcs "
                 "divisible by num_vins)",
                 g.num_inports, g.num_outports, g.num_vcs, g.num_vins);
  // kVix admits any sub-group count in [2, num_vcs] (1:k crossbars); every
  // other scheme has a fixed virtual-input geometry.
  if (scheme == AllocScheme::kVix) {
    VIXNOC_REQUIRE(g.num_vins >= 2 && g.num_vins <= g.num_vcs,
                   "%s requires virtual inputs in [2, num_vcs=%d], got %d",
                   ToString(scheme).c_str(), g.num_vcs, g.num_vins);
  } else {
    VIXNOC_REQUIRE(g.num_vins == VirtualInputsForScheme(scheme, g.num_vcs),
                   "%s requires %d virtual input(s) for %d VCs, got %d",
                   ToString(scheme).c_str(),
                   VirtualInputsForScheme(scheme, g.num_vcs), g.num_vcs,
                   g.num_vins);
  }
  switch (scheme) {
    case AllocScheme::kInputFirst:
    case AllocScheme::kVix:
    case AllocScheme::kVixIdeal:
      return std::make_unique<SeparableInputFirstAllocator>(g, kind);
    case AllocScheme::kWavefront:
      return std::make_unique<WavefrontAllocator>(g);
    case AllocScheme::kAugmentingPath:
      return std::make_unique<AugmentingPathAllocator>(g);
    case AllocScheme::kPacketChaining:
      return std::make_unique<PacketChainingAllocator>(g, kind);
    case AllocScheme::kIslip:
      return std::make_unique<IslipAllocator>(g);
    case AllocScheme::kSparoflo:
      return std::make_unique<SparofloAllocator>(g, kind);
    case AllocScheme::kSerenade:
      return std::make_unique<SerenadeAllocator>(g, seed);
  }
  VIXNOC_CHECK(false);
  return nullptr;
}

}  // namespace vixnoc
