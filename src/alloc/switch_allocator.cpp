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

SwitchRequestSet::SwitchRequestSet(const SwitchGeometry& g)
    : num_inports_(g.num_inports),
      num_vcs_(g.num_vcs),
      ready_(static_cast<std::size_t>(
          bits::WordCount(num_inports_ * num_vcs_))),
      out_port_(static_cast<std::size_t>(num_inports_ * num_vcs_),
                kInvalidPort) {}

void SwitchRequestSet::Assign(const std::vector<SaRequest>& requests) {
  BitView bits(ready_.data(), num_inports_ * num_vcs_);
  bits.ClearAll();
  for (const SaRequest& r : requests) {
    VIXNOC_CHECK(r.in_port >= 0 && r.in_port < num_inports_ && r.vc >= 0 &&
                 r.vc < num_vcs_);
    const int idx = r.in_port * num_vcs_ + r.vc;
    bits.Set(idx);
    out_port_[idx] = r.out_port;
  }
}

void DropRequestsTo(BitView ready, const PortId* out_port, BitSpan blocked) {
  ready.ForEach([&](int idx) {
    if (blocked.Test(out_port[idx])) ready.Clear(idx);
  });
}

void DropSpeculativeConflicts(BitView ready, const PortId* out_port,
                              BitSpan speculative, BitView wants) {
  wants.ClearAll();
  bits::ForEachSetAndNotInRange(
      ready.data(), speculative.words(), 0, ready.size(),
      [&](int idx) { wants.Set(out_port[idx]); });
  ForEachSetAnd(ready.Span(), speculative, [&](int idx) {
    if (wants.Test(out_port[idx])) ready.Clear(idx);
  });
}

void SwitchAllocator::Allocate(const std::vector<SaRequest>& requests,
                               std::vector<SaGrant>* grants) {
  list_requests_.Assign(requests);
  Kernel(list_requests_.view(), grants);
}

bool GrantsAreLegal(const SwitchGeometry& geom,
                    const SwitchRequestView& requests,
                    const std::vector<SaGrant>& grants) {
  std::set<PortId> outs_used;
  std::set<std::pair<PortId, VinId>> xins_used;
  for (const SaGrant& g : grants) {
    if (g.in_port < 0 || g.in_port >= geom.num_inports) return false;
    if (g.out_port < 0 || g.out_port >= geom.num_outports) return false;
    if (g.vc < 0 || g.vc >= geom.num_vcs) return false;
    if (g.vin != geom.VinOfVc(g.vc)) return false;
    if (!requests.Test(g.in_port, g.vc) ||
        requests.out_port[g.in_port * requests.num_vcs + g.vc] != g.out_port) {
      return false;
    }
    if (!outs_used.insert(g.out_port).second) return false;
    if (!xins_used.insert({g.in_port, g.vin}).second) return false;
  }
  return true;
}

bool GrantsAreLegal(const SwitchGeometry& geom,
                    const std::vector<SaRequest>& requests,
                    const std::vector<SaGrant>& grants) {
  return GrantsAreLegal(geom, SwitchRequestSet(geom, requests).view(), grants);
}

CrossbarMap::CrossbarMap(const SwitchGeometry& g)
    : num_vcs_(g.num_vcs),
      vcs_per_vin_(g.VcsPerVin()),
      num_xins_(g.NumCrossbarInputs()),
      table_(static_cast<std::size_t>(3 * g.num_vcs + 2 * num_xins_)) {
  for (VcId vc = 0; vc < g.num_vcs; ++vc) {
    table_[vc] = g.VinOfVc(vc);
    table_[num_vcs_ + vc] = g.SubIndexOfVc(vc);
    table_[2 * num_vcs_ + g.VinOfVc(vc) * vcs_per_vin_ + g.SubIndexOfVc(vc)] =
        vc;
  }
  for (int xin = 0; xin < num_xins_; ++xin) {
    table_[3 * num_vcs_ + xin] = xin / g.num_vins;
    table_[3 * num_vcs_ + num_xins_ + xin] = xin % g.num_vins;
  }
}

void SwitchAllocator::AdvanceIdle(std::uint64_t n) {
  if (n == 0) return;
  std::vector<SaGrant> no_grants;  // stays empty: nothing to allocate
  Kernel(idle_requests_.view(), &no_grants);
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
      return MakeSeparableAllocator(g, kind);
    case AllocScheme::kWavefront:
      return MakeWavefrontAllocator(g);
    case AllocScheme::kAugmentingPath:
      return MakeAugmentingPathAllocator(g);
    case AllocScheme::kPacketChaining:
      return std::make_unique<PacketChainingAllocator>(g, kind);
    case AllocScheme::kIslip:
      return std::make_unique<IslipAllocator>(g);
    case AllocScheme::kSparoflo:
      return std::make_unique<SparofloAllocator>(g, kind);
    case AllocScheme::kSerenade:
      return MakeSerenadeAllocator(g, seed);
  }
  VIXNOC_CHECK(false);
  return nullptr;
}

}  // namespace vixnoc
