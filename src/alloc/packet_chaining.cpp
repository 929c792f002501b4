#include "alloc/packet_chaining.hpp"
#include "common/error.hpp"
#include "snapshot/snapshot.hpp"

#include <algorithm>

namespace vixnoc {

PacketChainingAllocator::PacketChainingAllocator(const SwitchGeometry& g,
                                                 ArbiterKind kind)
    : SwitchAllocator(g),
      chain_(g.num_outports, -1),
      chain_vc_rr_(static_cast<std::size_t>(g.num_inports) * g.num_outports,
                   0),
      separable_(MakeSeparableAllocator(g, kind)) {
  VIXNOC_CHECK(g.num_vins == 1);
}

void PacketChainingAllocator::Allocate(const std::vector<SaRequest>& requests,
                                       std::vector<SaGrant>* grants) {
  grants->clear();

  std::vector<bool> in_busy(static_cast<std::size_t>(geom_.num_inports),
                            false);
  std::vector<bool> out_busy(static_cast<std::size_t>(geom_.num_outports),
                             false);

  // Phase A: renew chains. A chain (in -> out) survives if any VC at `in`
  // requests `out` this cycle; "anyVC" means the continuing flit may come
  // from a different VC than the one that formed the chain.
  std::vector<int> new_chain(static_cast<std::size_t>(geom_.num_outports),
                             -1);
  for (PortId out = 0; out < geom_.num_outports; ++out) {
    const int in = chain_[out];
    if (in == -1) continue;
    if (in_busy[in]) continue;  // another output's chain already took `in`
    // Collect this cycle's VCs at (in, out).
    VcId best = kInvalidVc;
    const std::size_t cell =
        static_cast<std::size_t>(in) * geom_.num_outports + out;
    int& ptr = chain_vc_rr_[cell];
    VcId wrap_best = kInvalidVc;
    for (const SaRequest& r : requests) {
      if (r.in_port != in || r.out_port != out) continue;
      if (r.vc >= ptr && (best == kInvalidVc || r.vc < best)) best = r.vc;
      if (wrap_best == kInvalidVc || r.vc < wrap_best) wrap_best = r.vc;
    }
    if (best == kInvalidVc) best = wrap_best;
    if (best == kInvalidVc) continue;  // chain broken: no request this cycle
    ptr = (best + 1) % geom_.num_vcs;
    in_busy[in] = true;
    out_busy[out] = true;
    new_chain[out] = in;
    ++chained_grants_;
    grants->push_back(SaGrant{in, 0, best, out});
  }

  // Phase B: separable IF over the residual request matrix (unchained
  // inputs requesting unchained outputs).
  residual_requests_.clear();
  for (const SaRequest& r : requests) {
    if (in_busy[r.in_port] || out_busy[r.out_port]) continue;
    residual_requests_.push_back(r);
  }
  separable_->Allocate(residual_requests_, &residual_grants_);
  for (const SaGrant& g : residual_grants_) {
    new_chain[g.out_port] = g.in_port;
    grants->push_back(g);
  }

  chain_ = std::move(new_chain);
}

void PacketChainingAllocator::Reset() {
  std::fill(chain_.begin(), chain_.end(), -1);
  std::fill(chain_vc_rr_.begin(), chain_vc_rr_.end(), 0);
  separable_->Reset();
  chained_grants_ = 0;
}

void PacketChainingAllocator::SaveState(SnapshotWriter& w) const {
  w.VecI32(chain_);
  w.VecI32(chain_vc_rr_);
  separable_->SaveState(w);
  w.U64(chained_grants_);
}

void PacketChainingAllocator::LoadState(SnapshotReader& r) {
  std::vector<int> chain = r.VecI32();
  std::vector<int> rr = r.VecI32();
  VIXNOC_REQUIRE(chain.size() == chain_.size() &&
                     rr.size() == chain_vc_rr_.size(),
                 "restored packet-chaining state does not match this "
                 "allocator's geometry");
  chain_ = std::move(chain);
  chain_vc_rr_ = std::move(rr);
  separable_->LoadState(r);
  chained_grants_ = r.U64();
}

}  // namespace vixnoc
