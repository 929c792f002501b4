#include "alloc/packet_chaining.hpp"
#include "snapshot/state_archive.hpp"

#include <algorithm>

namespace vixnoc {

PacketChainingAllocator::PacketChainingAllocator(const SwitchGeometry& g,
                                                 ArbiterKind kind)
    : SwitchAllocator(g),
      chain_(g.num_outports, -1),
      chain_vc_rr_(static_cast<std::size_t>(g.num_inports) * g.num_outports,
                   0),
      separable_(MakeSeparableAllocator(g, kind)),
      residual_ready_(static_cast<std::size_t>(
          bits::WordCount(g.num_inports * g.num_vcs))) {
  VIXNOC_CHECK(g.num_vins == 1);
}

void PacketChainingAllocator::Kernel(const SwitchRequestView& requests,
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
    requests.ForEachOf(in, [&](VcId vc, PortId vc_out) {
      if (vc_out != out) return;
      if (vc >= ptr && best == kInvalidVc) best = vc;
      if (wrap_best == kInvalidVc) wrap_best = vc;
    });
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
  SwitchRequestView residual = requests;
  residual.ready = residual_ready_.data();
  BitView residual_bits(residual_ready_.data(), requests.size());
  residual_bits.CopyFrom(BitSpan(requests.ready, requests.size()));
  requests.ForEach([&](PortId in, VcId vc, PortId out) {
    if (in_busy[in] || out_busy[out]) {
      residual_bits.Clear(in * geom_.num_vcs + vc);
    }
  });
  separable_->Allocate(residual, &residual_grants_);
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

void PacketChainingAllocator::Visit(StateArchive& ar) {
  ar.VecI32(chain_, -1, geom_.num_inports, "packet-chaining chains");
  ar.VecI32(chain_vc_rr_, 0, geom_.num_vcs, "packet-chaining VC pointers");
  separable_->Visit(ar);
  ar.U64(chained_grants_);
}

}  // namespace vixnoc
