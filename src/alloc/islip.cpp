#include "alloc/islip.hpp"
#include "snapshot/state_archive.hpp"

#include <algorithm>

namespace vixnoc {

IslipAllocator::IslipAllocator(const SwitchGeometry& g, int iterations)
    : SwitchAllocator(g), iterations_(iterations) {
  VIXNOC_CHECK(g.num_vins == 1);
  VIXNOC_CHECK(iterations >= 1);
  grant_ptr_.assign(g.num_outports, 0);
  accept_ptr_.assign(g.num_inports, 0);
  vc_rr_.assign(static_cast<std::size_t>(g.num_inports) * g.num_outports, 0);
  out_req_.Resize(g.num_outports, g.num_inports);
  cell_vc_.Resize(g.num_inports * g.num_outports, g.num_vcs);
  grant_req_.Resize(g.num_inports, g.num_outports);
  free_in_.Resize(g.num_inports);
  match_in_.resize(g.num_inports);
  match_out_.resize(g.num_outports);
}

void IslipAllocator::Kernel(const SwitchRequestView& requests,
                            std::vector<SaGrant>* grants) {
  grants->clear();
  out_req_.ClearDirty();
  cell_vc_.ClearDirty();
  requests.ForEach([&](PortId in, VcId vc, PortId out) {
    out_req_.Set(out, in);
    cell_vc_.Set(in * geom_.num_outports + out, vc);
  });

  std::fill(match_in_.begin(), match_in_.end(), -1);
  std::fill(match_out_.begin(), match_out_.end(), -1);
  free_in_.SetAll();

  const int in_words = free_in_.word_count();
  for (int iter = 0; iter < iterations_; ++iter) {
    // Grant phase: each free output picks the first requesting free input
    // at or after its rotating pointer.
    grant_req_.ClearDirty();
    for (int out = 0; out < geom_.num_outports; ++out) {
      if (match_out_[out] != -1) continue;
      const int in = bits::FirstSetFromAnd(out_req_.Row(out).words(),
                                           free_in_.data(), in_words,
                                           grant_ptr_[out]);
      if (in >= 0) grant_req_.Set(in, out);
    }
    // Accept phase: each free input picks the first granting output at or
    // after its rotating pointer.
    bool progress = false;
    for (int w = 0; w < in_words; ++w) {
      std::uint64_t cur = free_in_.data()[w] & grant_req_.DirtyRows().data()[w];
      while (cur != 0) {
        const int in = w * bits::kWordBits + std::countr_zero(cur);
        cur &= cur - 1;
        const int chosen = grant_req_.Row(in).FirstFrom(accept_ptr_[in]);
        VIXNOC_DCHECK(chosen >= 0);
        match_in_[in] = chosen;
        match_out_[chosen] = in;
        free_in_.Clear(in);
        progress = true;
        if (iter == 0) {
          grant_ptr_[chosen] = (in + 1) % geom_.num_inports;
          accept_ptr_[in] = (chosen + 1) % geom_.num_outports;
        }
      }
    }
    if (!progress) break;
  }

  for (int in = 0; in < geom_.num_inports; ++in) {
    const int out = match_in_[in];
    if (out == -1) continue;
    const std::size_t cell =
        static_cast<std::size_t>(in) * geom_.num_outports + out;
    int& ptr = vc_rr_[cell];
    const VcId best = cell_vc_.Row(static_cast<int>(cell)).FirstFrom(ptr);
    VIXNOC_DCHECK(best >= 0);
    ptr = (best + 1) % geom_.num_vcs;
    grants->push_back(SaGrant{in, 0, best, out});
  }
}

void IslipAllocator::Reset() {
  std::fill(grant_ptr_.begin(), grant_ptr_.end(), 0);
  std::fill(accept_ptr_.begin(), accept_ptr_.end(), 0);
  std::fill(vc_rr_.begin(), vc_rr_.end(), 0);
}

void IslipAllocator::Visit(StateArchive& ar) {
  ar.VecI32(grant_ptr_, 0, geom_.num_inports, "iSLIP grant pointers");
  ar.VecI32(accept_ptr_, 0, geom_.num_outports, "iSLIP accept pointers");
  ar.VecI32(vc_rr_, 0, geom_.num_vcs, "iSLIP VC pointers");
}

}  // namespace vixnoc
