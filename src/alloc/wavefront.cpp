#include "alloc/wavefront.hpp"
#include "snapshot/state_archive.hpp"

#include <algorithm>

namespace vixnoc {

namespace {

template <typename Rows>
class WavefrontKernel final : public WavefrontAllocator {
 public:
  explicit WavefrontKernel(const SwitchGeometry& g) : WavefrontAllocator(g) {
    out_req_.Resize(g.num_inports, g.num_outports);
    cell_vc_.Resize(g.num_inports * g.num_outports, g.num_vcs);
    row_free_.Resize(g.num_inports);
    col_free_.Resize(g.num_outports);
  }

  void Kernel(const SwitchRequestView& requests,
              std::vector<SaGrant>* grants) override;

 private:
  // Scratch, rebuilt each cycle. cell_vc_ rows are set only under a bit of
  // out_req_, so clearing out_req_'s dirty rows' cells clears them all.
  typename Rows::Matrix out_req_;  // row in: requested output bits
  typename Rows::Cells cell_vc_;   // row (in * num_outports + out): VCs
  typename Rows::Bits row_free_;   // inputs not yet granted this cycle
  typename Rows::Bits col_free_;   // outputs not yet granted this cycle
};

template <typename Rows>
void WavefrontKernel<Rows>::Kernel(const SwitchRequestView& requests,
                                   std::vector<SaGrant>* grants) {
  grants->clear();
  const int outs = geom_.num_outports;
  out_req_.DirtyRows().ForEach([&](int i) {
    out_req_.Row(i).ForEach([&](int j) { cell_vc_.ClearRow(i * outs + j); });
  });
  out_req_.ClearDirty();
  requests.ForEach([&](PortId in, VcId vc, PortId out) {
    out_req_.Set(in, out);
    cell_vc_.Set(in * outs + out, vc);
  });

  row_free_.SetAll();
  col_free_.SetAll();

  // Sweep the n diagonals starting at the rotating priority diagonal. Only
  // inputs that are still free AND have some request can grant, so each
  // diagonal walks the AND of those two masks (ascending input index, the
  // same visit order as the original element scan), and once it is empty
  // no later diagonal can grant either.
  int diag = priority_diagonal_;
  for (int d = 0; d < n_ && AnySetAnd(row_free_.Span(),
                                      out_req_.DirtyRows().Span());
       ++d) {
    ForEachSetAnd(row_free_.Span(), out_req_.DirtyRows().Span(), [&](int i) {
      int j = diag + i;  // (diag + i) % n_, both terms below n_
      if (j >= n_) j -= n_;
      if (j >= outs) return;
      if (!col_free_.Test(j)) return;
      if (!out_req_.Test(i, j)) return;
      row_free_.Clear(i);
      col_free_.Clear(j);
      const int cell = i * outs + j;
      // Round-robin VC pick: smallest requesting vc >= pointer, wrapping.
      int& ptr = vc_rr_[static_cast<std::size_t>(cell)];
      const VcId best = cell_vc_.Row(cell).FirstFrom(ptr);
      VIXNOC_DCHECK(best >= 0);
      ptr = bits::NextWrapped(best, geom_.num_vcs);
      grants->push_back(SaGrant{i, 0, best, j});
    });
    diag = bits::NextWrapped(diag, n_);
  }
  priority_diagonal_ = bits::NextWrapped(priority_diagonal_, n_);
}

}  // namespace

WavefrontAllocator::WavefrontAllocator(const SwitchGeometry& g)
    : SwitchAllocator(g), n_(std::max(g.num_inports, g.num_outports)) {
  VIXNOC_CHECK(g.num_vins == 1);
  vc_rr_.assign(static_cast<std::size_t>(geom_.num_inports) *
                    geom_.num_outports,
                0);
}

void WavefrontAllocator::Reset() {
  priority_diagonal_ = 0;
  std::fill(vc_rr_.begin(), vc_rr_.end(), 0);
}

void WavefrontAllocator::AdvanceIdle(std::uint64_t n) {
  priority_diagonal_ = static_cast<int>(
      (static_cast<std::uint64_t>(priority_diagonal_) + n) % n_);
}

void WavefrontAllocator::Visit(StateArchive& ar) {
  ar.I32(priority_diagonal_, 0, n_, "wavefront diagonal");
  ar.VecI32(vc_rr_, 0, geom_.num_vcs, "wavefront VC pointers");
}

std::unique_ptr<SwitchAllocator> MakeWavefrontAllocator(
    const SwitchGeometry& g) {
  return MakeWithRows<WavefrontKernel>(
      OneWordRows::Fits(g.num_inports) && OneWordRows::Fits(g.num_outports) &&
          OneWordRows::Fits(g.num_vcs),
      g);
}

}  // namespace vixnoc
