#include "alloc/wavefront.hpp"
#include "common/error.hpp"
#include "snapshot/snapshot.hpp"

#include <algorithm>

namespace vixnoc {

WavefrontAllocator::WavefrontAllocator(const SwitchGeometry& g)
    : SwitchAllocator(g), n_(std::max(g.num_inports, g.num_outports)) {
  VIXNOC_CHECK(g.num_vins == 1);
  vc_rr_.assign(static_cast<std::size_t>(geom_.num_inports) *
                    geom_.num_outports,
                0);
  out_req_.Resize(geom_.num_inports, geom_.num_outports);
  cell_vc_.Resize(geom_.num_inports * geom_.num_outports, geom_.num_vcs);
  row_free_.Resize(geom_.num_inports);
  col_free_.Resize(geom_.num_outports);
}

void WavefrontAllocator::Allocate(const std::vector<SaRequest>& requests,
                                  std::vector<SaGrant>* grants) {
  grants->clear();
  out_req_.ClearDirty();
  cell_vc_.ClearDirty();
  for (const SaRequest& r : requests) {
    out_req_.Set(r.in_port, r.out_port);
    cell_vc_.Set(r.in_port * geom_.num_outports + r.out_port, r.vc);
  }

  row_free_.SetAll();
  col_free_.SetAll();

  // Sweep all n diagonals starting at the rotating priority diagonal. Only
  // inputs that are still free AND have some request can grant, so each
  // diagonal walks the word-AND of those two masks (ascending input index,
  // the same visit order as the original element scan).
  const std::uint64_t* req_rows = out_req_.DirtyRows().data();
  const int row_words = row_free_.word_count();
  for (int d = 0; d < n_; ++d) {
    const int diag = (priority_diagonal_ + d) % n_;
    for (int w = 0; w < row_words; ++w) {
      std::uint64_t cur = row_free_.data()[w] & req_rows[w];
      while (cur != 0) {
        const int i = w * bits::kWordBits + std::countr_zero(cur);
        cur &= cur - 1;
        const int j = (diag + i) % n_;
        if (j >= geom_.num_outports) continue;
        if (!col_free_.Test(j)) continue;
        if (!out_req_.Row(i).Test(j)) continue;
        row_free_.Clear(i);
        col_free_.Clear(j);
        const std::size_t cell =
            static_cast<std::size_t>(i) * geom_.num_outports + j;
        // Round-robin VC pick: smallest requesting vc >= pointer, wrapping.
        int& ptr = vc_rr_[cell];
        const VcId best = cell_vc_.Row(static_cast<int>(cell)).FirstFrom(ptr);
        VIXNOC_DCHECK(best >= 0);
        ptr = (best + 1) % geom_.num_vcs;
        grants->push_back(SaGrant{i, 0, best, j});
      }
    }
  }
  priority_diagonal_ = (priority_diagonal_ + 1) % n_;
}

void WavefrontAllocator::Reset() {
  priority_diagonal_ = 0;
  std::fill(vc_rr_.begin(), vc_rr_.end(), 0);
}

void WavefrontAllocator::AdvanceIdle(std::uint64_t n) {
  priority_diagonal_ = static_cast<int>(
      (static_cast<std::uint64_t>(priority_diagonal_) + n) % n_);
}

void WavefrontAllocator::SaveState(SnapshotWriter& w) const {
  w.I32(priority_diagonal_);
  w.VecI32(vc_rr_);
}

void WavefrontAllocator::LoadState(SnapshotReader& r) {
  const int diagonal = r.I32();
  VIXNOC_REQUIRE(diagonal >= 0 && diagonal < n_,
                 "restored wavefront diagonal %d outside [0, %d)", diagonal,
                 n_);
  priority_diagonal_ = diagonal;
  std::vector<int> rr = r.VecI32();
  VIXNOC_REQUIRE(rr.size() == vc_rr_.size(),
                 "restored wavefront VC pointers have %zu entries, expected "
                 "%zu",
                 rr.size(), vc_rr_.size());
  vc_rr_ = std::move(rr);
}

}  // namespace vixnoc
