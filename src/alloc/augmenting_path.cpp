#include "alloc/augmenting_path.hpp"
#include "common/error.hpp"
#include "snapshot/state_archive.hpp"

#include <algorithm>

namespace vixnoc {

namespace {

template <typename Rows>
class AugmentingPathKernel final : public AugmentingPathAllocator {
 public:
  AugmentingPathKernel(const SwitchGeometry& g, bool rotate_vcs)
      : AugmentingPathAllocator(g, rotate_vcs) {
    request_.Resize(g.num_inports, g.num_outports);
    cell_vc_.Resize(g.num_inports * g.num_outports, g.num_vcs);
    visited_.Resize(g.num_outports);
  }

  void Kernel(const SwitchRequestView& requests,
              std::vector<SaGrant>* grants) override;

 private:
  bool TryAugment(int in);

  // request_ row `in`: bit `out` set if any VC at `in` requests `out`.
  typename Rows::Matrix request_;
  // Row (in * num_outports + out): requesting VCs; set only under a bit of
  // request_, so clearing request_'s dirty rows' cells clears them all.
  typename Rows::Cells cell_vc_;
  typename Rows::Bits visited_;  // per-augment DFS scratch, one bit/output
};

template <typename Rows>
bool AugmentingPathKernel<Rows>::TryAugment(int in) {
  // DFS over this input's requested outputs in ascending order, skipping
  // outputs already visited on this augmenting path. The visited mask can
  // gain bits during the recursive call, so re-AND against it after every
  // probe rather than snapshotting the row once.
  const auto row = request_.Row(in);
  while (true) {
    const int out = FirstSetAndNot(row, visited_.Span());
    if (out < 0) return false;
    visited_.Set(out);
    ++last_iterations_;
    VIXNOC_REQUIRE(last_iterations_ <= work_limit_,
                   "augmenting-path allocator exceeded its work bound "
                   "(%d probes, limit %lld) on a %dx%d switch",
                   last_iterations_,
                   static_cast<long long>(work_limit_),
                   geom_.num_inports, geom_.num_outports);
    if (match_of_out_[out] == -1 || TryAugment(match_of_out_[out])) {
      match_of_out_[out] = in;
      match_of_in_[in] = out;
      return true;
    }
  }
}

template <typename Rows>
void AugmentingPathKernel<Rows>::Kernel(const SwitchRequestView& requests,
                                        std::vector<SaGrant>* grants) {
  grants->clear();
  last_iterations_ = 0;
  std::fill(match_of_out_.begin(), match_of_out_.end(), -1);
  std::fill(match_of_in_.begin(), match_of_in_.end(), -1);
  const int outs = geom_.num_outports;
  request_.DirtyRows().ForEach([&](int in) {
    request_.Row(in).ForEach(
        [&](int out) { cell_vc_.ClearRow(in * outs + out); });
  });
  request_.ClearDirty();

  requests.ForEach([&](PortId in, VcId vc, PortId out) {
    request_.Set(in, out);
    cell_vc_.Set(in * outs + out, vc);
  });

  // Kuhn's algorithm: process inputs in fixed ascending order. Inputs with
  // no requests cannot augment, so only dirty rows are visited.
  request_.DirtyRows().ForEach([&](int in) {
    visited_.ClearAll();
    TryAugment(in);
  });

  // Every matched input has a request, so the dirty rows cover them all,
  // in ascending order.
  request_.DirtyRows().ForEach([&](int in) {
    const int out = match_of_in_[in];
    if (out == -1) return;
    const int cell = in * outs + out;
    const auto vcs = cell_vc_.Row(cell);
    int& ptr = vc_rr_[static_cast<std::size_t>(cell)];
    const VcId best = rotate_vcs_ ? vcs.FirstFrom(ptr) : vcs.First();
    VIXNOC_DCHECK(best >= 0);
    ptr = bits::NextWrapped(best, geom_.num_vcs);
    grants->push_back(SaGrant{in, 0, best, out});
  });
}

}  // namespace

AugmentingPathAllocator::AugmentingPathAllocator(const SwitchGeometry& g,
                                                 bool rotate_vcs)
    : SwitchAllocator(g), rotate_vcs_(rotate_vcs) {
  VIXNOC_CHECK(g.num_vins == 1);
  match_of_out_.assign(g.num_outports, -1);
  match_of_in_.assign(g.num_inports, -1);
  vc_rr_.assign(static_cast<std::size_t>(g.num_inports) * g.num_outports, 0);
  const std::int64_t p = std::max(g.num_inports, g.num_outports);
  work_limit_ = p * p * (p + 1);
}

void AugmentingPathAllocator::set_work_limit(std::int64_t limit) {
  VIXNOC_CHECK(limit > 0);
  work_limit_ = limit;
}

void AugmentingPathAllocator::Reset() {
  std::fill(vc_rr_.begin(), vc_rr_.end(), 0);
  last_iterations_ = 0;
}

void AugmentingPathAllocator::Visit(StateArchive& ar) {
  ar.VecI32(vc_rr_, 0, geom_.num_vcs, "AP VC pointers");
  ar.I32(last_iterations_);
}

std::unique_ptr<SwitchAllocator> MakeAugmentingPathAllocator(
    const SwitchGeometry& g, bool rotate_vcs) {
  return MakeWithRows<AugmentingPathKernel>(
      OneWordRows::Fits(g.num_inports) && OneWordRows::Fits(g.num_outports) &&
          OneWordRows::Fits(g.num_vcs),
      g, rotate_vcs);
}

}  // namespace vixnoc
