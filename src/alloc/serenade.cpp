#include "alloc/serenade.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "snapshot/snapshot.hpp"
#include "snapshot/state_io.hpp"

namespace vixnoc {

namespace {

template <typename Rows>
class SerenadeKernel final : public SerenadeAllocator {
 public:
  SerenadeKernel(const SwitchGeometry& g, std::uint64_t seed)
      : SerenadeAllocator(g, seed) {
    request_.Resize(g.num_inports, g.num_outports);
    cell_vc_.Resize(g.num_inports * g.num_outports, g.num_vcs);
  }

  void Allocate(const std::vector<SaRequest>& requests,
                std::vector<SaGrant>* grants) override;

 private:
  /// Live weight of edge (in, out): distinct requesting VCs, 0 if the pair
  /// has no request this cycle.
  int EdgeWeight(int in, int out) const {
    if (out < 0 || !request_.Test(in, out)) return 0;
    return cell_vc_.Row(in * geom_.num_outports + out).Count();
  }

  typename Rows::Matrix request_;  // row in: requested output bits
  // Row (in * num_outports + out): requesting VCs; set only under a bit of
  // request_, so clearing request_'s dirty rows' cells clears them all.
  typename Rows::Cells cell_vc_;
};

template <typename Rows>
void SerenadeKernel<Rows>::Allocate(const std::vector<SaRequest>& requests,
                                    std::vector<SaGrant>* grants) {
  grants->clear();
  const int outs = geom_.num_outports;
  request_.DirtyRows().ForEach([&](int in) {
    request_.Row(in).ForEach(
        [&](int out) { cell_vc_.ClearRow(in * outs + out); });
  });
  request_.ClearDirty();
  for (const SaRequest& r : requests) {
    request_.Set(r.in_port, r.out_port);
    cell_vc_.Set(r.in_port * outs + r.out_port, r.vc);
  }

  // Phase 1 — randomized proposal matching R. Every requesting input picks
  // one of its requested outputs uniformly at random (one RNG draw per
  // requesting input, ascending input order — the determinism contract);
  // each output accepts its heaviest proposer, earliest input on ties.
  std::fill(prop_in_.begin(), prop_in_.end(), -1);
  std::fill(prop_out_.begin(), prop_out_.end(), -1);
  std::fill(prop_w_.begin(), prop_w_.end(), 0);
  request_.DirtyRows().ForEach([&](int in) {
    const auto row = request_.Row(in);
    const int count = row.Count();
    const int out = row.NthSet(static_cast<int>(
        rng_.NextBounded(static_cast<std::uint64_t>(count))));
    const int w = EdgeWeight(in, out);
    const int incumbent = prop_out_[out];
    if (incumbent == -1 || w > prop_w_[out]) {
      if (incumbent != -1) prop_in_[incumbent] = -1;
      prop_in_[in] = out;
      prop_out_[out] = in;
      prop_w_[out] = w;
    }
  });

  // Phase 2 — knot decomposition of P (previous matching) union R. Every
  // vertex has at most one P edge and one R edge, so the union splits into
  // alternating paths and even cycles; each knot keeps whichever side
  // weighs more, preferring the fresh proposal on ties so zero-weight
  // stale knots dissolve rather than persist.
  std::fill(prev_out_.begin(), prev_out_.end(), -1);
  for (int in = 0; in < geom_.num_inports; ++in) {
    if (prev_match_[in] != -1) prev_out_[prev_match_[in]] = in;
  }
  std::fill(match_in_.begin(), match_in_.end(), -1);
  std::fill(in_seen_.begin(), in_seen_.end(), 0);
  std::fill(out_seen_.begin(), out_seen_.end(), 0);
  for (int start = 0; start < geom_.num_inports; ++start) {
    if (in_seen_[start]) continue;
    comp_in_.clear();
    stack_.clear();
    stack_.push_back(start);
    in_seen_[start] = 1;
    while (!stack_.empty()) {
      const int v = stack_.back();
      stack_.pop_back();
      if (v >= 0) {
        comp_in_.push_back(v);
        for (const int out : {prev_match_[v], prop_in_[v]}) {
          if (out != -1 && !out_seen_[out]) {
            out_seen_[out] = 1;
            stack_.push_back(-(out + 1));
          }
        }
      } else {
        const int out = -v - 1;
        for (const int in : {prev_out_[out], prop_out_[out]}) {
          if (in != -1 && !in_seen_[in]) {
            in_seen_[in] = 1;
            stack_.push_back(in);
          }
        }
      }
    }
    int sum_p = 0;
    int sum_r = 0;
    for (const int in : comp_in_) {
      sum_p += EdgeWeight(in, prev_match_[in]);
      sum_r += EdgeWeight(in, prop_in_[in]);
    }
    const bool keep_r = sum_r >= sum_p;
    for (const int in : comp_in_) {
      const int out = keep_r ? prop_in_[in] : prev_match_[in];
      if (out != -1) match_in_[in] = out;
    }
  }
  prev_match_ = match_in_;

  // Phase 3 — grants for matched pairs with a live request; VC chosen by
  // the per-(in,out) round-robin pointer, same idiom as iSLIP/AP.
  // Only inputs with a request can hold a live pair: the dirty rows, in
  // ascending order.
  request_.DirtyRows().ForEach([&](int in) {
    const int out = match_in_[in];
    if (out == -1 || !request_.Test(in, out)) return;
    const int cell = in * outs + out;
    int& ptr = vc_rr_[static_cast<std::size_t>(cell)];
    const VcId best = cell_vc_.Row(cell).FirstFrom(ptr);
    VIXNOC_DCHECK(best >= 0);
    ptr = bits::NextWrapped(best, geom_.num_vcs);
    grants->push_back(SaGrant{in, 0, best, out});
  });
}


}  // namespace

SerenadeAllocator::SerenadeAllocator(const SwitchGeometry& g,
                                     std::uint64_t seed)
    : SwitchAllocator(g), seed_(seed), rng_(seed) {
  VIXNOC_CHECK(g.num_vins == 1);
  prev_match_.assign(g.num_inports, -1);
  vc_rr_.assign(static_cast<std::size_t>(g.num_inports) * g.num_outports, 0);
  prop_in_.resize(g.num_inports);
  prop_out_.resize(g.num_outports);
  prop_w_.resize(g.num_outports);
  prev_out_.resize(g.num_outports);
  match_in_.resize(g.num_inports);
  in_seen_.resize(g.num_inports);
  out_seen_.resize(g.num_outports);
  comp_in_.reserve(g.num_inports);
  stack_.reserve(g.num_inports + g.num_outports);
}

void SerenadeAllocator::Reset() {
  std::fill(prev_match_.begin(), prev_match_.end(), -1);
  std::fill(vc_rr_.begin(), vc_rr_.end(), 0);
  rng_.Reseed(seed_);
}

void SerenadeAllocator::SaveState(SnapshotWriter& w) const {
  w.VecI32(prev_match_);
  w.VecI32(vc_rr_);
  SaveRng(w, rng_);
}

void SerenadeAllocator::LoadState(SnapshotReader& r) {
  std::vector<int> match = r.VecI32();
  std::vector<int> rr = r.VecI32();
  VIXNOC_REQUIRE(match.size() == prev_match_.size() &&
                     rr.size() == vc_rr_.size(),
                 "restored SERENADE state does not match this allocator's "
                 "geometry");
  for (const int out : match) {
    VIXNOC_REQUIRE(out >= -1 && out < geom_.num_outports,
                   "restored SERENADE matching names output %d outside "
                   "[0, %d)",
                   out, geom_.num_outports);
  }
  for (const int ptr : rr) {
    VIXNOC_REQUIRE(ptr >= 0 && ptr < geom_.num_vcs,
                   "restored SERENADE VC pointer %d outside [0, %d)", ptr,
                   geom_.num_vcs);
  }
  prev_match_ = std::move(match);
  vc_rr_ = std::move(rr);
  LoadRng(r, &rng_);
}

std::unique_ptr<SwitchAllocator> MakeSerenadeAllocator(const SwitchGeometry& g,
                                                       std::uint64_t seed) {
  return MakeWithRows<SerenadeKernel>(OneWordRows::Fits(g.num_inports) &&
                                          OneWordRows::Fits(g.num_outports) &&
                                          OneWordRows::Fits(g.num_vcs),
                                      g, seed);
}

}  // namespace vixnoc
