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
    cell_w_.assign(static_cast<std::size_t>(g.num_inports) * g.num_outports,
                   0);
  }

  void Allocate(const std::vector<SaRequest>& requests,
                std::vector<SaGrant>* grants) override;

 private:
  /// Live weight of edge (in, out): distinct requesting VCs, 0 if the pair
  /// has no request this cycle (or out is -1, no edge).
  int EdgeWeight(int in, int out) const {
    return out < 0 ? 0 : cell_w_[in * geom_.num_outports + out];
  }

  typename Rows::Matrix request_;  // row in: requested output bits
  // Row (in * num_outports + out): requesting VCs; set only under a bit of
  // request_, so clearing request_'s dirty rows' cells clears them all.
  typename Rows::Cells cell_vc_;
  // Per cell: the number of bits in its cell_vc_ row, counted as requests
  // enter and cleared with them.
  std::vector<int> cell_w_;
};

template <typename Rows>
void SerenadeKernel<Rows>::Allocate(const std::vector<SaRequest>& requests,
                                    std::vector<SaGrant>* grants) {
  grants->clear();
  const int outs = geom_.num_outports;
  request_.DirtyRows().ForEach([&](int in) {
    request_.Row(in).ForEach([&](int out) {
      cell_vc_.ClearRow(in * outs + out);
      cell_w_[in * outs + out] = 0;
    });
  });
  request_.ClearDirty();
  for (const SaRequest& r : requests) {
    const int cell = r.in_port * outs + r.out_port;
    request_.Set(r.in_port, r.out_port);
    if (!cell_vc_.Test(cell, r.vc)) {
      cell_vc_.Set(cell, r.vc);
      ++cell_w_[cell];
    }
  }

  // Scratch invariant between calls: prop_in_, prop_out_ and prev_out_
  // are all -1 and in_seen_ all 0; each phase below undoes exactly what it
  // wrote, so no array is refilled whole.
  //
  // Phase 1 — randomized proposal matching R. Every requesting input picks
  // one of its requested outputs uniformly at random (one RNG draw per
  // requesting input, ascending input order — the determinism contract);
  // each output accepts its heaviest proposer, earliest input on ties.
  // prop_w_[out] is read only while prop_out_[out] names a proposer.
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
  //
  // A knot is walked from its lowest input (the first one the ascending
  // scan meets), in a straight line both ways: one way leaves each input
  // by its P edge and each output by its R edge, the other way the
  // reverse. A cycle comes back to the start on the first way. An input
  // with neither edge is a knot of its own that keeps nothing, and stays
  // unmatched. Knots are disjoint, so each one's result is written into
  // prev_match_ as soon as it is decided.
  const int ins = geom_.num_inports;
  for (int in = 0; in < ins; ++in) {
    if (prev_match_[in] != -1) prev_out_[prev_match_[in]] = in;
  }
  walked_.clear();
  for (int start = 0; start < ins; ++start) {
    if (in_seen_[start] ||
        (prev_match_[start] == -1 && prop_in_[start] == -1)) {
      continue;
    }
    const std::size_t first = walked_.size();
    int sum_p = 0;
    int sum_r = 0;
    const auto visit = [&](int in) {
      in_seen_[in] = 1;
      walked_.push_back(in);
      sum_p += EdgeWeight(in, prev_match_[in]);
      sum_r += EdgeWeight(in, prop_in_[in]);
    };
    visit(start);
    bool cycle = false;
    for (int in = start;;) {  // P edge out of each input, R out of outputs
      const int out = prev_match_[in];
      in = out == -1 ? -1 : prop_out_[out];
      if (in == -1) break;
      if (in == start) {
        cycle = true;
        break;
      }
      visit(in);
    }
    for (int in = start; !cycle;) {  // R out of each input, P out of outputs
      const int out = prop_in_[in];
      in = out == -1 ? -1 : prev_out_[out];
      if (in == -1) break;
      visit(in);
    }
    const bool keep_r = sum_r >= sum_p;
    for (std::size_t i = first; i < walked_.size(); ++i) {
      const int in = walked_[i];
      if (prev_match_[in] != -1) prev_out_[prev_match_[in]] = -1;
      if (keep_r) prev_match_[in] = prop_in_[in];
    }
  }
  for (const int in : walked_) in_seen_[in] = 0;

  // Phase 3 — grants for matched pairs with a live request; VC chosen by
  // the per-(in,out) round-robin pointer, same idiom as iSLIP/AP.
  // Only inputs with a request can hold a live pair: the dirty rows, in
  // ascending order. They are also the only inputs with a proposal, so
  // phase 1 is undone on the way.
  request_.DirtyRows().ForEach([&](int in) {
    if (prop_in_[in] != -1) {
      prop_out_[prop_in_[in]] = -1;
      prop_in_[in] = -1;
    }
    const int out = prev_match_[in];
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
  prop_in_.assign(g.num_inports, -1);
  prop_out_.assign(g.num_outports, -1);
  prop_w_.assign(g.num_outports, 0);
  prev_out_.assign(g.num_outports, -1);
  in_seen_.assign(g.num_inports, 0);
  walked_.reserve(g.num_inports);
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
  // The knot walk relies on the carried matching being one: at most one
  // input per output.
  std::vector<std::uint8_t> taken(static_cast<std::size_t>(geom_.num_outports));
  for (const int out : match) {
    VIXNOC_REQUIRE(out >= -1 && out < geom_.num_outports,
                   "restored SERENADE matching names output %d outside "
                   "[0, %d)",
                   out, geom_.num_outports);
    if (out == -1) continue;
    VIXNOC_REQUIRE(!taken[out],
                   "restored SERENADE matching gives output %d two inputs",
                   out);
    taken[out] = 1;
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
