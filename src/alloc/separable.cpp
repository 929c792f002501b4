#include "alloc/separable.hpp"

#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "snapshot/state_archive.hpp"

namespace vixnoc {

namespace {

template <typename Rows, typename Arb>
class SeparableAllocator final : public SwitchAllocator {
 public:
  SeparableAllocator(const SwitchGeometry& g, bool update_on_grant_only)
      : SwitchAllocator(g),
        update_on_grant_only_(update_on_grant_only),
        vcs_per_vin_(g.VcsPerVin()),
        rows_in_place_(std::is_same_v<Rows, OneWordRows> &&
                       (!g.interleaved_vins || g.num_vins == 1 ||
                        g.num_vins == g.num_vcs)),
        map_(g) {
    const int xins = g.NumCrossbarInputs();
    input_arbiters_.reserve(xins);
    for (int i = 0; i < xins; ++i) input_arbiters_.emplace_back(vcs_per_vin_);
    output_arbiters_.reserve(g.num_outports);
    for (int o = 0; o < g.num_outports; ++o) {
      output_arbiters_.emplace_back(xins);
    }
    if (!rows_in_place_) vc_req_.Resize(xins, vcs_per_vin_);
    out_req_.Resize(g.num_outports, xins);
    phase1_vc_.resize(xins);
  }

  void Kernel(const SwitchRequestView& requests,
              std::vector<SaGrant>* grants) override;

  void Reset() override {
    for (Arb& a : input_arbiters_) a.Reset();
    for (Arb& a : output_arbiters_) a.Reset();
  }

  std::string Name() const override {
    if (geom_.num_vins == 1) return "separable-input-first";
    if (geom_.num_vins == geom_.num_vcs) return "separable-vix-ideal";
    return "separable-vix-" + std::to_string(geom_.num_vins);
  }

  void Visit(StateArchive& ar) override {
    for (Arb& a : input_arbiters_) a.Visit(ar);
    for (Arb& a : output_arbiters_) a.Visit(ar);
  }

 private:
  bool update_on_grant_only_;
  int vcs_per_vin_;
  /// Crossbar input xin's VCs are ready bits [xin * vpv, (xin + 1) * vpv)
  /// (contiguous wiring, or one or num_vcs virtual inputs) and fit a word:
  /// phase 1 reads each row in place instead of gathering it.
  bool rows_in_place_;
  CrossbarMap map_;
  // Indexed by crossbar input = in_port * num_vins + vin.
  std::vector<Arb> input_arbiters_;
  // Indexed by output port.
  std::vector<Arb> output_arbiters_;

  // Scratch, reused across cycles; the matrices clear dirty rows only.
  typename Rows::Matrix vc_req_;   // row xin: requesting sub-VC bits, when
                                   // gathered (!rows_in_place_)
  typename Rows::Matrix out_req_;  // row out: phase-1 winner xin bits
  std::vector<int> phase1_vc_;     // winning sub-vc per xin (valid if won)
};

template <typename Rows, typename Arb>
void SeparableAllocator<Rows, Arb>::Kernel(const SwitchRequestView& requests,
                                           std::vector<SaGrant>* grants) {
  grants->clear();
  const int vpv = vcs_per_vin_;
  out_req_.ClearDirty();

  // Phase 1: each requesting crossbar input's arbiter picks one VC, in
  // ascending crossbar-input order like the original full scan (empty
  // xins contributed nothing there).
  const auto pick = [&](int xin, const auto& row) {
    if (telemetry_ != nullptr) {
      telemetry_->input_requests[xin] +=
          static_cast<std::uint64_t>(row.Count());
    }
    const int sub = input_arbiters_[xin].Pick(row);
    VIXNOC_DCHECK(sub >= 0);
    phase1_vc_[xin] = sub;
    if (!update_on_grant_only_) {
      input_arbiters_[xin].Commit(sub);
    }
    const int idx = map_.PortOfXin(xin) * geom_.num_vcs +
                    map_.VcOf(map_.VinOfXin(xin), sub);
    out_req_.Set(requests.out_port[idx], xin);
  };
  if (rows_in_place_) {
    // Each row is one shift-and-mask of the ready words; the scan jumps
    // from one requesting crossbar input to the next.
    const int nwords = requests.word_count();
    int idx = bits::FirstSetAtOrAfter(requests.ready, nwords, 0);
    while (idx >= 0) {
      const int xin = idx / vpv;
      pick(xin, WordSpan(bits::Extract(requests.ready, xin * vpv, vpv), vpv));
      idx = bits::FirstSetAtOrAfter(requests.ready, nwords, (xin + 1) * vpv);
    }
  } else {
    // Interleaved or multi-word rows: gather each request into its
    // crossbar input's row; only the rows touched last cycle need
    // clearing.
    vc_req_.ClearDirty();
    requests.ForEach([&](PortId p, VcId vc, PortId) {
      vc_req_.Set(p * geom_.num_vins + map_.VinOfVc(vc),
                  map_.SubIndexOfVc(vc));
    });
    vc_req_.DirtyRows().ForEach(
        [&](int xin) { pick(xin, vc_req_.Row(xin)); });
  }

  // Phase 2: each requested output's arbiter picks one crossbar input among
  // phase-1 winners.
  bool any_output_conflict = false;
  out_req_.DirtyRows().ForEach([&](int o) {
    const auto row = out_req_.Row(o);
    if (telemetry_ != nullptr) {
      const int competitor_count = row.Count();
      telemetry_->output_requests[o] +=
          static_cast<std::uint64_t>(competitor_count);
      any_output_conflict |= competitor_count >= 2;
    }
    const int xin = output_arbiters_[o].Pick(row);
    VIXNOC_DCHECK(xin >= 0);
    output_arbiters_[o].Commit(xin);
    const int sub = phase1_vc_[xin];
    if (update_on_grant_only_) {
      input_arbiters_[xin].Commit(sub);
    }
    if (telemetry_ != nullptr) {
      ++telemetry_->input_grants[xin];
      ++telemetry_->output_grants[o];
    }
    SaGrant grant;
    grant.in_port = map_.PortOfXin(xin);
    grant.vin = map_.VinOfXin(xin);
    grant.vc = map_.VcOf(grant.vin, sub);
    grant.out_port = o;
    grants->push_back(grant);
  });
  if (telemetry_ != nullptr && any_output_conflict) {
    ++telemetry_->output_conflict_cycles;
  }
}

template <typename Rows>
using RoundRobinSeparable = SeparableAllocator<Rows, RoundRobinArbiter>;
template <typename Rows>
using MatrixSeparable = SeparableAllocator<Rows, MatrixArbiter>;

}  // namespace

std::unique_ptr<SwitchAllocator> MakeSeparableAllocator(
    const SwitchGeometry& g, ArbiterKind kind, bool update_on_grant_only) {
  VIXNOC_CHECK(g.Valid());
  const bool one_word = OneWordRows::Fits(g.NumCrossbarInputs()) &&
                        OneWordRows::Fits(g.num_outports) &&
                        OneWordRows::Fits(g.VcsPerVin());
  switch (kind) {
    case ArbiterKind::kRoundRobin:
      return MakeWithRows<RoundRobinSeparable>(one_word, g,
                                               update_on_grant_only);
    case ArbiterKind::kMatrix:
      return MakeWithRows<MatrixSeparable>(one_word, g, update_on_grant_only);
  }
  // Same policy as MakeArbiter: a bad kind from parsed input is a
  // recoverable configuration error.
  VIXNOC_REQUIRE(false, "unknown arbiter kind %d", static_cast<int>(kind));
  return nullptr;
}

}  // namespace vixnoc
