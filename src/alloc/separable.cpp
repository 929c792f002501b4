#include "alloc/separable.hpp"

#include <vector>

#include "common/error.hpp"
#include "snapshot/snapshot.hpp"

namespace vixnoc {

namespace {

template <typename Rows, typename Arb>
class SeparableAllocator final : public SwitchAllocator {
 public:
  SeparableAllocator(const SwitchGeometry& g, bool update_on_grant_only)
      : SwitchAllocator(g),
        update_on_grant_only_(update_on_grant_only),
        vcs_per_vin_(g.VcsPerVin()),
        map_(g) {
    const int xins = g.NumCrossbarInputs();
    input_arbiters_.reserve(xins);
    for (int i = 0; i < xins; ++i) input_arbiters_.emplace_back(vcs_per_vin_);
    output_arbiters_.reserve(g.num_outports);
    for (int o = 0; o < g.num_outports; ++o) {
      output_arbiters_.emplace_back(xins);
    }
    vc_req_.Resize(xins, vcs_per_vin_);
    out_req_.Resize(g.num_outports, xins);
    phase1_vc_.resize(xins);
    out_port_of_.resize(static_cast<std::size_t>(xins) * vcs_per_vin_);
  }

  void Allocate(const std::vector<SaRequest>& requests,
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

  void SaveState(SnapshotWriter& w) const override {
    for (const Arb& a : input_arbiters_) a.SaveState(w);
    for (const Arb& a : output_arbiters_) a.SaveState(w);
  }

  void LoadState(SnapshotReader& r) override {
    for (Arb& a : input_arbiters_) a.LoadState(r);
    for (Arb& a : output_arbiters_) a.LoadState(r);
  }

 private:
  bool update_on_grant_only_;
  int vcs_per_vin_;
  CrossbarMap map_;
  // Indexed by crossbar input = in_port * num_vins + vin.
  std::vector<Arb> input_arbiters_;
  // Indexed by output port.
  std::vector<Arb> output_arbiters_;

  // Scratch, reused across cycles; the matrices clear dirty rows only.
  typename Rows::Matrix vc_req_;   // row xin: requesting sub-VC bits
  typename Rows::Matrix out_req_;  // row out: phase-1 winner xin bits
  std::vector<int> phase1_vc_;     // winning sub-vc per xin (valid if won)
  std::vector<PortId> out_port_of_;  // requested output per (xin, sub-vc);
                                     // valid only where vc_req_ has the bit
};

template <typename Rows, typename Arb>
void SeparableAllocator<Rows, Arb>::Allocate(
    const std::vector<SaRequest>& requests, std::vector<SaGrant>* grants) {
  grants->clear();
  const int vpv = vcs_per_vin_;

  // Index requests by (crossbar input, vc-within-vin) for phase 1. Only the
  // rows touched last cycle need clearing; out_port_of_ entries are read
  // only under a set request bit, so they never need a sentinel fill.
  vc_req_.ClearDirty();
  out_req_.ClearDirty();
  for (const SaRequest& r : requests) {
    VIXNOC_DCHECK(r.in_port >= 0 && r.in_port < geom_.num_inports);
    VIXNOC_DCHECK(r.vc >= 0 && r.vc < geom_.num_vcs);
    VIXNOC_DCHECK(r.out_port >= 0 && r.out_port < geom_.num_outports);
    const int xin = r.in_port * geom_.num_vins + map_.VinOfVc(r.vc);
    const int sub = map_.SubIndexOfVc(r.vc);
    VIXNOC_DCHECK(!vc_req_.Test(xin, sub));
    vc_req_.Set(xin, sub);
    out_port_of_[static_cast<std::size_t>(xin) * vpv + sub] = r.out_port;
  }

  // Phase 1: each requesting crossbar input's arbiter picks one VC. Dirty
  // rows are exactly the xins with at least one request, visited ascending
  // like the original full scan (empty xins contributed nothing there).
  vc_req_.DirtyRows().ForEach([&](int xin) {
    const auto row = vc_req_.Row(xin);
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
    out_req_.Set(out_port_of_[static_cast<std::size_t>(xin) * vpv + sub],
                 xin);
  });

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
