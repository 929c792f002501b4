#include "alloc/sparoflo.hpp"
#include "snapshot/state_archive.hpp"

#include <algorithm>

namespace vixnoc {

SparofloAllocator::SparofloAllocator(const SwitchGeometry& g,
                                     ArbiterKind kind, int max_exposed)
    : SwitchAllocator(g), max_exposed_(max_exposed) {
  VIXNOC_CHECK(g.num_vins == 1);
  VIXNOC_CHECK(max_exposed >= 1);
  for (int p = 0; p < g.num_inports; ++p) {
    input_arbiters_.push_back(MakeArbiter(kind, g.num_vcs));
    conflict_arbiters_.push_back(MakeArbiter(kind, g.num_outports));
  }
  for (int o = 0; o < g.num_outports; ++o) {
    output_arbiters_.push_back(MakeArbiter(kind, g.num_inports * g.num_vcs));
  }
  port_req_.Resize(g.num_inports, g.num_vcs);
  out_req_.Resize(g.num_outports, g.num_inports * g.num_vcs);
  candidate_.Resize(g.num_vcs);
  by_port_.resize(g.num_inports);
  outs_.Resize(g.num_outports);
}

void SparofloAllocator::Kernel(const SwitchRequestView& requests,
                               std::vector<SaGrant>* grants) {
  grants->clear();
  last_killed_grants_ = 0;
  const int vcs = geom_.num_vcs;

  // Index requests by port; out_of[port * vcs + vc] is the requested
  // output, read only under a request bit.
  const PortId* out_of = requests.out_port;
  port_req_.ClearDirty();
  out_req_.ClearDirty();
  requests.ForEach(
      [&](PortId in, VcId vc, PortId) { port_req_.Set(in, vc); });

  // Phase 1: each input port exposes up to max_exposed_ VCs requesting
  // *distinct* outputs, chosen by repeated rotating arbitration. The
  // candidate set starts as the port's request mask and shrinks as winners
  // are exposed and their outputs become taken.
  port_req_.DirtyRows().ForEach([&](int p) {
    candidate_.CopyFrom(port_req_.Row(p));
    for (int round = 0; round < max_exposed_; ++round) {
      if (!candidate_.Any()) break;
      const int winner = input_arbiters_[p]->Pick(candidate_);
      VIXNOC_DCHECK(winner >= 0);
      input_arbiters_[p]->Commit(winner);
      const PortId taken = out_of[p * vcs + winner];
      out_req_.Set(taken, p * vcs + winner);
      candidate_.Clear(winner);
      candidate_.ForEach([&](int c) {
        if (out_of[p * vcs + c] == taken) {
          candidate_.Clear(c);
        }
      });
    }
  });

  // Phase 2: output arbitration over all exposed requests.
  tentative_.clear();
  out_req_.DirtyRows().ForEach([&](int o) {
    const int winner = output_arbiters_[o]->Pick(out_req_.Row(o));
    VIXNOC_DCHECK(winner >= 0);
    output_arbiters_[o]->Commit(winner);
    tentative_.push_back(
        Tentative{static_cast<PortId>(winner / vcs),
                  static_cast<VcId>(winner % vcs), o});
  });

  // Phase 3: conflict detection. A port that won several outputs can use
  // only one crossbar input; the conflict arbiter keeps one grant and the
  // rest are killed (their outputs stay idle this cycle).
  for (auto& wins : by_port_) wins.clear();
  for (const Tentative& t : tentative_) by_port_[t.in_port].push_back(t);
  for (PortId p = 0; p < geom_.num_inports; ++p) {
    auto& wins = by_port_[p];
    if (wins.empty()) continue;
    if (wins.size() == 1) {
      grants->push_back(SaGrant{p, 0, wins[0].vc, wins[0].out_port});
      continue;
    }
    outs_.ClearAll();
    for (const Tentative& t : wins) outs_.Set(t.out_port);
    const int keep_out = conflict_arbiters_[p]->Pick(outs_);
    VIXNOC_DCHECK(keep_out >= 0);
    conflict_arbiters_[p]->Commit(keep_out);
    for (const Tentative& t : wins) {
      if (t.out_port == keep_out) {
        grants->push_back(SaGrant{p, 0, t.vc, t.out_port});
      } else {
        ++last_killed_grants_;
      }
    }
  }
}

void SparofloAllocator::Reset() {
  for (auto& a : input_arbiters_) a->Reset();
  for (auto& a : output_arbiters_) a->Reset();
  for (auto& a : conflict_arbiters_) a->Reset();
  last_killed_grants_ = 0;
}

void SparofloAllocator::Visit(StateArchive& ar) {
  for (auto& a : input_arbiters_) a->Visit(ar);
  for (auto& a : output_arbiters_) a->Visit(ar);
  for (auto& a : conflict_arbiters_) a->Visit(ar);
  ar.I32(last_killed_grants_);
}

}  // namespace vixnoc
