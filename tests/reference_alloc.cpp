#include "reference_alloc.hpp"

#include <algorithm>

namespace vixnoc::ref {

std::unique_ptr<RefArbiter> MakeRefArbiter(ArbiterKind kind, int n) {
  if (kind == ArbiterKind::kMatrix) return std::make_unique<RefMatrix>(n);
  return std::make_unique<RefRoundRobin>(n);
}

// ---------------------------------------------------------------------------
// Separable input-first (pre-rewrite SeparableInputFirstAllocator::Allocate).

RefSeparableInputFirst::RefSeparableInputFirst(const SwitchGeometry& g,
                                               ArbiterKind kind,
                                               bool update_on_grant_only)
    : RefAllocator(g), update_on_grant_only_(update_on_grant_only) {
  for (int i = 0; i < g.NumCrossbarInputs(); ++i) {
    input_arbiters_.push_back(MakeRefArbiter(kind, g.VcsPerVin()));
  }
  for (int o = 0; o < g.num_outports; ++o) {
    output_arbiters_.push_back(MakeRefArbiter(kind, g.NumCrossbarInputs()));
  }
  vc_request_scratch_.resize(g.VcsPerVin());
  phase1_vc_.resize(g.NumCrossbarInputs());
  phase1_out_.resize(g.NumCrossbarInputs());
  out_request_scratch_.resize(g.NumCrossbarInputs());
  out_port_of_.resize(static_cast<std::size_t>(g.NumCrossbarInputs()) *
                      g.VcsPerVin());
}

void RefSeparableInputFirst::Allocate(const std::vector<SaRequest>& requests,
                                      std::vector<SaGrant>* grants) {
  grants->clear();
  const int xin_count = geom_.NumCrossbarInputs();
  const int vpv = geom_.VcsPerVin();

  std::fill(out_port_of_.begin(), out_port_of_.end(), kInvalidPort);
  for (const SaRequest& r : requests) {
    const VinId vin = geom_.VinOfVc(r.vc);
    const int xin = r.in_port * geom_.num_vins + vin;
    const int sub = geom_.SubIndexOfVc(r.vc);
    out_port_of_[static_cast<std::size_t>(xin) * vpv + sub] = r.out_port;
  }

  for (int xin = 0; xin < xin_count; ++xin) {
    bool any = false;
    for (int sub = 0; sub < vpv; ++sub) {
      const bool req =
          out_port_of_[static_cast<std::size_t>(xin) * vpv + sub] !=
          kInvalidPort;
      vc_request_scratch_[sub] = req;
      any |= req;
    }
    if (!any) {
      phase1_vc_[xin] = -1;
      continue;
    }
    const int sub = input_arbiters_[xin]->Pick(vc_request_scratch_);
    phase1_vc_[xin] = sub;
    phase1_out_[xin] = out_port_of_[static_cast<std::size_t>(xin) * vpv + sub];
    if (!update_on_grant_only_) {
      input_arbiters_[xin]->Commit(sub);
    }
  }

  for (PortId o = 0; o < geom_.num_outports; ++o) {
    bool any = false;
    for (int xin = 0; xin < xin_count; ++xin) {
      const bool req = phase1_vc_[xin] >= 0 && phase1_out_[xin] == o;
      out_request_scratch_[xin] = req;
      any |= req;
    }
    if (!any) continue;
    const int xin = output_arbiters_[o]->Pick(out_request_scratch_);
    output_arbiters_[o]->Commit(xin);
    const int sub = phase1_vc_[xin];
    if (update_on_grant_only_) {
      input_arbiters_[xin]->Commit(sub);
    }
    SaGrant grant;
    grant.in_port = xin / geom_.num_vins;
    grant.vin = xin % geom_.num_vins;
    grant.vc = geom_.VcOf(grant.vin, sub);
    grant.out_port = o;
    grants->push_back(grant);
  }
}

// ---------------------------------------------------------------------------
// Wavefront (pre-rewrite WavefrontAllocator::Allocate).

RefWavefront::RefWavefront(const SwitchGeometry& g)
    : RefAllocator(g), n_(std::max(g.num_inports, g.num_outports)) {
  vc_rr_.assign(
      static_cast<std::size_t>(g.num_inports) * g.num_outports, 0);
  cell_vcs_.resize(static_cast<std::size_t>(g.num_inports) * g.num_outports);
  row_free_.resize(static_cast<std::size_t>(n_));
  col_free_.resize(static_cast<std::size_t>(n_));
}

void RefWavefront::Allocate(const std::vector<SaRequest>& requests,
                            std::vector<SaGrant>* grants) {
  grants->clear();
  for (auto& v : cell_vcs_) v.clear();
  for (const SaRequest& r : requests) {
    cell_vcs_[static_cast<std::size_t>(r.in_port) * geom_.num_outports +
              r.out_port]
        .push_back(r.vc);
  }

  std::fill(row_free_.begin(), row_free_.end(), true);
  std::fill(col_free_.begin(), col_free_.end(), true);

  for (int d = 0; d < n_; ++d) {
    const int diag = (priority_diagonal_ + d) % n_;
    for (int i = 0; i < n_; ++i) {
      const int j = (diag + i) % n_;
      if (i >= geom_.num_inports || j >= geom_.num_outports) continue;
      if (!row_free_[i] || !col_free_[j]) continue;
      const std::size_t cell =
          static_cast<std::size_t>(i) * geom_.num_outports + j;
      const auto& vcs = cell_vcs_[cell];
      if (vcs.empty()) continue;
      row_free_[i] = false;
      col_free_[j] = false;
      int& ptr = vc_rr_[cell];
      VcId best = kInvalidVc;
      for (VcId vc : vcs) {
        if (vc >= ptr && (best == kInvalidVc || vc < best)) best = vc;
      }
      if (best == kInvalidVc) {
        for (VcId vc : vcs) {
          if (best == kInvalidVc || vc < best) best = vc;
        }
      }
      ptr = (best + 1) % geom_.num_vcs;
      grants->push_back(SaGrant{i, 0, best, j});
    }
  }
  priority_diagonal_ = (priority_diagonal_ + 1) % n_;
}

// ---------------------------------------------------------------------------
// iSLIP (pre-rewrite IslipAllocator::Allocate).

RefIslip::RefIslip(const SwitchGeometry& g, int iterations)
    : RefAllocator(g), iterations_(iterations) {
  grant_ptr_.assign(g.num_outports, 0);
  accept_ptr_.assign(g.num_inports, 0);
  vc_rr_.assign(static_cast<std::size_t>(g.num_inports) * g.num_outports, 0);
  cell_vcs_.resize(static_cast<std::size_t>(g.num_inports) * g.num_outports);
  match_in_.resize(g.num_inports);
  match_out_.resize(g.num_outports);
  granted_to_.resize(g.num_outports);
}

void RefIslip::Allocate(const std::vector<SaRequest>& requests,
                        std::vector<SaGrant>* grants) {
  grants->clear();
  for (auto& v : cell_vcs_) v.clear();
  for (const SaRequest& r : requests) {
    cell_vcs_[static_cast<std::size_t>(r.in_port) * geom_.num_outports +
              r.out_port]
        .push_back(r.vc);
  }

  std::fill(match_in_.begin(), match_in_.end(), -1);
  std::fill(match_out_.begin(), match_out_.end(), -1);

  for (int iter = 0; iter < iterations_; ++iter) {
    std::fill(granted_to_.begin(), granted_to_.end(), -1);
    for (int out = 0; out < geom_.num_outports; ++out) {
      if (match_out_[out] != -1) continue;
      for (int off = 0; off < geom_.num_inports; ++off) {
        const int in = (grant_ptr_[out] + off) % geom_.num_inports;
        if (match_in_[in] != -1) continue;
        if (cell_vcs_[static_cast<std::size_t>(in) * geom_.num_outports + out]
                .empty()) {
          continue;
        }
        granted_to_[out] = in;
        break;
      }
    }
    bool progress = false;
    for (int in = 0; in < geom_.num_inports; ++in) {
      if (match_in_[in] != -1) continue;
      int chosen = -1;
      for (int off = 0; off < geom_.num_outports; ++off) {
        const int out = (accept_ptr_[in] + off) % geom_.num_outports;
        if (granted_to_[out] == in) {
          chosen = out;
          break;
        }
      }
      if (chosen == -1) continue;
      match_in_[in] = chosen;
      match_out_[chosen] = in;
      progress = true;
      if (iter == 0) {
        grant_ptr_[chosen] = (in + 1) % geom_.num_inports;
        accept_ptr_[in] = (chosen + 1) % geom_.num_outports;
      }
    }
    if (!progress) break;
  }

  for (int in = 0; in < geom_.num_inports; ++in) {
    const int out = match_in_[in];
    if (out == -1) continue;
    const std::size_t cell =
        static_cast<std::size_t>(in) * geom_.num_outports + out;
    const auto& vcs = cell_vcs_[cell];
    int& ptr = vc_rr_[cell];
    VcId best = kInvalidVc;
    for (VcId vc : vcs) {
      if (vc >= ptr && (best == kInvalidVc || vc < best)) best = vc;
    }
    if (best == kInvalidVc) {
      for (VcId vc : vcs) {
        if (best == kInvalidVc || vc < best) best = vc;
      }
    }
    ptr = (best + 1) % geom_.num_vcs;
    grants->push_back(SaGrant{in, 0, best, out});
  }
}

// ---------------------------------------------------------------------------
// Augmenting path (pre-rewrite AugmentingPathAllocator::Allocate).

RefAugmentingPath::RefAugmentingPath(const SwitchGeometry& g, bool rotate_vcs)
    : RefAllocator(g), rotate_vcs_(rotate_vcs) {
  request_.assign(
      static_cast<std::size_t>(g.num_inports) * g.num_outports, false);
  match_of_out_.assign(g.num_outports, -1);
  match_of_in_.assign(g.num_inports, -1);
  vc_rr_.assign(static_cast<std::size_t>(g.num_inports) * g.num_outports, 0);
  cell_vcs_.resize(static_cast<std::size_t>(g.num_inports) * g.num_outports);
  visited_.resize(static_cast<std::size_t>(g.num_outports));
}

bool RefAugmentingPath::TryAugment(int in, std::vector<bool>* visited) {
  for (int out = 0; out < geom_.num_outports; ++out) {
    if (!request_[static_cast<std::size_t>(in) * geom_.num_outports + out] ||
        (*visited)[out]) {
      continue;
    }
    (*visited)[out] = true;
    if (match_of_out_[out] == -1 ||
        TryAugment(match_of_out_[out], visited)) {
      match_of_out_[out] = in;
      match_of_in_[in] = out;
      return true;
    }
  }
  return false;
}

void RefAugmentingPath::Allocate(const std::vector<SaRequest>& requests,
                                 std::vector<SaGrant>* grants) {
  grants->clear();
  std::fill(request_.begin(), request_.end(), false);
  std::fill(match_of_out_.begin(), match_of_out_.end(), -1);
  std::fill(match_of_in_.begin(), match_of_in_.end(), -1);
  for (auto& v : cell_vcs_) v.clear();

  for (const SaRequest& r : requests) {
    const std::size_t cell =
        static_cast<std::size_t>(r.in_port) * geom_.num_outports + r.out_port;
    request_[cell] = true;
    cell_vcs_[cell].push_back(r.vc);
  }

  for (int in = 0; in < geom_.num_inports; ++in) {
    std::fill(visited_.begin(), visited_.end(), false);
    TryAugment(in, &visited_);
  }

  for (int in = 0; in < geom_.num_inports; ++in) {
    const int out = match_of_in_[in];
    if (out == -1) continue;
    const std::size_t cell =
        static_cast<std::size_t>(in) * geom_.num_outports + out;
    const auto& vcs = cell_vcs_[cell];
    int& ptr = vc_rr_[cell];
    VcId best = kInvalidVc;
    if (rotate_vcs_) {
      for (VcId vc : vcs) {
        if (vc >= ptr && (best == kInvalidVc || vc < best)) best = vc;
      }
    }
    if (best == kInvalidVc) {
      for (VcId vc : vcs) {
        if (best == kInvalidVc || vc < best) best = vc;
      }
    }
    ptr = (best + 1) % geom_.num_vcs;
    grants->push_back(SaGrant{in, 0, best, out});
  }
}

// ---------------------------------------------------------------------------
// SPAROFLO (pre-rewrite SparofloAllocator::Allocate).

RefSparoflo::RefSparoflo(const SwitchGeometry& g, ArbiterKind kind,
                         int max_exposed)
    : RefAllocator(g), max_exposed_(max_exposed) {
  for (int p = 0; p < g.num_inports; ++p) {
    input_arbiters_.push_back(MakeRefArbiter(kind, g.num_vcs));
    conflict_arbiters_.push_back(MakeRefArbiter(kind, g.num_outports));
  }
  for (int o = 0; o < g.num_outports; ++o) {
    output_arbiters_.push_back(MakeRefArbiter(kind, g.num_inports * g.num_vcs));
  }
}

void RefSparoflo::Allocate(const std::vector<SaRequest>& requests,
                           std::vector<SaGrant>* grants) {
  grants->clear();
  const int ports = geom_.num_inports;
  const int vcs = geom_.num_vcs;

  std::vector<PortId> out_of(static_cast<std::size_t>(ports) * vcs,
                             kInvalidPort);
  for (const SaRequest& r : requests) {
    out_of[static_cast<std::size_t>(r.in_port) * vcs + r.vc] = r.out_port;
  }

  std::vector<bool> exposed(static_cast<std::size_t>(ports) * vcs, false);
  for (PortId p = 0; p < ports; ++p) {
    std::vector<bool> candidate(vcs);
    std::vector<bool> out_taken(geom_.num_outports, false);
    for (int round = 0; round < max_exposed_; ++round) {
      bool any = false;
      for (VcId c = 0; c < vcs; ++c) {
        const PortId out = out_of[static_cast<std::size_t>(p) * vcs + c];
        candidate[c] = out != kInvalidPort && !exposed[p * vcs + c] &&
                       !out_taken[out];
        any |= candidate[c];
      }
      if (!any) break;
      const int winner = input_arbiters_[p]->Pick(candidate);
      input_arbiters_[p]->Commit(winner);
      exposed[static_cast<std::size_t>(p) * vcs + winner] = true;
      out_taken[out_of[static_cast<std::size_t>(p) * vcs + winner]] = true;
    }
  }

  std::vector<Tentative> tentative;
  std::vector<bool> req_scratch(static_cast<std::size_t>(ports) * vcs);
  for (PortId o = 0; o < geom_.num_outports; ++o) {
    bool any = false;
    for (PortId p = 0; p < ports; ++p) {
      for (VcId c = 0; c < vcs; ++c) {
        const std::size_t idx = static_cast<std::size_t>(p) * vcs + c;
        req_scratch[idx] = exposed[idx] && out_of[idx] == o;
        any |= req_scratch[idx];
      }
    }
    if (!any) continue;
    const int winner = output_arbiters_[o]->Pick(req_scratch);
    output_arbiters_[o]->Commit(winner);
    tentative.push_back(
        Tentative{static_cast<PortId>(winner / vcs),
                  static_cast<VcId>(winner % vcs), o});
  }

  std::vector<std::vector<Tentative>> by_port(ports);
  for (const Tentative& t : tentative) by_port[t.in_port].push_back(t);
  for (PortId p = 0; p < ports; ++p) {
    auto& wins = by_port[p];
    if (wins.empty()) continue;
    if (wins.size() == 1) {
      grants->push_back(SaGrant{p, 0, wins[0].vc, wins[0].out_port});
      continue;
    }
    std::vector<bool> outs(geom_.num_outports, false);
    for (const Tentative& t : wins) outs[t.out_port] = true;
    const int keep_out = conflict_arbiters_[p]->Pick(outs);
    conflict_arbiters_[p]->Commit(keep_out);
    for (const Tentative& t : wins) {
      if (t.out_port == keep_out) {
        grants->push_back(SaGrant{p, 0, t.vc, t.out_port});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// SERENADE (scalar mirror of SerenadeAllocator::Allocate).

RefSerenade::RefSerenade(const SwitchGeometry& g, std::uint64_t seed)
    : RefAllocator(g), rng_(seed) {
  prev_match_.assign(g.num_inports, -1);
  vc_rr_.assign(static_cast<std::size_t>(g.num_inports) * g.num_outports, 0);
  request_row_.assign(g.num_inports,
                      std::vector<bool>(g.num_outports, false));
  cell_vc_.assign(static_cast<std::size_t>(g.num_inports) * g.num_outports,
                  std::vector<bool>(g.num_vcs, false));
  prop_in_.resize(g.num_inports);
  prop_out_.resize(g.num_outports);
  prop_w_.resize(g.num_outports);
  prev_out_.resize(g.num_outports);
  match_in_.resize(g.num_inports);
  in_seen_.resize(g.num_inports);
  out_seen_.resize(g.num_outports);
}

int RefSerenade::EdgeWeight(int in, int out) const {
  if (out < 0 || !request_row_[in][out]) return 0;
  const auto& vcs =
      cell_vc_[static_cast<std::size_t>(in) * geom_.num_outports + out];
  int w = 0;
  for (const bool b : vcs) w += b ? 1 : 0;
  return w;
}

void RefSerenade::Allocate(const std::vector<SaRequest>& requests,
                           std::vector<SaGrant>* grants) {
  grants->clear();
  for (auto& row : request_row_) std::fill(row.begin(), row.end(), false);
  for (auto& vcs : cell_vc_) std::fill(vcs.begin(), vcs.end(), false);
  for (const SaRequest& r : requests) {
    request_row_[r.in_port][r.out_port] = true;
    cell_vc_[static_cast<std::size_t>(r.in_port) * geom_.num_outports +
             r.out_port][r.vc] = true;
  }

  // Phase 1 — randomized proposals, ascending input order, one bounded
  // draw per requesting input; each output keeps its heaviest proposer
  // (earliest on ties).
  std::fill(prop_in_.begin(), prop_in_.end(), -1);
  std::fill(prop_out_.begin(), prop_out_.end(), -1);
  std::fill(prop_w_.begin(), prop_w_.end(), 0);
  for (int in = 0; in < geom_.num_inports; ++in) {
    int count = 0;
    for (int o = 0; o < geom_.num_outports; ++o) {
      count += request_row_[in][o] ? 1 : 0;
    }
    if (count == 0) continue;
    const int k = static_cast<int>(
        rng_.NextBounded(static_cast<std::uint64_t>(count)));
    int out = -1;
    int seen = 0;
    for (int o = 0; o < geom_.num_outports; ++o) {
      if (request_row_[in][o] && seen++ == k) {
        out = o;
        break;
      }
    }
    const int w = EdgeWeight(in, out);
    const int incumbent = prop_out_[out];
    if (incumbent == -1 || w > prop_w_[out]) {
      if (incumbent != -1) prop_in_[incumbent] = -1;
      prop_in_[in] = out;
      prop_out_[out] = in;
      prop_w_[out] = w;
    }
  }

  // Phase 2 — knot decomposition of previous matching union proposals.
  // Component membership and per-component sums are traversal-order
  // independent, so a plain scalar DFS lands on identical matchings.
  std::fill(prev_out_.begin(), prev_out_.end(), -1);
  for (int in = 0; in < geom_.num_inports; ++in) {
    if (prev_match_[in] != -1) prev_out_[prev_match_[in]] = in;
  }
  std::fill(match_in_.begin(), match_in_.end(), -1);
  std::fill(in_seen_.begin(), in_seen_.end(), false);
  std::fill(out_seen_.begin(), out_seen_.end(), false);
  std::vector<int> comp_in;
  std::vector<int> stack;
  for (int start = 0; start < geom_.num_inports; ++start) {
    if (in_seen_[start]) continue;
    comp_in.clear();
    stack.assign(1, start);
    in_seen_[start] = true;
    while (!stack.empty()) {
      const int v = stack.back();
      stack.pop_back();
      if (v >= 0) {
        comp_in.push_back(v);
        for (const int out : {prev_match_[v], prop_in_[v]}) {
          if (out != -1 && !out_seen_[out]) {
            out_seen_[out] = true;
            stack.push_back(-(out + 1));
          }
        }
      } else {
        const int out = -v - 1;
        for (const int in : {prev_out_[out], prop_out_[out]}) {
          if (in != -1 && !in_seen_[in]) {
            in_seen_[in] = true;
            stack.push_back(in);
          }
        }
      }
    }
    int sum_p = 0;
    int sum_r = 0;
    for (const int in : comp_in) {
      sum_p += EdgeWeight(in, prev_match_[in]);
      sum_r += EdgeWeight(in, prop_in_[in]);
    }
    const bool keep_r = sum_r >= sum_p;
    for (const int in : comp_in) {
      const int out = keep_r ? prop_in_[in] : prev_match_[in];
      if (out != -1) match_in_[in] = out;
    }
  }
  prev_match_ = match_in_;

  // Phase 3 — grants with the rotating VC scan (first set VC at or after
  // the pointer, wrapping).
  for (int in = 0; in < geom_.num_inports; ++in) {
    const int out = match_in_[in];
    if (out == -1 || !request_row_[in][out]) continue;
    const std::size_t cell =
        static_cast<std::size_t>(in) * geom_.num_outports + out;
    int& ptr = vc_rr_[cell];
    VcId best = kInvalidVc;
    for (int off = 0; off < geom_.num_vcs; ++off) {
      const VcId vc = static_cast<VcId>((ptr + off) % geom_.num_vcs);
      if (cell_vc_[cell][vc]) {
        best = vc;
        break;
      }
    }
    ptr = (best + 1) % geom_.num_vcs;
    grants->push_back(SaGrant{in, 0, best, out});
  }
}

RefPacketChaining::RefPacketChaining(const SwitchGeometry& g,
                                     ArbiterKind kind)
    : RefAllocator(g),
      chain_(g.num_outports, -1),
      chain_vc_rr_(static_cast<std::size_t>(g.num_inports) * g.num_outports,
                   0),
      separable_(g, kind) {}

void RefPacketChaining::Allocate(const std::vector<SaRequest>& requests,
                                 std::vector<SaGrant>* grants) {
  grants->clear();
  std::vector<bool> in_busy(static_cast<std::size_t>(geom_.num_inports),
                            false);
  std::vector<bool> out_busy(static_cast<std::size_t>(geom_.num_outports),
                             false);
  std::vector<int> new_chain(static_cast<std::size_t>(geom_.num_outports),
                             -1);
  for (PortId out = 0; out < geom_.num_outports; ++out) {
    const int in = chain_[out];
    if (in == -1) continue;
    if (in_busy[in]) continue;
    VcId best = kInvalidVc;
    const std::size_t cell =
        static_cast<std::size_t>(in) * geom_.num_outports + out;
    int& ptr = chain_vc_rr_[cell];
    VcId wrap_best = kInvalidVc;
    for (const SaRequest& r : requests) {
      if (r.in_port != in || r.out_port != out) continue;
      if (r.vc >= ptr && (best == kInvalidVc || r.vc < best)) best = r.vc;
      if (wrap_best == kInvalidVc || r.vc < wrap_best) wrap_best = r.vc;
    }
    if (best == kInvalidVc) best = wrap_best;
    if (best == kInvalidVc) continue;
    ptr = (best + 1) % geom_.num_vcs;
    in_busy[in] = true;
    out_busy[out] = true;
    new_chain[out] = in;
    grants->push_back(SaGrant{in, 0, best, out});
  }
  residual_requests_.clear();
  for (const SaRequest& r : requests) {
    if (in_busy[r.in_port] || out_busy[r.out_port]) continue;
    residual_requests_.push_back(r);
  }
  separable_.Allocate(residual_requests_, &residual_grants_);
  for (const SaGrant& g : residual_grants_) {
    new_chain[g.out_port] = g.in_port;
    grants->push_back(g);
  }
  chain_ = std::move(new_chain);
}

std::unique_ptr<RefAllocator> MakeRefAllocator(AllocScheme scheme,
                                               const SwitchGeometry& g,
                                               ArbiterKind kind,
                                               std::uint64_t seed) {
  switch (scheme) {
    case AllocScheme::kInputFirst:
    case AllocScheme::kVix:
    case AllocScheme::kVixIdeal:
      return std::make_unique<RefSeparableInputFirst>(g, kind);
    case AllocScheme::kWavefront:
      return std::make_unique<RefWavefront>(g);
    case AllocScheme::kAugmentingPath:
      return std::make_unique<RefAugmentingPath>(g);
    case AllocScheme::kPacketChaining:
      return std::make_unique<RefPacketChaining>(g, kind);
    case AllocScheme::kIslip:
      return std::make_unique<RefIslip>(g);
    case AllocScheme::kSparoflo:
      return std::make_unique<RefSparoflo>(g, kind);
    case AllocScheme::kSerenade:
      return std::make_unique<RefSerenade>(g, seed);
  }
  return nullptr;
}

}  // namespace vixnoc::ref
