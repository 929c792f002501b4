#include "router/router.hpp"

#include <algorithm>

#include "alloc/augmenting_path.hpp"
#include "common/error.hpp"
#include "snapshot/snapshot.hpp"
#include "snapshot/state_io.hpp"
#include "telemetry/telemetry.hpp"

namespace vixnoc {

Router::Router(RouterId id, const RouterConfig& config,
               std::vector<OutputLinkInfo> links,
               const RoutingAlgorithm* routing)
    : id_(id), config_(config), routing_(routing), links_(std::move(links)) {
  VIXNOC_REQUIRE(static_cast<int>(links_.size()) == config_.radix,
                 "router %d: %zu output links for radix %d", id_,
                 links_.size(), config_.radix);
  VIXNOC_REQUIRE(config_.num_vcs >= 1, "num_vcs must be >= 1, got %d",
                 config_.num_vcs);
  VIXNOC_REQUIRE(config_.buffer_depth >= 1,
                 "buffer_depth must be >= 1, got %d", config_.buffer_depth);
  VIXNOC_CHECK(routing_ != nullptr);
  VIXNOC_REQUIRE(config_.num_message_classes >= 1,
                 "num_message_classes must be >= 1, got %d",
                 config_.num_message_classes);
  VIXNOC_REQUIRE(config_.num_vcs % config_.num_message_classes == 0,
                 "num_vcs (%d) must be divisible by num_message_classes (%d)",
                 config_.num_vcs, config_.num_message_classes);
  VIXNOC_REQUIRE(config_.radix <= INT16_MAX && config_.num_vcs <= INT16_MAX,
                 "radix %d or num_vcs %d exceeds %d", config_.radix,
                 config_.num_vcs, INT16_MAX);

  const std::size_t total =
      static_cast<std::size_t>(config_.radix) * config_.num_vcs;
  flit_store_.resize(total * config_.buffer_depth);
  buf_head_.assign(total, 0);
  buf_count_.assign(total, 0);
  in_active_.assign(total, 0);
  in_out_port_.assign(total, kInvalidPort);
  in_out_vc_.assign(total, kInvalidVc);
  in_lookahead_.assign(total, kInvalidPort);
  in_next_dateline_.assign(total, 0);
  credits_.assign(total, config_.buffer_depth);
  out_allocated_.assign(total, 0);
  head_route_.resize(total);

  const int vcs = static_cast<int>(total);
  const int ports = config_.radix;
  const int xins = config_.radix * config_.NumVins();
  flag_words_.assign(4 * bits::WordCount(vcs) + 3 * bits::WordCount(ports) +
                         bits::WordCount(xins),
                     0);
  std::uint64_t* cursor = flag_words_.data();
  va_cand_ = BitView::Carve(&cursor, vcs);
  sa_cand_ = BitView::Carve(&cursor, vcs);
  parked_ = BitView::Carve(&cursor, vcs);
  just_activated_ = BitView::Carve(&cursor, vcs);
  output_blocked_ = BitView::Carve(&cursor, ports);
  nonspec_wants_ = BitView::Carve(&cursor, ports);
  out_used_scratch_ = BitView::Carve(&cursor, ports);
  xin_used_scratch_ = BitView::Carve(&cursor, xins);

  SwitchGeometry geom;
  geom.num_inports = config_.radix;
  geom.num_outports = config_.radix;
  geom.num_vcs = config_.num_vcs;
  geom.num_vins = config_.NumVins();
  geom.interleaved_vins = config_.interleaved_vins;
  if (config_.scheme == AllocScheme::kAugmentingPath &&
      !config_.ap_rotate_vcs) {
    allocator_ = std::make_unique<AugmentingPathAllocator>(geom, false);
  } else {
    // Randomized allocators get a distinct per-router stream derived from
    // the VC seed with a mixing constant different from the vc_rng_ one
    // below, so neither stream aliases the other. Deterministic schemes
    // ignore the seed, keeping their historical behaviour bit-for-bit.
    const std::uint64_t alloc_seed =
        config_.vc_rng_seed +
        0xd1b54a32d192ed03ull * (static_cast<std::uint64_t>(id_) + 1);
    allocator_ = MakeSwitchAllocator(config_.scheme, geom,
                                     config_.arbiter_kind, alloc_seed);
  }
  vc_view_scratch_.resize(config_.num_vcs);
  va_prefs_.reserve(total);
  flits_per_out_.assign(config_.radix, 0);
  // Distinct stream per router: mix the id into the base seed before the
  // SplitMix expansion inside Reseed.
  vc_rng_.Reseed(config_.vc_rng_seed +
                 0x9e3779b97f4a7c15ull * (static_cast<std::uint64_t>(id_) + 1));
}

void Router::SetTelemetry(TelemetryCollector* collector) {
  tcol_ = collector;
  rt_ = collector != nullptr ? &collector->router(id_) : nullptr;
  allocator_->set_telemetry(rt_ != nullptr ? &rt_->alloc : nullptr);
}

void Router::ClearActivity() {
  activity_.Clear();
  std::fill(flits_per_out_.begin(), flits_per_out_.end(), 0);
}

void Router::AcceptFlit(PortId in_port, const Flit& flit) {
  VIXNOC_CHECK(in_port >= 0 && in_port < config_.radix);
  VIXNOC_CHECK(flit.vc >= 0 && flit.vc < config_.num_vcs);
  VIXNOC_CHECK(flit.route_out >= 0 && flit.route_out < config_.radix);
  const int idx = IvcIndex(in_port, flit.vc);
  // Credit protocol guarantees space; overflow means lost credits upstream.
  VIXNOC_CHECK(buf_count_[idx] < config_.buffer_depth);
  PushFlit(idx, flit);
  if (in_active_[idx]) {
    sa_cand_.Set(idx);
  } else {
    va_cand_.Set(idx);
  }
  ++activity_.buffer_writes;
}

void Router::AcceptCredit(PortId out_port, VcId out_vc) {
  VIXNOC_CHECK(out_port >= 0 && out_port < config_.radix);
  VIXNOC_CHECK(out_vc >= 0 && out_vc < config_.num_vcs);
  const int ovc = OvcIndex(out_port, out_vc);
  ++credits_[ovc];
  VIXNOC_CHECK(credits_[ovc] <= config_.buffer_depth);
  // Under atomic reallocation the last returning credit frees the VC.
  if (config_.atomic_vc_alloc) OnOutputVcFreed(ovc);
}

void Router::OnOutputVcFreed(int ovc) {
  if (out_allocated_[ovc] ||
      (config_.atomic_vc_alloc && credits_[ovc] < config_.buffer_depth) ||
      !parked_.Any()) {
    return;
  }
  const PortId out_port = static_cast<PortId>(ovc / config_.num_vcs);
  parked_.ForEach([&](int idx) {
    if (HeadFlit(idx).route_out == out_port) parked_.Clear(idx);
  });
}

void Router::ActivateVc(int idx, PortId out_port, VcId out_vc,
                        PortId lookahead, std::uint8_t next_dateline) {
  in_next_dateline_[idx] = next_dateline;
  in_active_[idx] = 1;
  in_out_port_[idx] = out_port;
  in_out_vc_[idx] = out_vc;
  in_lookahead_[idx] = lookahead;
  just_activated_.Set(idx);
  va_cand_.Clear(idx);
  sa_cand_.Set(idx);
  ++activity_.va_grants;
}

void Router::ConsiderVaCandidate(int idx, bool separable) {
  const VcId c = static_cast<VcId>(idx % config_.num_vcs);
  const Flit& head = HeadFlit(idx);
  VIXNOC_CHECK(head.IsHead());
  ++activity_.va_requests;

  const PortId out_port = head.route_out;
  const OutputLinkInfo& link = links_[out_port];
  // Routing functions must never steer a packet to an unconnected port.
  VIXNOC_CHECK(link.IsConnected());
  // Down link: the packet waits in its buffer without claiming a VC.
  if (num_blocked_ > 0 && output_blocked_.Test(out_port)) return;

  if (link.IsEjection()) {
    // NIs accept any VC and reassemble; no allocation state is needed and
    // interleaving packets on the ejection port is harmless. Ejection
    // ports terminate at an NI, so there is no next hop.
    ActivateVc(idx, out_port, c % config_.num_vcs, kInvalidPort,
               head.dateline);
    return;
  }

  // Virtual networks: a packet may only use VCs of its message class.
  const int cls = head.msg_class;
  VIXNOC_CHECK(cls < config_.num_message_classes);
  const int vpc = config_.VcsPerClass();
  const VcId cls_base = cls * vpc;
  HeadRoute& route = head_route_[idx];
  if (route.range_hi == 0) {
    // Lookahead route computation for the downstream router. The dateline
    // restriction: the packet's state after traversing this output's
    // channel selects which part of the class partition it may occupy
    // downstream (torus deadlock avoidance; full range elsewhere).
    const PortId lookahead = routing_->Route(link.neighbor, head.dst);
    const std::uint8_t next_state =
        routing_->NextDatelineState(id_, out_port, head.dateline);
    const VcRange range = routing_->AllowedVcRange(out_port, next_state, vpc);
    VIXNOC_DCHECK(range.lo >= 0 && range.lo < range.hi && range.hi <= vpc);
    route.lookahead = static_cast<std::int16_t>(lookahead);
    route.range_lo = static_cast<std::int16_t>(range.lo);
    route.range_hi = static_cast<std::int16_t>(range.hi);
    route.downstream_dim =
        static_cast<std::uint8_t>(routing_->DimensionOf(lookahead));
    route.next_dateline = next_state;
  }
  const int span = route.range_hi - route.range_lo;
  const int ovc_base = OvcIndex(out_port, cls_base + route.range_lo);
  vc_view_scratch_.resize(span);
  for (VcId i = 0; i < span; ++i) {
    bool busy = out_allocated_[ovc_base + i] != 0;
    if (config_.atomic_vc_alloc &&
        credits_[ovc_base + i] < config_.buffer_depth) {
      busy = true;  // downstream buffer not empty: VC not reallocatable
    }
    vc_view_scratch_[i].allocated = busy;
    vc_view_scratch_[i].credits = credits_[ovc_base + i];
  }
  VinLayout layout;
  layout.num_vins = config_.NumVins();
  layout.total_vcs = config_.num_vcs;
  layout.interleaved = config_.interleaved_vins;
  layout.first_vc = cls_base + route.range_lo;
  const int pick = PickOutputVc(
      config_.vc_policy, vc_view_scratch_, layout,
      static_cast<PortDimension>(route.downstream_dim), &vc_rng_);
  if (pick < 0) {
    // All usable VCs busy: stall. Every policy fails without drawing
    // randomness when nothing is free, so retrying is side-effect free
    // until OnOutputVcFreed names this port.
    parked_.Set(idx);
    return;
  }
  const VcId out_vc = cls_base + route.range_lo + pick;

  if (separable) {
    va_prefs_.push_back(VaPreference{idx, out_port, out_vc, route.lookahead,
                                     route.next_dateline});
    return;
  }

  out_allocated_[OvcIndex(out_port, out_vc)] = 1;
  ActivateVc(idx, out_port, out_vc, route.lookahead, route.next_dateline);
}

void Router::ConsiderVaCandidateAdaptive(int idx, bool separable) {
  const VcId c = static_cast<VcId>(idx % config_.num_vcs);
  const Flit& head = HeadFlit(idx);
  VIXNOC_CHECK(head.IsHead());
  ++activity_.va_requests;

  const int cls = head.msg_class;
  VIXNOC_CHECK(cls < config_.num_message_classes);
  const int vpc = config_.VcsPerClass();
  const VcId cls_base = cls * vpc;
  RouteCandidate cands[kMaxRouteCandidates];
  const int n = routing_->Candidates(id_, head.dst, head.dateline, vpc, cands);
  VIXNOC_DCHECK(n >= 1 && n <= kMaxRouteCandidates);

  // Ejection (single local candidate): NIs accept any VC and reassemble;
  // no allocation state is needed and interleaving packets on the ejection
  // port is harmless.
  if (links_[cands[0].out_port].IsEjection()) {
    ActivateVc(idx, cands[0].out_port, c % config_.num_vcs, kInvalidPort,
               head.dateline);
    return;
  }

  // Select which candidate to request this cycle: the adaptive candidate
  // whose best usable VC has the most downstream credits (ties keep
  // candidate order, i.e. the DOR direction); the escape candidate — by
  // contract last — whenever no adaptive VC is usable, so a blocked packet
  // always requests the deadlock-free sub-network (Duato's protocol).
  const RouteCandidate* best_adaptive = nullptr;
  const RouteCandidate* escape = nullptr;
  int best_credits = -1;
  for (int i = 0; i < n; ++i) {
    const RouteCandidate& cand = cands[i];
    // Routing algorithms must never emit a candidate on an unconnected port.
    VIXNOC_CHECK(links_[cand.out_port].IsConnected());
    // Down link: this candidate is not usable while the fault is active.
    if (num_blocked_ > 0 && output_blocked_.Test(cand.out_port)) continue;
    if (cand.escape) {
      if (escape == nullptr) escape = &cand;
      continue;
    }
    const int ovc_base = OvcIndex(cand.out_port, cls_base + cand.vc_range.lo);
    const int span = cand.vc_range.hi - cand.vc_range.lo;
    int usable_credits = -1;
    for (int v = 0; v < span; ++v) {
      // Adaptive routing always reallocates VCs atomically (only when the
      // downstream buffer is empty), regardless of atomic_vc_alloc: a
      // buffer mixing two packets' flits creates indirect dependencies
      // from the escape channels into the (cyclic) adaptive ones, voiding
      // Duato's deadlock-freedom argument.
      const bool busy = out_allocated_[ovc_base + v] != 0 ||
                        credits_[ovc_base + v] < config_.buffer_depth;
      if (!busy && credits_[ovc_base + v] > usable_credits) {
        usable_credits = credits_[ovc_base + v];
      }
    }
    if (usable_credits > best_credits) {
      best_credits = usable_credits;
      best_adaptive = &cand;
    }
  }
  const RouteCandidate* chosen =
      best_adaptive != nullptr && best_credits >= 0 ? best_adaptive : escape;
  if (chosen == nullptr) return;  // every candidate's link is down: wait

  const PortId out_port = chosen->out_port;
  const OutputLinkInfo& link = links_[out_port];
  // Advisory lookahead stamp: the downstream router re-runs candidate
  // selection, but the stamp drives VIX's dimension-aware VC steering.
  const PortId lookahead = routing_->Route(link.neighbor, head.dst);
  const PortDimension downstream_dim = routing_->DimensionOf(lookahead);
  const std::uint8_t next_state = chosen->next_dateline;
  const VcRange range = chosen->vc_range;
  VIXNOC_DCHECK(range.lo >= 0 && range.lo < range.hi && range.hi <= vpc);
  const int span = range.hi - range.lo;
  const int ovc_base = OvcIndex(out_port, cls_base + range.lo);
  vc_view_scratch_.resize(span);
  for (VcId i = 0; i < span; ++i) {
    // Same atomic-reallocation rule as candidate scoring above.
    vc_view_scratch_[i].allocated = out_allocated_[ovc_base + i] != 0 ||
                                    credits_[ovc_base + i] < config_.buffer_depth;
    vc_view_scratch_[i].credits = credits_[ovc_base + i];
  }
  VinLayout layout;
  layout.num_vins = config_.NumVins();
  layout.total_vcs = config_.num_vcs;
  layout.interleaved = config_.interleaved_vins;
  layout.first_vc = cls_base + range.lo;
  const int pick = PickOutputVc(config_.vc_policy, vc_view_scratch_, layout,
                                downstream_dim, &vc_rng_);
  if (pick < 0) return;  // all usable VCs busy: stall
  const VcId out_vc = cls_base + range.lo + pick;

  if (separable) {
    va_prefs_.push_back(
        VaPreference{idx, out_port, out_vc, lookahead, next_state});
    return;
  }

  out_allocated_[OvcIndex(out_port, out_vc)] = 1;
  ActivateVc(idx, out_port, out_vc, lookahead, next_state);
}

void Router::RunVcAllocation() {
  // Head packets request an output VC; candidates are visited in an order
  // that rotates across cycles so no input VC systematically wins ties.
  //
  // Two VA organizations:
  //  * kGreedyRotating (default): candidates are served sequentially, each
  //    seeing the allocations made earlier the same cycle — an idealized
  //    allocator where a blocked preference immediately falls back to the
  //    next-best free VC.
  //  * kSeparableArbitrated: every candidate states one preference against
  //    the cycle-start state, then one arbiter per output VC picks a
  //    winner; losers retry next cycle — the behaviour of a real separable
  //    VC allocator (Becker & Dally).
  //
  // The rotating scan walks only the candidate mask. Granting a candidate
  // never changes another VC's candidacy (it only claims output VCs, which
  // the remaining candidates re-read live), so the masked visit — indices
  // >= va_rr_ptr_ ascending, then wrap — sees exactly the candidates the
  // full `(va_rr_ptr_ + off) % total` scan would, in the same order.
  // Parked heads are left out of the visit; their attempts are counted.
  const bool separable = config_.va_organization ==
                         VaOrganization::kSeparableArbitrated;
  va_prefs_.clear();

  const int total = config_.radix * config_.num_vcs;
  const bool adaptive = routing_->IsAdaptive();
  const auto consider = [&](int idx) {
    if (adaptive) {
      ConsiderVaCandidateAdaptive(idx, separable);
    } else {
      ConsiderVaCandidate(idx, separable);
    }
  };
  activity_.va_requests += static_cast<std::uint64_t>(parked_.Count());
  bits::ForEachSetAndNotInRange(va_cand_.data(), parked_.data(), va_rr_ptr_,
                                total, consider);
  bits::ForEachSetAndNotInRange(va_cand_.data(), parked_.data(), 0,
                                va_rr_ptr_, consider);

  if (separable && !va_prefs_.empty()) {
    // Output-side arbitration: one winner per (out_port, out_vc). The
    // rotating visit order above doubles as the arbitration priority,
    // which rotates every cycle, so losers cannot starve.
    for (const VaPreference& pref : va_prefs_) {
      const int ovc = OvcIndex(pref.out_port, pref.out_vc);
      if (out_allocated_[ovc]) continue;  // lost this cycle
      out_allocated_[ovc] = 1;
      ActivateVc(pref.idx, pref.out_port, pref.out_vc, pref.lookahead,
                 pref.next_dateline);
    }
  }

  va_rr_ptr_ = (va_rr_ptr_ + 1) % total;
}

void Router::BuildSaRequests() {
  // sa_cand_ holds exactly the VCs with `active && buffer non-empty`, and
  // ascending mask order equals the (port, vc) nested-loop order.
  sa_requests_.clear();
  sa_cand_.ForEach([&](int idx) {
    const PortId p = static_cast<PortId>(idx / config_.num_vcs);
    const VcId c = static_cast<VcId>(idx % config_.num_vcs);
    if (!config_.speculative_sa && just_activated_.Test(idx)) {
      return;  // VA this cycle, SA earliest next cycle (Fig 6a)
    }
    const PortId out = in_out_port_[idx];
    // Down link: established packets hold their VC but send nothing until
    // the link is repaired.
    if (num_blocked_ > 0 && output_blocked_.Test(out)) return;
    // Ejection consumes flits unconditionally (the NI drains one flit per
    // ejection port per cycle by construction of the crossbar).
    if (!links_[out].IsEjection() &&
        credits_[OvcIndex(out, in_out_vc_[idx])] == 0) {
      return;
    }
    sa_requests_.push_back(SaRequest{p, c, out});
  });

  if (config_.prioritize_nonspeculative && config_.speculative_sa) {
    // Becker-style pessimistic masking: drop speculative requests whose
    // output port is also wanted by an established (non-speculative)
    // packet this cycle.
    nonspec_wants_.ClearAll();
    for (const SaRequest& r : sa_requests_) {
      if (!just_activated_.Test(IvcIndex(r.in_port, r.vc))) {
        nonspec_wants_.Set(r.out_port);
      }
    }
    std::erase_if(sa_requests_, [&](const SaRequest& r) {
      return just_activated_.Test(IvcIndex(r.in_port, r.vc)) &&
             nonspec_wants_.Test(r.out_port);
    });
  }

  activity_.sa_requests += sa_requests_.size();
  if (!sa_requests_.empty()) ++activity_.cycles_with_requests;
}

void Router::CommitGrants(Cycle now, std::vector<SentFlit>* sent_flits,
                          std::vector<SentCredit>* sent_credits) {
  (void)now;
  out_used_scratch_.ClearAll();
  xin_used_scratch_.ClearAll();
  for (const SaGrant& g : sa_grants_) {
    const int idx = IvcIndex(g.in_port, g.vc);
    // Structural legality: one grant per output port, one per crossbar
    // input, granted VC actually ready. Cheap enough to keep in release.
    VIXNOC_CHECK(!out_used_scratch_.Test(g.out_port));
    out_used_scratch_.Set(g.out_port);
    const int xin = g.in_port * config_.NumVins() + g.vin;
    VIXNOC_CHECK(!xin_used_scratch_.Test(xin));
    xin_used_scratch_.Set(xin);
    VIXNOC_CHECK(in_active_[idx] && buf_count_[idx] > 0);
    VIXNOC_CHECK(in_out_port_[idx] == g.out_port);

    Flit flit = HeadFlit(idx);
    PopFlit(idx);
    ++activity_.buffer_reads;
    ++activity_.xbar_traversals;
    ++flits_per_out_[g.out_port];

    flit.vc = in_out_vc_[idx];
    flit.route_out = in_lookahead_[idx];
    flit.dateline = in_next_dateline_[idx];

    if (!links_[g.out_port].IsEjection()) {
      const int ovc = OvcIndex(g.out_port, in_out_vc_[idx]);
      VIXNOC_DCHECK(credits_[ovc] > 0);
      --credits_[ovc];
      ++activity_.link_flits;
      if (flit.IsTail()) {
        out_allocated_[ovc] = 0;
        OnOutputVcFreed(ovc);
      }
    }

    if (flit.IsTail()) {
      in_active_[idx] = 0;
      in_out_port_[idx] = kInvalidPort;
      in_out_vc_[idx] = kInvalidVc;
      in_lookahead_[idx] = kInvalidPort;
      head_route_[idx] = HeadRoute{};  // the next head routes afresh
      sa_cand_.Clear(idx);
      if (buf_count_[idx] > 0) va_cand_.Set(idx);
    } else if (buf_count_[idx] == 0) {
      sa_cand_.Clear(idx);
    }

    sent_flits->push_back(SentFlit{g.out_port, flit});
    sent_credits->push_back(SentCredit{g.in_port, g.vc});
  }
  activity_.sa_grants += sa_grants_.size();
}

void Router::Step(Cycle now, std::vector<SentFlit>* sent_flits,
                  std::vector<SentCredit>* sent_credits) {
  // Telemetry records every cycle's (empty) VC states, so only an
  // unobserved idle cycle takes the replay.
  if (rt_ == nullptr && Idle()) {
    SkipIdleCycles(1);
    return;
  }
  ++activity_.cycles;
  just_activated_.ClearAll();
  RunVcAllocation();
  BuildSaRequests();
  allocator_->Allocate(sa_requests_, &sa_grants_);
  VIXNOC_DCHECK(GrantsAreLegal(allocator_->geometry(), sa_requests_,
                               sa_grants_));
  if (rt_ != nullptr) CollectCycleTelemetry(now);
  CommitGrants(now, sent_flits, sent_credits);
}

void Router::SkipIdleCycles(std::uint64_t n) {
  if (n == 0) return;
  VIXNOC_DCHECK(Idle());
  const auto total = static_cast<std::uint64_t>(config_.radix) *
                     static_cast<std::uint64_t>(config_.num_vcs);
  activity_.cycles += n;
  just_activated_.ClearAll();
  va_rr_ptr_ = static_cast<int>(
      (static_cast<std::uint64_t>(va_rr_ptr_) + n % total) % total);
  allocator_->AdvanceIdle(n);
}

void Router::CollectCycleTelemetry(Cycle now) {
  rt_->RecordAllocationCycle(sa_requests_, sa_grants_);

  for (PortId p = 0; p < config_.radix; ++p) {
    int occupancy = 0;
    for (VcId c = 0; c < config_.num_vcs; ++c) {
      const int idx = IvcIndex(p, c);
      occupancy += buf_count_[idx];
      RouterTelemetry::VcState s;
      if (buf_count_[idx] == 0) {
        s = RouterTelemetry::VcState::kEmpty;
      } else if (!in_active_[idx]) {
        s = RouterTelemetry::VcState::kVaStall;
      } else if (rt_->WasGranted(p, c)) {
        s = RouterTelemetry::VcState::kMoving;
      } else {
        const PortId out = in_out_port_[idx];
        const bool link_down = num_blocked_ > 0 && output_blocked_.Test(out);
        const bool no_credit =
            !links_[out].IsEjection() &&
            credits_[OvcIndex(out, in_out_vc_[idx])] == 0;
        s = (link_down || no_credit) ? RouterTelemetry::VcState::kCreditStall
                                     : RouterTelemetry::VcState::kSaStall;
      }
      rt_->RecordVcState(p, c, s);
    }
    rt_->RecordPortOccupancy(p, occupancy);
  }

  if (tcol_->tracing()) {
    // VA and SA milestones for sampled packets. Grants have not been
    // committed yet, so every granted VC's moving flit is still at the
    // front of its buffer.
    const int total = config_.radix * config_.num_vcs;
    for (int idx = 0; idx < total; ++idx) {
      if (!just_activated_.Test(idx)) continue;
      if (buf_count_[idx] == 0) continue;
      const Flit& head = HeadFlit(idx);
      if (!tcol_->SampleTrace(head.packet_id)) continue;
      tcol_->RecordTraceEvent(PacketTraceEvent{
          head.packet_id, PacketTraceEvent::Kind::kVcAlloc, now, id_,
          head.src, head.dst});
    }
    for (const SaGrant& g : sa_grants_) {
      const Flit& f = HeadFlit(IvcIndex(g.in_port, g.vc));
      if (!f.IsHead() || !tcol_->SampleTrace(f.packet_id)) continue;
      tcol_->RecordTraceEvent(PacketTraceEvent{
          f.packet_id, PacketTraceEvent::Kind::kSaGrant, now, id_, f.src,
          f.dst});
    }
  }
}

bool Router::Quiescent() const {
  for (std::size_t idx = 0; idx < buf_count_.size(); ++idx) {
    if (buf_count_[idx] != 0 || in_active_[idx]) return false;
  }
  return true;
}

int Router::BufferOccupancy(PortId in_port, VcId vc) const {
  return buf_count_[IvcIndex(in_port, vc)];
}

int Router::TotalBufferedFlits() const {
  int total = 0;
  for (const std::int32_t n : buf_count_) total += n;
  return total;
}

void Router::SetOutputBlocked(PortId out_port, bool blocked) {
  VIXNOC_CHECK(out_port >= 0 && out_port < config_.radix);
  if (output_blocked_.Test(out_port) == blocked) return;
  output_blocked_.Assign(out_port, blocked);
  num_blocked_ += blocked ? 1 : -1;
}

int Router::CreditsFor(PortId out_port, VcId out_vc) const {
  return credits_[OvcIndex(out_port, out_vc)];
}

void SaveFlit(SnapshotWriter& w, const Flit& f) {
  w.U64(f.packet_id);
  w.I32(f.src);
  w.I32(f.dst);
  w.U8(static_cast<std::uint8_t>(f.type));
  w.U16(f.seq);
  w.U16(f.packet_size);
  w.U64(f.created);
  w.U64(f.injected);
  w.I32(f.vc);
  w.I32(f.route_out);
  w.U64(f.user_tag);
  w.U8(f.msg_class);
  w.U8(f.dateline);
  w.B(f.corrupted);
}

Flit LoadFlit(SnapshotReader& r) {
  Flit f;
  f.packet_id = r.U64();
  f.src = r.I32();
  f.dst = r.I32();
  const std::uint8_t type = r.U8();
  VIXNOC_REQUIRE(type <= static_cast<std::uint8_t>(FlitType::kHeadTail),
                 "restored flit has invalid type %u", type);
  f.type = static_cast<FlitType>(type);
  f.seq = r.U16();
  f.packet_size = r.U16();
  f.created = r.U64();
  f.injected = r.U64();
  f.vc = r.I32();
  f.route_out = r.I32();
  f.user_tag = r.U64();
  f.msg_class = r.U8();
  f.dateline = r.U8();
  f.corrupted = r.B();
  return f;
}

void SaveRouterActivity(SnapshotWriter& w, const RouterActivity& a) {
  w.U64(a.buffer_writes);
  w.U64(a.buffer_reads);
  w.U64(a.xbar_traversals);
  w.U64(a.link_flits);
  w.U64(a.sa_requests);
  w.U64(a.sa_grants);
  w.U64(a.va_requests);
  w.U64(a.va_grants);
  w.U64(a.cycles);
  w.U64(a.cycles_with_requests);
}

RouterActivity LoadRouterActivity(SnapshotReader& r) {
  RouterActivity a;
  a.buffer_writes = r.U64();
  a.buffer_reads = r.U64();
  a.xbar_traversals = r.U64();
  a.link_flits = r.U64();
  a.sa_requests = r.U64();
  a.sa_grants = r.U64();
  a.va_requests = r.U64();
  a.va_grants = r.U64();
  a.cycles = r.U64();
  a.cycles_with_requests = r.U64();
  return a;
}

void Router::SaveState(SnapshotWriter& w) const {
  // Input VCs: buffered flits plus the per-packet VC-allocation state. The
  // byte layout predates the SoA storage and is kept bit-identical.
  const int total = config_.radix * config_.num_vcs;
  for (int idx = 0; idx < total; ++idx) {
    w.U32(static_cast<std::uint32_t>(buf_count_[idx]));
    for (int i = 0; i < buf_count_[idx]; ++i) {
      SaveFlit(w, BufferedFlit(idx, i));
    }
    w.B(in_active_[idx] != 0);
    w.I32(in_out_port_[idx]);
    w.I32(in_out_vc_[idx]);
    w.I32(in_lookahead_[idx]);
    w.U8(in_next_dateline_[idx]);
  }
  // Output VCs: credit counters and allocation flags.
  for (int ovc = 0; ovc < total; ++ovc) {
    w.I32(credits_[ovc]);
    w.B(out_allocated_[ovc] != 0);
  }
  w.I32(va_rr_ptr_);
  // Encoded as SnapshotWriter::VecBool.
  w.U64(static_cast<std::uint64_t>(total));
  for (int idx = 0; idx < total; ++idx) w.B(just_activated_.Test(idx));
  allocator_->SaveState(w);
  SaveRouterActivity(w, activity_);
  w.VecU64(flits_per_out_);
  SaveRng(w, vc_rng_);
}

void Router::LoadState(SnapshotReader& r) {
  const int depth = config_.buffer_depth;
  const int vcs = config_.num_vcs;
  const int total = config_.radix * vcs;
  // Every index restored here is later used unchecked on the hot path
  // (links_, credits_, out_allocated_), so a crafted checkpoint must fail
  // now, as a SimError, rather than index out of bounds on the next Step.
  const auto connected_port = [&](PortId p) {
    return p >= 0 && p < config_.radix && links_[p].IsConnected();
  };
  for (int idx = 0; idx < total; ++idx) {
    const std::uint32_t n = r.U32();
    VIXNOC_REQUIRE(n <= static_cast<std::uint32_t>(depth),
                   "restored input VC holds %u flits, buffer depth is %d", n,
                   depth);
    buf_head_[idx] = 0;
    buf_count_[idx] = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
      const Flit f = LoadFlit(r);
      VIXNOC_REQUIRE(f.vc == idx % vcs && connected_port(f.route_out) &&
                         f.msg_class < config_.num_message_classes &&
                         f.dateline <= kMaxDatelineState,
                     "restored flit in input VC %d has vc %d, route %d, "
                     "class %u, dateline state %u out of range",
                     idx, f.vc, f.route_out, f.msg_class, f.dateline);
      PushFlit(idx, f);
    }
    const bool active = r.B();
    const PortId out_port = r.I32();
    const VcId out_vc = r.I32();
    const PortId lookahead = r.I32();
    const std::uint8_t next_dateline = r.U8();
    if (active) {
      const bool ejection =
          connected_port(out_port) && links_[out_port].IsEjection();
      VIXNOC_REQUIRE(
          connected_port(out_port) && out_vc >= 0 && out_vc < vcs &&
              (ejection ? lookahead == kInvalidPort
                        : lookahead >= 0 && lookahead < config_.radix),
          "restored input VC %d holds output %d, VC %d, lookahead %d out "
          "of range",
          idx, out_port, out_vc, lookahead);
    } else {
      VIXNOC_REQUIRE(out_port == kInvalidPort && out_vc == kInvalidVc &&
                         lookahead == kInvalidPort &&
                         (n == 0 || BufferedFlit(idx, 0).IsHead()),
                     "restored idle input VC %d has output state or a "
                     "non-head flit at its front",
                     idx);
    }
    VIXNOC_REQUIRE(next_dateline <= kMaxDatelineState,
                   "restored dateline state %u out of range", next_dateline);
    in_active_[idx] = active ? 1 : 0;
    in_out_port_[idx] = out_port;
    in_out_vc_[idx] = out_vc;
    in_lookahead_[idx] = lookahead;
    in_next_dateline_[idx] = next_dateline;
  }
  for (int ovc = 0; ovc < total; ++ovc) {
    const int credits = r.I32();
    VIXNOC_REQUIRE(credits >= 0 && credits <= depth,
                   "restored credit count %d outside [0, %d]", credits,
                   depth);
    credits_[ovc] = credits;
    out_allocated_[ovc] = r.B() ? 1 : 0;
  }
  const int ptr = r.I32();
  VIXNOC_REQUIRE(ptr >= 0 && ptr < total,
                 "restored VA pointer %d outside [0, %d)", ptr, total);
  va_rr_ptr_ = ptr;
  const std::size_t just = r.Count(1);
  VIXNOC_REQUIRE(just == static_cast<std::size_t>(total),
                 "restored VA-grant mask has %zu entries, expected %d", just,
                 total);
  for (int idx = 0; idx < total; ++idx) just_activated_.Assign(idx, r.B());
  allocator_->LoadState(r);
  activity_ = LoadRouterActivity(r);
  std::vector<std::uint64_t> per_out = r.VecU64();
  VIXNOC_REQUIRE(per_out.size() == flits_per_out_.size(),
                 "restored per-output flit counters have %zu entries, "
                 "expected %zu",
                 per_out.size(), flits_per_out_.size());
  flits_per_out_ = std::move(per_out);
  LoadRng(r, &vc_rng_);

  // Candidate masks, parked heads and cached head routes are derived
  // state; rebuild from the restored buffers. Every head starts unparked
  // with no cached route: its next VA attempt re-derives both exactly.
  va_cand_.ClearAll();
  sa_cand_.ClearAll();
  parked_.ClearAll();
  for (int idx = 0; idx < total; ++idx) {
    head_route_[idx] = HeadRoute{};
    if (buf_count_[idx] == 0) continue;
    if (in_active_[idx]) {
      sa_cand_.Set(idx);
    } else {
      va_cand_.Set(idx);
    }
  }
}

}  // namespace vixnoc
