#include "router/router.hpp"

#include <algorithm>

#include "alloc/augmenting_path.hpp"
#include "common/error.hpp"
#include "snapshot/state_archive.hpp"
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
  ovc_owner_.assign(total, -1);
  head_route_.resize(total);

  atomic_realloc_ = config_.atomic_vc_alloc || routing_->IsAdaptive();

  num_vins_ = config_.NumVins();
  vin_masks_ = VinMasks(num_vins_, config_.num_vcs, config_.interleaved_vins);
  const int vcs = static_cast<int>(total);
  const int ports = config_.radix;
  const int xins = config_.radix * num_vins_;
  flag_words_.assign(7 * bits::WordCount(vcs) + 3 * bits::WordCount(ports) +
                         bits::WordCount(xins),
                     0);
  std::uint64_t* cursor = flag_words_.data();
  va_cand_ = BitView::Carve(&cursor, vcs);
  sa_cand_ = BitView::Carve(&cursor, vcs);
  parked_ = BitView::Carve(&cursor, vcs);
  credit_stalled_ = BitView::Carve(&cursor, vcs);
  sa_ready_ = BitView::Carve(&cursor, vcs);
  just_activated_ = BitView::Carve(&cursor, vcs);
  ovc_free_ = BitView::Carve(&cursor, vcs);
  ovc_free_.SetAll();
  output_blocked_ = BitView::Carve(&cursor, ports);
  nonspec_wants_ = BitView::Carve(&cursor, ports);
  out_used_scratch_ = BitView::Carve(&cursor, ports);
  xin_used_scratch_ = BitView::Carve(&cursor, xins);

  SwitchGeometry geom;
  geom.num_inports = config_.radix;
  geom.num_outports = config_.radix;
  geom.num_vcs = config_.num_vcs;
  geom.num_vins = num_vins_;
  geom.interleaved_vins = config_.interleaved_vins;
  if (config_.scheme == AllocScheme::kAugmentingPath &&
      !config_.ap_rotate_vcs) {
    allocator_ = MakeAugmentingPathAllocator(geom, false);
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
  // The VC's holder (if any) can request the switch again.
  if (ovc_owner_[ovc] >= 0) credit_stalled_.Clear(ovc_owner_[ovc]);
  // Under atomic reallocation the last returning credit frees the VC.
  if (atomic_realloc_) OnOutputVcFreed(out_port, ovc);
}

void Router::OnOutputVcFreed(PortId out_port, int ovc) {
  if (ovc_owner_[ovc] >= 0 ||
      (atomic_realloc_ && credits_[ovc] < config_.buffer_depth)) {
    return;
  }
  ovc_free_.Set(ovc);
  if (!parked_.Any()) return;
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
  if (!links_[out_port].IsEjection()) {
    const int ovc = OvcIndex(out_port, out_vc);
    ovc_owner_[ovc] = idx;
    ovc_free_.Clear(ovc);
    if (credits_[ovc] == 0) credit_stalled_.Set(idx);
  }
  just_activated_.Set(idx);
  va_cand_.Clear(idx);
  sa_cand_.Set(idx);
  ++activity_.va_grants;
}

void Router::ConsiderVaCandidate(int idx, bool separable) {
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
    ActivateVc(idx, out_port, head.vc, kInvalidPort, head.dateline);
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
  const int pick = PickOutputVc(
      config_.vc_policy,
      OutputWindow(out_port, cls_base + route.range_lo,
                   route.range_hi - route.range_lo),
      vin_masks_, static_cast<PortDimension>(route.downstream_dim), &vc_rng_);
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

  ActivateVc(idx, out_port, out_vc, route.lookahead, route.next_dateline);
}

void Router::ConsiderVaCandidateAdaptive(int idx, bool separable) {
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
    ActivateVc(idx, cands[0].out_port, head.vc, kInvalidPort, head.dateline);
    return;
  }

  // Select which candidate to request this cycle: the adaptive candidate
  // whose best usable VC has the most downstream credits (ties keep
  // candidate order, i.e. the DOR direction); the escape candidate — by
  // contract last — whenever no adaptive VC is usable, so a blocked packet
  // always requests the deadlock-free sub-network (Duato's protocol).
  //
  // Adaptive routing always reallocates VCs atomically (atomic_realloc_,
  // only when the downstream buffer is empty), regardless of
  // atomic_vc_alloc: a buffer mixing two packets' flits creates indirect
  // dependencies from the escape channels into the (cyclic) adaptive ones,
  // voiding Duato's deadlock-freedom argument. So every usable VC has all
  // its credits, and the first adaptive candidate with a free VC is the
  // one with the most.
  const RouteCandidate* best_adaptive = nullptr;
  const RouteCandidate* escape = nullptr;
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
    if (best_adaptive == nullptr &&
        OutputWindow(cand.out_port, cls_base + cand.vc_range.lo,
                     cand.vc_range.hi - cand.vc_range.lo)
            .AnyFree()) {
      best_adaptive = &cand;
    }
  }
  const RouteCandidate* chosen =
      best_adaptive != nullptr ? best_adaptive : escape;
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
  const int pick = PickOutputVc(
      config_.vc_policy,
      OutputWindow(out_port, cls_base + range.lo, range.hi - range.lo),
      vin_masks_, downstream_dim, &vc_rng_);
  if (pick < 0) return;  // all usable VCs busy: stall
  const VcId out_vc = cls_base + range.lo + pick;

  if (separable) {
    va_prefs_.push_back(
        VaPreference{idx, out_port, out_vc, lookahead, next_state});
    return;
  }

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
      if (ovc_owner_[ovc] >= 0) continue;  // lost this cycle
      ActivateVc(pref.idx, pref.out_port, pref.out_vc, pref.lookahead,
                 pref.next_dateline);
    }
  }

  va_rr_ptr_ = bits::NextWrapped(va_rr_ptr_, total);
}

void Router::CollectSwitchRequests() {
  // sa_cand_ holds exactly the VCs with `active && buffer non-empty`, and
  // ascending bit order equals the (port, vc) nested-loop order. VCs
  // without a downstream credit are left out up front (credit_stalled_);
  // ejection consumes flits unconditionally (the NI drains one flit per
  // ejection port per cycle by construction of the crossbar), so its VCs
  // never stall. Without speculation, a VC granted VA this cycle requests
  // SA next cycle at the earliest (Fig 6a).
  const std::uint64_t* cand = sa_cand_.data();
  const std::uint64_t* stalled = credit_stalled_.data();
  const std::uint64_t* just = just_activated_.data();
  std::uint64_t* ready = sa_ready_.data();
  const int nwords = sa_ready_.word_count();
  if (config_.speculative_sa) {
    for (int w = 0; w < nwords; ++w) ready[w] = cand[w] & ~stalled[w];
  } else {
    for (int w = 0; w < nwords; ++w) {
      ready[w] = cand[w] & ~stalled[w] & ~just[w];
    }
  }
  // Down link: established packets hold their VC but send nothing until
  // the link is repaired.
  if (num_blocked_ > 0) {
    DropRequestsTo(sa_ready_, in_out_port_.data(), output_blocked_);
  }
  if (config_.prioritize_nonspeculative && config_.speculative_sa) {
    // Becker-style pessimistic masking: drop speculative requests whose
    // output port is also wanted by an established (non-speculative)
    // packet this cycle.
    DropSpeculativeConflicts(sa_ready_, in_out_port_.data(), just_activated_,
                             nonspec_wants_);
  }

  const int requests = sa_ready_.Count();
  activity_.sa_requests += static_cast<std::uint64_t>(requests);
  if (requests > 0) ++activity_.cycles_with_requests;
}

void Router::SetLinkDispatch(const LinkEvent* flit_row,
                             const LinkEvent* credit_row) {
  VIXNOC_CHECK(flit_row != nullptr && credit_row != nullptr);
  flit_dispatch_ = flit_row;
  credit_dispatch_ = credit_row;
}

void Router::CommitGrants(LinkSlot* flit_slot, LinkSlot* credit_slot) {
  // Each granted flit is copied once, from its input buffer into the
  // wheel slot, and its header comes from the dispatch row.
  VIXNOC_DCHECK(flit_dispatch_ != nullptr && credit_dispatch_ != nullptr);
  out_used_scratch_.ClearAll();
  xin_used_scratch_.ClearAll();
  for (const SaGrant& g : sa_grants_) {
    const int idx = IvcIndex(g.in_port, g.vc);
    // Structural legality: one grant per output port, one per crossbar
    // input, granted VC actually ready. Cheap enough to keep in release.
    VIXNOC_CHECK(!out_used_scratch_.Test(g.out_port));
    out_used_scratch_.Set(g.out_port);
    const int xin = g.in_port * num_vins_ + g.vin;
    VIXNOC_CHECK(!xin_used_scratch_.Test(xin));
    xin_used_scratch_.Set(xin);
    VIXNOC_CHECK(in_active_[idx] && buf_count_[idx] > 0);
    VIXNOC_CHECK(in_out_port_[idx] == g.out_port);

    flit_slot->events.push_back(flit_dispatch_[g.out_port]);
    Flit& flit = flit_slot->flits.emplace_back(HeadFlit(idx));
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
        ovc_owner_[ovc] = -1;
        OnOutputVcFreed(g.out_port, ovc);
      } else if (credits_[ovc] == 0) {
        credit_stalled_.Set(idx);
      }
    }

    if (flit.IsTail()) {
      credit_stalled_.Clear(idx);
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
  }
  // Credits go after every flit, so a slot the two share keeps each
  // router's events in flits-then-credits order.
  for (const SaGrant& g : sa_grants_) {
    LinkEvent credit = credit_dispatch_[g.in_port];
    VIXNOC_CHECK(credit.target >= 0);
    credit.vc = g.vc;
    credit_slot->events.push_back(credit);
  }
  activity_.sa_grants += sa_grants_.size();
}

void Router::Step(Cycle now, LinkSlot* flit_slot, LinkSlot* credit_slot) {
  // Telemetry records every cycle's (empty) VC states, so only an
  // unobserved idle cycle takes the replay.
  if (rt_ == nullptr && Idle()) {
    SkipIdleCycles(1);
    return;
  }
  ++activity_.cycles;
  just_activated_.ClearAll();
  RunVcAllocation();
  CollectSwitchRequests();
  allocator_->Allocate(SwitchRequests(), &sa_grants_);
  VIXNOC_DCHECK(GrantsAreLegal(allocator_->geometry(), SwitchRequests(),
                               sa_grants_));
  if (rt_ != nullptr) CollectCycleTelemetry(now);
  CommitGrants(flit_slot, credit_slot);
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
  rt_->RecordAllocationCycle(SwitchRequests(), sa_grants_);

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
        s = (link_down || OutOfCredits(idx))
                ? RouterTelemetry::VcState::kCreditStall
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

int Router::CreditStalledVcs() const {
  int stalled = 0;
  for (int idx = 0; idx < config_.radix * config_.num_vcs; ++idx) {
    if (buf_count_[idx] > 0 && OutOfCredits(idx)) ++stalled;
  }
  return stalled;
}

void Visit(StateArchive& ar, Flit& f) {
  ar.U64(f.packet_id);
  ar.I32(f.src);
  ar.I32(f.dst);
  ar.Enum8(f.type, FlitType::kHeadTail, "flit type");
  ar.U16(f.seq);
  ar.U16(f.packet_size);
  ar.U64(f.created);
  ar.U64(f.injected);
  ar.I32(f.vc);
  ar.I32(f.route_out);
  ar.U64(f.user_tag);
  ar.U8(f.msg_class);
  ar.U8(f.dateline);
  ar.B(f.corrupted);
}

void Visit(StateArchive& ar, RouterActivity& a) {
  ar.U64(a.buffer_writes);
  ar.U64(a.buffer_reads);
  ar.U64(a.xbar_traversals);
  ar.U64(a.link_flits);
  ar.U64(a.sa_requests);
  ar.U64(a.sa_grants);
  ar.U64(a.va_requests);
  ar.U64(a.va_grants);
  ar.U64(a.cycles);
  ar.U64(a.cycles_with_requests);
}

void Router::Visit(StateArchive& ar, int num_nodes) {
  const int depth = config_.buffer_depth;
  const int vcs = config_.num_vcs;
  const int total = config_.radix * vcs;
  const auto connected_port = [&](PortId p) {
    return p >= 0 && p < config_.radix && links_[p].IsConnected();
  };
  // Input VCs: buffered flits plus the per-packet VC-allocation state. The
  // byte layout predates the SoA storage and is kept bit-identical.
  for (int idx = 0; idx < total; ++idx) {
    auto n = static_cast<std::uint32_t>(buf_count_[idx]);
    ar.U32(n, depth + 1, "input VC flit count");
    if (ar.loading()) buf_head_[idx] = buf_count_[idx] = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
      Flit f = ar.loading() ? Flit{} : BufferedFlit(idx, i);
      ar.Object(f);
      ar.Require(f.src >= 0 && f.src < num_nodes && f.dst >= 0 &&
                     f.dst < num_nodes && f.vc == idx % vcs &&
                     connected_port(f.route_out) &&
                     f.msg_class < config_.num_message_classes &&
                     f.dateline <= kMaxDatelineState,
                 "restored flit in input VC %d has source %d, destination "
                 "%d, vc %d, route %d, class %u, dateline state %u out of "
                 "range",
                 idx, f.src, f.dst, f.vc, f.route_out, f.msg_class,
                 f.dateline);
      if (ar.loading()) PushFlit(idx, f);
    }
    bool active = in_active_[idx] != 0;
    ar.B(active);
    in_active_[idx] = active ? 1 : 0;
    ar.I32(in_out_port_[idx]);
    ar.I32(in_out_vc_[idx]);
    ar.I32(in_lookahead_[idx]);
    ar.U8(in_next_dateline_[idx], kMaxDatelineState + 1, "dateline state");
    const PortId out = in_out_port_[idx];
    const PortId lookahead = in_lookahead_[idx];
    if (active) {
      const bool ejection = connected_port(out) && links_[out].IsEjection();
      ar.Require(connected_port(out) && in_out_vc_[idx] >= 0 &&
                     in_out_vc_[idx] < vcs &&
                     (ejection ? lookahead == kInvalidPort
                               : lookahead >= 0 && lookahead < config_.radix),
                 "restored input VC %d holds output %d, VC %d, lookahead %d "
                 "out of range",
                 idx, out, in_out_vc_[idx], lookahead);
    } else {
      ar.Require(out == kInvalidPort && in_out_vc_[idx] == kInvalidVc &&
                     lookahead == kInvalidPort &&
                     (n == 0 || BufferedFlit(idx, 0).IsHead()),
                 "restored idle input VC %d has output state or a non-head "
                 "flit at its front",
                 idx);
    }
  }
  // Output VCs: credit counters and allocation flags. The holder of an
  // allocated VC is the active input VC routed to it (see RebuildOwners).
  std::vector<std::uint8_t> allocated(credits_.size());  // one per output VC
  for (int ovc = 0; ovc < total; ++ovc) {
    ar.I32(credits_[ovc], 0, depth + 1, "credit count");
    bool held = ovc_owner_[ovc] >= 0;
    ar.B(held);
    allocated[ovc] = held ? 1 : 0;
  }
  ar.I32(va_rr_ptr_, 0, total, "VA pointer");
  // Stored as a VecBool.
  std::vector<bool> just(static_cast<std::size_t>(total));
  for (int idx = 0; idx < total; ++idx) just[idx] = just_activated_.Test(idx);
  ar.VecBool(just, "VA-grant mask");
  allocator_->Visit(ar);
  ar.Object(activity_);
  ar.VecU64(flits_per_out_, "per-output flit counters");
  ar.Object(vc_rng_);
  if (!ar.loading()) return;
  for (int idx = 0; idx < total; ++idx) just_activated_.Assign(idx, just[idx]);
  RebuildAfterLoad(allocated);
}

void Router::RebuildAfterLoad(const std::vector<std::uint8_t>& allocated) {
  // The owner map must account for every allocation flag exactly once.
  const int total = config_.radix * config_.num_vcs;
  std::fill(ovc_owner_.begin(), ovc_owner_.end(), -1);
  int owned = 0;
  for (int idx = 0; idx < total; ++idx) {
    if (!in_active_[idx] || links_[in_out_port_[idx]].IsEjection()) continue;
    const int ovc = OvcIndex(in_out_port_[idx], in_out_vc_[idx]);
    VIXNOC_REQUIRE(allocated[ovc] && ovc_owner_[ovc] < 0,
                   "restored input VC %d holds output VC %d, which is not "
                   "allocated to it alone",
                   idx, ovc);
    ovc_owner_[ovc] = idx;
    ++owned;
  }
  VIXNOC_REQUIRE(owned == static_cast<int>(std::count(allocated.begin(),
                                                      allocated.end(), 1)),
                 "restored output VCs are allocated with no input VC "
                 "holding them");

  // Candidate masks, parked heads, credit stalls, free output VCs and
  // cached head routes are derived state; rebuild from the restored
  // buffers and credits. Every head starts unparked with no cached route:
  // its next VA attempt re-derives both exactly.
  va_cand_.ClearAll();
  sa_cand_.ClearAll();
  parked_.ClearAll();
  credit_stalled_.ClearAll();
  for (int idx = 0; idx < total; ++idx) {
    ovc_free_.Assign(idx, ovc_owner_[idx] < 0 &&
                              (!atomic_realloc_ ||
                               credits_[idx] == config_.buffer_depth));
    head_route_[idx] = HeadRoute{};
    if (OutOfCredits(idx)) credit_stalled_.Set(idx);
    if (buf_count_[idx] == 0) continue;
    if (in_active_[idx]) {
      sa_cand_.Set(idx);
    } else {
      va_cand_.Set(idx);
    }
  }
}

}  // namespace vixnoc
