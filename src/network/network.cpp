#include "network/network.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"
#include "router/vc_assign.hpp"
#include "routing/registry.hpp"
#include "snapshot/state_archive.hpp"
#include "telemetry/telemetry.hpp"

namespace vixnoc {

Network::Network(std::shared_ptr<Topology> topology,
                 const NetworkParams& params)
    : topology_(std::move(topology)), params_(params) {
  VIXNOC_CHECK(topology_ != nullptr);
  VIXNOC_REQUIRE(params_.flit_delay >= 1, "flit_delay must be >= 1, got %d",
                 params_.flit_delay);
  VIXNOC_REQUIRE(params_.credit_delay >= 1,
                 "credit_delay must be >= 1, got %d", params_.credit_delay);
  VIXNOC_REQUIRE(params_.ni_link_delay >= 1,
                 "ni_link_delay must be >= 1, got %d", params_.ni_link_delay);
  VIXNOC_REQUIRE(params_.router.radix == topology_->Radix(),
                 "router radix %d does not match topology radix %d",
                 params_.router.radix, topology_->Radix());
  if (params_.routing != nullptr) {
    routing_ = params_.routing;
  } else {
    owned_routing_ = MakeRoutingAlgorithm("dor", *topology_);
    routing_ = owned_routing_.get();
  }

  const int num_routers = topology_->NumRouters();
  routers_.reserve(num_routers);
  for (RouterId r = 0; r < num_routers; ++r) {
    routers_.push_back(std::make_unique<Router>(
        r, params_.router, topology_->LinksFor(r), routing_));
    routers_.back()->SetPacketTable(&packets_);
  }

  if (params_.telemetry != nullptr) {
    params_.telemetry->AttachRouters(num_routers, routers_[0]->geometry(),
                                     params_.router.buffer_depth);
    for (auto& router : routers_) router->SetTelemetry(params_.telemetry);
  }

  if (params_.faults != nullptr) {
    const FaultModel& fm = *params_.faults;
    // Permanent faults are in force from cycle 0 so lookahead routing and
    // the link masks can never disagree mid-flight.
    for (const auto& [r, o] : fm.permanent_down()) {
      VIXNOC_REQUIRE(r >= 0 && r < num_routers && o >= 0 &&
                         o < topology_->Radix(),
                     "fault model names router %d port %d outside this "
                     "network",
                     r, o);
      routers_[r]->SetOutputBlocked(o, true);
    }
    if (!fm.stalls().empty()) {
      router_stalled_.assign(num_routers, false);
    }
    corruption_active_ = fm.config().corruption_rate > 0.0;
  }
  sleep_enabled_ = params_.telemetry == nullptr && router_stalled_.empty();
  awake_.Resize(num_routers);
  awake_.SetAll();
  asleep_since_.assign(num_routers, 0);

  upstream_.resize(static_cast<std::size_t>(num_routers) *
                   topology_->Radix());
  for (RouterId r = 0; r < num_routers; ++r) {
    const auto links = topology_->LinksFor(r);
    for (PortId o = 0; o < topology_->Radix(); ++o) {
      if (links[o].neighbor < 0) continue;
      Upstream& up = upstream_[static_cast<std::size_t>(links[o].neighbor) *
                                   topology_->Radix() +
                               links[o].neighbor_in_port];
      up.router = r;
      up.out_port = o;
    }
  }

  const int num_nodes = topology_->NumNodes();
  nis_.resize(num_nodes);
  counters_.resize(num_nodes);
  for (NodeId n = 0; n < num_nodes; ++n) {
    Ni& ni = nis_[n];
    ni.node = n;
    ni.router = topology_->RouterOfNode(n);
    ni.port = topology_->InjectPortOfNode(n);
    VIXNOC_CHECK(ni.port == topology_->EjectPortOfNode(n));
    ni.credits.assign(params_.router.num_vcs, params_.router.buffer_depth);
    ni.vc_free.Resize(params_.router.num_vcs);
    ni.vc_free.SetAll();
    // Per-node stream offset from the routers' (id + 1) spacing so NI and
    // router streams never coincide.
    ni.vc_rng.Reseed(params_.router.vc_rng_seed +
                     0x9e3779b97f4a7c15ull *
                         (static_cast<std::uint64_t>(topology_->NumRouters()) +
                          static_cast<std::uint64_t>(n) + 1));
    Upstream& up = upstream_[static_cast<std::size_t>(ni.router) *
                                 topology_->Radix() +
                             ni.port];
    VIXNOC_CHECK(up.router == -1);  // injection ports have no router feeder
    up.node = n;
  }

  // Dispatch rows: resolve each (router, port) to its delivery target
  // once, so a router's commit writes each flit and credit header with a
  // row read instead of link-table and upstream-table branching.
  const int radix = topology_->Radix();
  link_dispatch_.resize(2 * upstream_.size());
  for (RouterId r = 0; r < num_routers; ++r) {
    LinkEvent* flit_row =
        &link_dispatch_[2 * static_cast<std::size_t>(r) * radix];
    LinkEvent* credit_row = flit_row + radix;
    for (PortId p = 0; p < radix; ++p) {
      const OutputLinkInfo& link = routers_[r]->link(p);
      if (link.IsEjection()) {
        flit_row[p] = LinkEvent{LinkEvent::Kind::kFlitToNi, link.eject_node,
                                kInvalidPort, kInvalidVc};
      } else if (link.IsConnected()) {
        flit_row[p] = LinkEvent{LinkEvent::Kind::kFlitToRouter, link.neighbor,
                                link.neighbor_in_port, kInvalidVc};
      }  // unconnected ports keep the target=-1 default (never sent on)
      const Upstream& up = UpstreamOf(r, p);
      if (up.node >= 0) {
        credit_row[p] = LinkEvent{LinkEvent::Kind::kCreditToNi, up.node,
                                  kInvalidPort, kInvalidVc};
      } else if (up.router >= 0) {
        credit_row[p] = LinkEvent{LinkEvent::Kind::kCreditToRouter,
                                  up.router, up.out_port, kInvalidVc};
      }
    }
    routers_[r]->SetLinkDispatch(flit_row, credit_row);
  }

  const int horizon = std::max({params_.flit_delay, params_.credit_delay,
                                params_.ni_link_delay}) +
                      1;
  wheel_.resize(horizon);
  vin_masks_ = VinMasks(params_.router.NumVins(), params_.router.num_vcs,
                        params_.router.interleaved_vins);
}

PacketId Network::EnqueuePacket(NodeId src, NodeId dst, int size_flits,
                                std::uint64_t user_tag, int msg_class) {
  VIXNOC_REQUIRE(src >= 0 && src < NumNodes(),
                 "source node %d outside [0, %d)", src, NumNodes());
  VIXNOC_REQUIRE(dst >= 0 && dst < NumNodes(),
                 "destination node %d outside [0, %d)", dst, NumNodes());
  VIXNOC_REQUIRE(size_flits >= 1 && size_flits <= kMaxPacketFlits,
                 "packet size must be in [1, %d] flits, got %d",
                 kMaxPacketFlits, size_flits);
  VIXNOC_REQUIRE(
      msg_class >= 0 && msg_class < params_.router.num_message_classes,
      "message class %d outside [0, %d)", msg_class,
      params_.router.num_message_classes);
  const PacketId id = next_packet_id_++;
  nis_[src].source_queue.push_back(
      PendingPacket{id, dst, size_flits, now_, user_tag, msg_class});
  return id;
}

void Network::DeliverDue() {
  LinkSlot& slot = wheel_[now_slot_];
  const Flit* payload = slot.flits.data();
  for (const LinkEvent& ev : slot.events) {
    switch (ev.kind) {
      case LinkEvent::Kind::kFlitToRouter:
        Wake(ev.target);
        routers_[ev.target]->AcceptFlit(ev.port, *payload++);
        break;
      case LinkEvent::Kind::kCreditToRouter:
        routers_[ev.target]->AcceptCredit(ev.port, ev.vc);
        break;
      case LinkEvent::Kind::kFlitToNi:
        HandleEjectedFlit(nis_[ev.target], *payload++);
        break;
      case LinkEvent::Kind::kCreditToNi: {
        Ni& ni = nis_[ev.target];
        ++ni.credits[ev.vc];
        VIXNOC_CHECK(ni.credits[ev.vc] <= params_.router.buffer_depth);
        break;
      }
    }
  }
  VIXNOC_DCHECK(payload == slot.flits.data() + slot.flits.size());
  slot.Clear();
}

std::uint64_t Network::InFlightEvents() const {
  std::uint64_t n = 0;
  for (const LinkSlot& slot : wheel_) n += slot.events.size();
  return n;
}

void Network::HandleEjectedFlit(Ni& ni, const Flit& flit) {
  ++counters_[ni.node].flits_ejected;
  if (tracer_) {
    tracer_(FlitEvent{FlitEventKind::kEject, now_, -1, kInvalidPort,
                      packets_.Expand(flit)});
  }
  const PacketInfo& packet = packets_[flit.packet];
  if (params_.telemetry != nullptr && flit.IsTail()) {
    params_.telemetry->OnPacketEjected();
    if (params_.telemetry->SampleTrace(packet.id)) {
      params_.telemetry->RecordTraceEvent(PacketTraceEvent{
          packet.id, PacketTraceEvent::Kind::kEject, now_, -1, packet.src,
          packet.dst});
    }
  }
  if (!flit.IsTail()) {
    if (flit.corrupted) ni.corrupted_partial.push_back(packet.id);
    return;
  }
  bool corrupted = flit.corrupted;
  if (!ni.corrupted_partial.empty()) {
    auto it = std::remove(ni.corrupted_partial.begin(),
                          ni.corrupted_partial.end(), packet.id);
    corrupted = corrupted || it != ni.corrupted_partial.end();
    ni.corrupted_partial.erase(it, ni.corrupted_partial.end());
  }
  ++counters_[ni.node].packets_ejected;
  ++counters_[packet.src].packets_delivered;
  if (eject_cb_) {
    PacketRecord rec;
    rec.id = packet.id;
    rec.src = packet.src;
    rec.dst = packet.dst;
    rec.size_flits = packet.size;
    rec.created = packet.created;
    rec.injected = packet.injected;
    rec.ejected = now_;
    rec.user_tag = packet.user_tag;
    rec.corrupted = corrupted;
    eject_cb_(rec);
  }
  // The tail was the packet's last flit in the network.
  packets_.Release(flit.packet);
}

void Network::StepNi(Ni& ni) {
  const RouterConfig& rc = params_.router;
  const RoutingAlgorithm& routing = *routing_;

  // Start at most one new packet per cycle: pick an injection VC with the
  // same policy routers use for output-VC assignment, steering VIX packets
  // into the sub-group matching their first-hop direction.
  if (!ni.source_queue.empty() && !ni.front_parked) {
    const PendingPacket& pkt = ni.source_queue.front();
    if (!ni.front_routed) {
      ni.front_route = routing.Route(ni.router, pkt.dst);
      ni.front_dim = routing.DimensionOf(ni.front_route);
      ni.front_routed = true;
    }
    const PortId route_out = ni.front_route;
    const int vpc = rc.VcsPerClass();
    const VcId cls_base = pkt.msg_class * vpc;
    const int pick = PickOutputVc(
        rc.vc_policy,
        VcWindow{ni.vc_free.data(), ni.credits.data(), 0, cls_base, vpc},
        vin_masks_, ni.front_dim, &ni.vc_rng);
    if (pick >= 0) {
      const VcId vc = cls_base + pick;
      ni.vc_free.Clear(vc);
      PacketInfo info;
      info.id = pkt.id;
      info.created = pkt.created;
      info.user_tag = pkt.user_tag;
      info.src = ni.node;
      info.dst = pkt.dst;
      info.size = static_cast<std::uint16_t>(pkt.size);
      info.msg_class = static_cast<std::uint8_t>(pkt.msg_class);
      ni.active.push_back(
          ActiveTx{packets_.Acquire(info), 0, route_out, vc});
      ni.source_queue.pop_front();
      ni.front_routed = false;
    } else {
      ni.front_parked = true;
    }
  }

  // Send at most one flit per cycle (the injection link is one flit wide),
  // round-robin across active packets that hold a credit.
  if (ni.active.empty()) return;
  const int n = static_cast<int>(ni.active.size());
  VIXNOC_DCHECK(ni.rr >= 0 && ni.rr < n);
  for (int off = 0, idx = ni.rr; off < n;
       ++off, idx = idx + 1 == n ? 0 : idx + 1) {
    ActiveTx& tx = ni.active[idx];
    if (ni.credits[tx.vc] <= 0) continue;

    PacketInfo& packet = packets_[tx.packet];
    if (tx.sent == 0) packet.injected = now_;
    LinkSlot& slot = wheel_[SlotAfter(params_.ni_link_delay)];
    slot.events.push_back(LinkEvent{LinkEvent::Kind::kFlitToRouter, ni.router,
                                    ni.port, kInvalidVc});
    Flit& flit = slot.flits.emplace_back();
    flit.packet = tx.packet;
    flit.seq = static_cast<std::uint16_t>(tx.sent);
    flit.type = FlitTypeFor(tx.sent, packet.size);
    flit.vc = static_cast<std::int16_t>(tx.vc);
    flit.route_out = static_cast<std::int16_t>(tx.route_out);

    --ni.credits[tx.vc];
    ++tx.sent;
    ++counters_[ni.node].flits_injected;
    if (tx.sent == 1) {
      ++counters_[ni.node].packets_injected;
      if (params_.telemetry != nullptr &&
          params_.telemetry->SampleTrace(packet.id)) {
        params_.telemetry->RecordTraceEvent(
            PacketTraceEvent{packet.id, PacketTraceEvent::Kind::kInject, now_,
                             -1, ni.node, packet.dst});
      }
    }
    if (tracer_) {
      tracer_(FlitEvent{FlitEventKind::kInject, now_, -1, kInvalidPort,
                        packets_.Expand(flit)});
    }

    if (tx.sent == packet.size) {
      ni.vc_free.Set(tx.vc);
      ni.front_parked = false;
      ni.active.erase(ni.active.begin() + idx);
      if (ni.rr >= n - 1) ni.rr = 0;  // wrap on the shortened list
    } else {
      ni.rr = idx + 1 == n ? 0 : idx + 1;
    }
    break;
  }
}

void Network::UpdateFaultMasks() {
  const FaultModel& fm = *params_.faults;
  for (const FaultModel::TransientLink& link : fm.transient_links()) {
    routers_[link.router]->SetOutputBlocked(link.out_port,
                                            fm.TransientDownAt(link, now_));
  }
  for (const FaultModel::StallWindow& stall : fm.stalls()) {
    router_stalled_[stall.router] = fm.StalledAt(stall, now_);
  }
}

void Network::Step() {
  DeliverDue();

  if (params_.faults != nullptr) UpdateFaultMasks();

  for (Ni& ni : nis_) StepNi(ni);

  // Routers append straight into the wheel: every flit leaving any router
  // this cycle lands in the slot at now_ + flit_delay, every credit in the
  // slot at now_ + credit_delay (the same slot when the delays are equal).
  // Per router, flits come before credits, and routers go in ascending id
  // order, so DeliverDue sees the events in the order a per-event
  // scheduler would have queued them.
  LinkSlot& flit_slot = wheel_[SlotAfter(params_.flit_delay)];
  LinkSlot& credit_slot = wheel_[SlotAfter(params_.credit_delay)];
  const std::size_t flits_before = flit_slot.flits.size();
  const bool hooked = tracer_ != nullptr || corruption_active_;
  // Awake routers in ascending id order, as the full loop would: sleeping
  // ones would emit nothing. Clearing a bit mid-scan is safe (ForEach
  // reads each word once).
  awake_.ForEach([&](int id) {
    Router* router = routers_[id].get();
    // A stalled router's control pipeline is frozen: no VA/SA/ST this
    // cycle. Deliveries into its buffers (handled above) still land.
    if (!router_stalled_.empty() && router_stalled_[id]) return;
    const std::size_t event_mark = flit_slot.events.size();
    const std::size_t flit_mark = flit_slot.flits.size();
    router->Step(now_, &flit_slot, &credit_slot);
    if (hooked && flit_slot.flits.size() != flit_mark) {
      OnFlitsSent(*router, flit_slot, event_mark, flit_mark);
    }
    if (sleep_enabled_ && router->Idle()) {
      awake_.Clear(id);
      asleep_since_[id] = now_ + 1;
    }
  });

  if (flit_slot.flits.size() != flits_before) last_progress_ = now_;

  if (params_.telemetry != nullptr) params_.telemetry->Tick(now_);

  ++now_;
  if (++now_slot_ == wheel_.size()) now_slot_ = 0;
}

void Network::OnFlitsSent(const Router& router, LinkSlot& slot,
                          std::size_t event_mark, std::size_t flit_mark) {
  // The router appended one flit per grant, in grant order, ahead of any
  // credit it put in the same slot.
  const std::vector<SaGrant>& grants = router.LastGrants();
  VIXNOC_DCHECK(slot.flits.size() - flit_mark == grants.size());
  for (std::size_t i = 0; i < grants.size(); ++i) {
    Flit& flit = slot.flits[flit_mark + i];
    const PortId out = grants[i].out_port;
    if (tracer_) {
      tracer_(FlitEvent{FlitEventKind::kTraverse, now_, router.id(), out,
                        packets_.Expand(flit)});
    }
    if (corruption_active_ &&
        slot.events[event_mark + i].kind == LinkEvent::Kind::kFlitToRouter &&
        params_.faults->CorruptsTraversal(router.id(), out, now_)) {
      flit.corrupted = true;
    }
  }
}

bool Network::Quiescent() const {
  if (InFlightEvents() != 0) return false;
  for (const auto& router : routers_) {
    if (!router->Quiescent()) return false;
  }
  for (const Ni& ni : nis_) {
    if (!ni.source_queue.empty() || !ni.active.empty()) return false;
  }
  return true;
}

void Network::ClearCounters() {
  for (auto& c : counters_) c = NodeCounters{};
}

std::vector<std::uint32_t> Network::OccupancySnapshot() const {
  std::vector<std::uint32_t> occupancy(routers_.size());
  for (std::size_t r = 0; r < routers_.size(); ++r) {
    occupancy[r] = static_cast<std::uint32_t>(routers_[r]->TotalBufferedFlits());
  }
  return occupancy;
}

std::uint64_t Network::TotalSourceQueueFlits() const {
  std::uint64_t total = 0;
  for (const Ni& ni : nis_) {
    for (const PendingPacket& p : ni.source_queue) {
      total += static_cast<std::uint64_t>(p.size);
    }
    for (const ActiveTx& tx : ni.active) {
      total +=
          static_cast<std::uint64_t>(packets_[tx.packet].size - tx.sent);
    }
  }
  return total;
}

void Network::CatchUp(RouterId r) const {
  if (awake_.Test(r)) return;
  routers_[r]->SkipIdleCycles(now_ - asleep_since_[r]);
  asleep_since_[r] = now_;
}

void Network::CatchUpAll() const {
  for (RouterId r = 0; r < NumRouters(); ++r) CatchUp(r);
}

void Network::Wake(RouterId r) {
  CatchUp(r);
  awake_.Set(r);
}

RouterActivity Network::TotalActivity() const {
  CatchUpAll();
  RouterActivity total;
  for (const auto& router : routers_) {
    const RouterActivity& a = router->activity();
    total.buffer_writes += a.buffer_writes;
    total.buffer_reads += a.buffer_reads;
    total.xbar_traversals += a.xbar_traversals;
    total.link_flits += a.link_flits;
    total.sa_requests += a.sa_requests;
    total.sa_grants += a.sa_grants;
    total.va_requests += a.va_requests;
    total.va_grants += a.va_grants;
    total.cycles += a.cycles;
    total.cycles_with_requests += a.cycles_with_requests;
  }
  return total;
}

void Network::ClearActivity() {
  CatchUpAll();  // the skipped cycles belong before the clear
  for (auto& router : routers_) router->ClearActivity();
}

std::uint64_t Network::StructureFingerprint() const {
  const RouterConfig& rc = params_.router;
  const std::uint64_t fields[] = {
      static_cast<std::uint64_t>(topology_->NumRouters()),
      static_cast<std::uint64_t>(topology_->NumNodes()),
      static_cast<std::uint64_t>(topology_->Radix()),
      static_cast<std::uint64_t>(params_.flit_delay),
      static_cast<std::uint64_t>(params_.credit_delay),
      static_cast<std::uint64_t>(params_.ni_link_delay),
      static_cast<std::uint64_t>(rc.num_vcs),
      static_cast<std::uint64_t>(rc.buffer_depth),
      static_cast<std::uint64_t>(rc.scheme),
      static_cast<std::uint64_t>(rc.arbiter_kind),
      static_cast<std::uint64_t>(rc.vc_policy),
      static_cast<std::uint64_t>(rc.vix_virtual_inputs),
      static_cast<std::uint64_t>(rc.interleaved_vins),
      static_cast<std::uint64_t>(rc.ap_rotate_vcs),
      static_cast<std::uint64_t>(rc.speculative_sa),
      static_cast<std::uint64_t>(rc.va_organization),
      static_cast<std::uint64_t>(rc.prioritize_nonspeculative),
      static_cast<std::uint64_t>(rc.atomic_vc_alloc),
      static_cast<std::uint64_t>(rc.num_message_classes),
      rc.vc_rng_seed,
      routing_->Fingerprint(),
  };
  return Fnv1a64(fields, sizeof(fields));
}

void Network::SaveState(SnapshotWriter& w) const {
  CatchUpAll();
  StateArchive ar(w);
  const_cast<Network*>(this)->Visit(ar);  // saving only reads
}

void Network::LoadState(SnapshotReader& r) {
  StateArchive ar(r);
  Visit(ar);
}

void Network::Visit(StateArchive& ar) {
  const RouterConfig& rc = params_.router;
  const int radix = topology_->Radix();
  const int max_size = kMaxPacketFlits + 1;
  if (ar.loading()) {
    packets_.BeginRestore(NumNodes(), rc.num_message_classes);
  }
  ar.U64(now_);
  ar.U64(last_progress_);
  ar.U64(next_packet_id_);
  std::uint64_t in_flight = InFlightEvents();
  ar.U64(in_flight);
  // Event wheel. A slot's index determines its due cycle relative to now_
  // (slot = cycle % wheel size), and the wheel size is a pure function of
  // the link delays covered by the structure fingerprint, so serializing
  // slot-by-slot round-trips exactly. Each event is stored with a flit
  // record, the empty FlitRecord{} for a credit, so the bytes do not
  // depend on where the wheel keeps its payloads. DeliverDue indexes
  // routers, NIs, ports and VCs with the header fields unchecked.
  auto num_slots = static_cast<std::uint32_t>(wheel_.size());
  ar.U32(num_slots);
  ar.Require(num_slots == wheel_.size(),
             "restored event wheel has %u slots, this network has %zu (link "
             "delays differ)",
             num_slots, wheel_.size());
  for (LinkSlot& slot : wheel_) {
    if (ar.loading()) slot.flits.clear();
    const Flit* payload = slot.flits.data();
    // kind u8 + target/port/vc i32 + the stored flit.
    ar.List(slot.events, 1 + 3 * 4 + kFlitBytes, [&](LinkEvent& ev) {
      ar.Enum8(ev.kind, LinkEvent::Kind::kCreditToNi, "link event kind");
      const bool to_router = ev.kind == LinkEvent::Kind::kFlitToRouter ||
                             ev.kind == LinkEvent::Kind::kCreditToRouter;
      ar.I32(ev.target, 0, to_router ? NumRouters() : NumNodes(),
             "link event target");
      ar.I32(ev.port, to_router ? 0 : kInvalidPort,
             to_router ? radix : kInvalidPort + 1, "link event port");
      ar.I32(ev.vc, ev.IsFlit() ? kInvalidVc : 0,
             ev.IsFlit() ? kInvalidVc + 1 : rc.num_vcs, "link event VC");
      FlitRecord flit = ar.loading() || !ev.IsFlit()
                            ? FlitRecord{}
                            : packets_.Expand(*payload++);
      ar.Object(flit);
      if (!ev.IsFlit()) return;  // a credit's FlitRecord{} is dropped
      ar.Require(ev.kind == LinkEvent::Kind::kFlitToNi ||
                     (flit.vc >= 0 && flit.vc < rc.num_vcs &&
                      flit.route_out >= 0 && flit.route_out < radix),
                 "restored flit on a link has vc %d, route %d out of range",
                 flit.vc, flit.route_out);
      if (ar.loading()) slot.flits.push_back(packets_.Intern(ar, flit));
    });
  }
  for (NodeCounters& c : counters_) ar.Object(c);
  for (Ni& ni : nis_) {
    // Three u64 and three i32 fields per queued packet.
    ar.List(ni.source_queue, 3 * 8 + 3 * 4, [&](PendingPacket& p) {
      ar.U64(p.id);
      ar.I32(p.dst, 0, NumNodes(), "queued packet destination");
      ar.I32(p.size, 1, max_size, "queued packet size");
      ar.U64(p.created);
      ar.U64(p.user_tag);
      ar.I32(p.msg_class, 0, rc.num_message_classes, "queued packet class");
    });
    // Four u64 and six i32 fields per transmission, its packet's fields
    // among them (the NI is its source).
    ar.List(ni.active, 4 * 8 + 6 * 4, [&](ActiveTx& tx) {
      PacketInfo p = ar.loading() ? PacketInfo{} : packets_[tx.packet];
      int dst = p.dst;
      int size = p.size;
      int msg_class = p.msg_class;
      ar.U64(p.id);
      ar.I32(dst, 0, NumNodes(), "transmission destination");
      ar.I32(size, 1, max_size, "transmission size");
      ar.I32(tx.sent, 0, size, "transmission flits sent");
      ar.U64(p.created);
      ar.U64(p.injected);
      ar.U64(p.user_tag);
      ar.I32(tx.route_out, 0, radix, "transmission route");
      ar.Require(routers_[ni.router]->link(tx.route_out).IsConnected(),
                 "restored transmission routes to unconnected port %d",
                 tx.route_out);
      ar.I32(tx.vc, 0, rc.num_vcs, "transmission VC");
      ar.I32(msg_class, 0, rc.num_message_classes, "transmission class");
      if (!ar.loading()) return;
      p.src = ni.node;
      p.dst = dst;
      p.size = static_cast<std::uint16_t>(size);
      p.msg_class = static_cast<std::uint8_t>(msg_class);
      // The tail is still to be sent: the transmission is the packet's end.
      tx.packet = packets_.Intern(ar, p, /*ends=*/true);
    });
    ar.VecI32(ni.credits, 0, rc.buffer_depth + 1, "NI credits");
    std::vector<bool> vc_busy(static_cast<std::size_t>(rc.num_vcs));
    for (VcId vc = 0; vc < rc.num_vcs; ++vc) {
      vc_busy[vc] = !ni.vc_free.Test(vc);
    }
    ar.VecBool(vc_busy, "NI vc_busy vector");
    if (ar.loading()) {
      for (VcId vc = 0; vc < rc.num_vcs; ++vc) {
        ni.vc_free.Assign(vc, !vc_busy[vc]);
      }
    }
    ar.I32(ni.rr, 0, std::max<int>(1, ni.active.size()),
           "NI round-robin pointer");
    ar.VecU64(ni.corrupted_partial);
    ar.Object(ni.vc_rng);
  }
  for (auto& router : routers_) router->Visit(ar);
  if (!ar.loading()) return;
  packets_.EndRestore();
  RequireConsistentLinks(ar);

  ar.Require(InFlightEvents() == in_flight,
             "restored wheel holds %llu events but the checkpoint recorded "
             "%llu in flight",
             static_cast<unsigned long long>(InFlightEvents()),
             static_cast<unsigned long long>(in_flight));
  now_slot_ = static_cast<std::size_t>(now_ % wheel_.size());
  for (Ni& ni : nis_) ni.front_routed = ni.front_parked = false;
  awake_.SetAll();  // each sleeps again after its first idle Step
  // Fault masks are a pure function of (fault model, now_) plus the
  // permanent blocks installed at construction; transient masks are
  // recomputed at the top of the next Step.
}

void Network::RequireConsistentLinks(const StateArchive& ar) const {
  const RouterConfig& rc = params_.router;
  const int depth = rc.buffer_depth;
  const int vcs = rc.num_vcs;
  const auto per_router_vc = [&](std::int32_t router, PortId port, VcId vc) {
    return (static_cast<std::size_t>(router) * topology_->Radix() + port) *
               vcs +
           vc;
  };
  // What the wheel will deliver: flits per router input VC, credits per
  // router output VC and per NI VC. Header fields were bounded on load.
  std::vector<int> flits_due(routers_.size() * topology_->Radix() * vcs);
  std::vector<int> credits_due(flits_due.size());
  std::vector<int> ni_credits_due(nis_.size() * vcs);
  for (const LinkSlot& slot : wheel_) {
    const Flit* payload = slot.flits.data();
    for (const LinkEvent& ev : slot.events) {
      switch (ev.kind) {
        case LinkEvent::Kind::kFlitToRouter:
          ++flits_due[per_router_vc(ev.target, ev.port, payload++->vc)];
          break;
        case LinkEvent::Kind::kCreditToRouter:
          ++credits_due[per_router_vc(ev.target, ev.port, ev.vc)];
          break;
        case LinkEvent::Kind::kFlitToNi:
          ++payload;
          break;
        case LinkEvent::Kind::kCreditToNi:
          ++ni_credits_due[static_cast<std::size_t>(ev.target) * vcs + ev.vc];
          break;
      }
    }
  }
  for (RouterId r = 0; r < NumRouters(); ++r) {
    const Router& router = *routers_[r];
    for (PortId p = 0; p < topology_->Radix(); ++p) {
      for (VcId vc = 0; vc < vcs; ++vc) {
        const std::size_t i = per_router_vc(r, p, vc);
        ar.Require(router.BufferOccupancy(p, vc) + flits_due[i] <= depth,
                   "restored router %d input VC (%d, %d) holds %d flits with "
                   "%d more due, over its depth %d",
                   r, p, vc, router.BufferOccupancy(p, vc), flits_due[i],
                   depth);
        ar.Require(router.CreditsFor(p, vc) + credits_due[i] <= depth,
                   "restored router %d output VC (%d, %d) holds %d credits "
                   "with %d more due, over its depth %d",
                   r, p, vc, router.CreditsFor(p, vc), credits_due[i], depth);
      }
    }
  }
  const int vpc = rc.VcsPerClass();
  std::vector<bool> tx_vc(static_cast<std::size_t>(vcs));
  for (const Ni& ni : nis_) {
    for (VcId vc = 0; vc < vcs; ++vc) {
      const int due = ni_credits_due[static_cast<std::size_t>(ni.node) * vcs +
                                     vc];
      ar.Require(ni.credits[vc] + due <= depth,
                 "restored NI %d VC %d holds %d credits with %d more due, "
                 "over its depth %d",
                 ni.node, vc, ni.credits[vc], due, depth);
    }
    std::fill(tx_vc.begin(), tx_vc.end(), false);
    for (const ActiveTx& tx : ni.active) {
      const int msg_class = packets_[tx.packet].msg_class;
      ar.Require(!tx_vc[tx.vc] && tx.vc / vpc == msg_class,
                 "restored NI %d has a second transmission on VC %d, or one "
                 "outside class %d",
                 ni.node, tx.vc, msg_class);
      tx_vc[tx.vc] = true;
    }
    for (VcId vc = 0; vc < vcs; ++vc) {
      ar.Require(tx_vc[vc] != ni.vc_free.Test(vc),
                 "restored NI %d marks VC %d %s, unlike its transmissions",
                 ni.node, vc, tx_vc[vc] ? "free" : "busy");
    }
  }
}

void Network::SaveCheckpoint(const std::string& path) const {
  SnapshotWriter w;
  w.BeginSection("network");
  SaveState(w);
  w.EndSection();
  WriteSnapshotFile(path, w.Finish(StructureFingerprint()));
}

void Network::RestoreCheckpoint(const std::string& path) {
  SnapshotReader r(ReadSnapshotFile(path));
  VIXNOC_REQUIRE(r.fingerprint() == StructureFingerprint(),
                 "checkpoint '%s' was taken on a network with a different "
                 "structure (fingerprint %llx, this network is %llx)",
                 path.c_str(),
                 static_cast<unsigned long long>(r.fingerprint()),
                 static_cast<unsigned long long>(StructureFingerprint()));
  r.OpenSection("network");
  LoadState(r);
  r.CloseSection();
}

}  // namespace vixnoc
