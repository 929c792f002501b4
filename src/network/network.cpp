#include "network/network.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "router/vc_assign.hpp"
#include "routing/registry.hpp"
#include "snapshot/snapshot.hpp"
#include "snapshot/state_io.hpp"
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
    ni.vc_busy.assign(params_.router.num_vcs, false);
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
  ni_vc_views_.resize(params_.router.VcsPerClass());
}

PacketId Network::EnqueuePacket(NodeId src, NodeId dst, int size_flits,
                                std::uint64_t user_tag, int msg_class) {
  VIXNOC_REQUIRE(src >= 0 && src < NumNodes(),
                 "source node %d outside [0, %d)", src, NumNodes());
  VIXNOC_REQUIRE(dst >= 0 && dst < NumNodes(),
                 "destination node %d outside [0, %d)", dst, NumNodes());
  VIXNOC_REQUIRE(size_flits >= 1, "packet size must be >= 1 flit, got %d",
                 size_flits);
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
    tracer_(FlitEvent{FlitEventKind::kEject, now_, -1, kInvalidPort, flit});
  }
  if (params_.telemetry != nullptr && flit.IsTail()) {
    params_.telemetry->OnPacketEjected();
    if (params_.telemetry->SampleTrace(flit.packet_id)) {
      params_.telemetry->RecordTraceEvent(PacketTraceEvent{
          flit.packet_id, PacketTraceEvent::Kind::kEject, now_, -1, flit.src,
          flit.dst});
    }
  }
  if (!flit.IsTail()) {
    if (flit.corrupted) ni.corrupted_partial.push_back(flit.packet_id);
    return;
  }
  bool corrupted = flit.corrupted;
  if (!ni.corrupted_partial.empty()) {
    auto it = std::remove(ni.corrupted_partial.begin(),
                          ni.corrupted_partial.end(), flit.packet_id);
    corrupted = corrupted || it != ni.corrupted_partial.end();
    ni.corrupted_partial.erase(it, ni.corrupted_partial.end());
  }
  ++counters_[ni.node].packets_ejected;
  ++counters_[flit.src].packets_delivered;
  if (eject_cb_) {
    PacketRecord rec;
    rec.id = flit.packet_id;
    rec.src = flit.src;
    rec.dst = flit.dst;
    rec.size_flits = flit.packet_size;
    rec.created = flit.created;
    rec.injected = flit.injected;
    rec.ejected = now_;
    rec.user_tag = flit.user_tag;
    rec.corrupted = corrupted;
    eject_cb_(rec);
  }
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
    std::vector<OutputVcView>& views = ni_vc_views_;
    for (VcId i = 0; i < vpc; ++i) {
      views[i].allocated = ni.vc_busy[cls_base + i];
      views[i].credits = ni.credits[cls_base + i];
    }
    VinLayout layout;
    layout.num_vins = rc.NumVins();
    layout.total_vcs = rc.num_vcs;
    layout.interleaved = rc.interleaved_vins;
    layout.first_vc = cls_base;
    const int pick =
        PickOutputVc(rc.vc_policy, views, layout, ni.front_dim, &ni.vc_rng);
    if (pick >= 0) {
      const VcId vc = cls_base + pick;
      ni.vc_busy[vc] = true;
      ni.active.push_back(ActiveTx{pkt.id, pkt.dst, pkt.size, 0, pkt.created,
                                   kNeverCycle, pkt.user_tag, route_out, vc,
                                   pkt.msg_class});
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

    if (tx.injected == kNeverCycle) tx.injected = now_;
    LinkSlot& slot = wheel_[SlotAfter(params_.ni_link_delay)];
    slot.events.push_back(LinkEvent{LinkEvent::Kind::kFlitToRouter, ni.router,
                                    ni.port, kInvalidVc});
    Flit& flit = slot.flits.emplace_back();
    flit.packet_id = tx.id;
    flit.src = ni.node;
    flit.dst = tx.dst;
    flit.type = FlitTypeFor(tx.sent, tx.size);
    flit.seq = static_cast<std::uint16_t>(tx.sent);
    flit.packet_size = static_cast<std::uint16_t>(tx.size);
    flit.created = tx.created;
    flit.injected = tx.injected;
    flit.vc = tx.vc;
    flit.route_out = tx.route_out;
    flit.user_tag = tx.user_tag;
    flit.msg_class = static_cast<std::uint8_t>(tx.msg_class);

    --ni.credits[tx.vc];
    ++tx.sent;
    ++counters_[ni.node].flits_injected;
    if (tx.sent == 1) {
      ++counters_[ni.node].packets_injected;
      if (params_.telemetry != nullptr &&
          params_.telemetry->SampleTrace(tx.id)) {
        params_.telemetry->RecordTraceEvent(
            PacketTraceEvent{tx.id, PacketTraceEvent::Kind::kInject, now_, -1,
                             ni.node, tx.dst});
      }
    }
    if (tracer_) {
      tracer_(
          FlitEvent{FlitEventKind::kInject, now_, -1, kInvalidPort, flit});
    }

    if (tx.sent == tx.size) {
      ni.vc_busy[tx.vc] = false;
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
                        flit});
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
      total += static_cast<std::uint64_t>(tx.size - tx.sent);
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
  w.U64(now_);
  w.U64(last_progress_);
  w.U64(next_packet_id_);
  w.U64(InFlightEvents());
  // Event wheel. A slot's index determines its due cycle relative to now_
  // (slot = cycle % wheel size), and the wheel size is a pure function of
  // the link delays covered by the structure fingerprint, so serializing
  // slot-by-slot round-trips exactly. Each event is encoded with a flit,
  // the empty Flit{} for a credit, so the bytes do not depend on where
  // the wheel keeps its payloads.
  w.U32(static_cast<std::uint32_t>(wheel_.size()));
  for (const LinkSlot& slot : wheel_) {
    w.U32(static_cast<std::uint32_t>(slot.events.size()));
    const Flit* payload = slot.flits.data();
    for (const LinkEvent& ev : slot.events) {
      w.U8(static_cast<std::uint8_t>(ev.kind));
      w.I32(ev.target);
      w.I32(ev.port);
      w.I32(ev.vc);
      SaveFlit(w, ev.IsFlit() ? *payload++ : Flit{});
    }
  }
  for (const NodeCounters& c : counters_) SaveNodeCounters(w, c);
  for (const Ni& ni : nis_) {
    w.U32(static_cast<std::uint32_t>(ni.source_queue.size()));
    for (const PendingPacket& p : ni.source_queue) {
      w.U64(p.id);
      w.I32(p.dst);
      w.I32(p.size);
      w.U64(p.created);
      w.U64(p.user_tag);
      w.I32(p.msg_class);
    }
    w.U32(static_cast<std::uint32_t>(ni.active.size()));
    for (const ActiveTx& tx : ni.active) {
      w.U64(tx.id);
      w.I32(tx.dst);
      w.I32(tx.size);
      w.I32(tx.sent);
      w.U64(tx.created);
      w.U64(tx.injected);
      w.U64(tx.user_tag);
      w.I32(tx.route_out);
      w.I32(tx.vc);
      w.I32(tx.msg_class);
    }
    w.VecI32(ni.credits);
    w.VecBool(ni.vc_busy);
    w.I32(ni.rr);
    w.VecU64(ni.corrupted_partial);
    SaveRng(w, ni.vc_rng);
  }
  for (const auto& router : routers_) router->SaveState(w);
}

void Network::LoadState(SnapshotReader& r) {
  now_ = r.U64();
  last_progress_ = r.U64();
  next_packet_id_ = r.U64();
  const std::uint64_t in_flight = r.U64();
  const std::uint32_t num_slots = r.U32();
  VIXNOC_REQUIRE(num_slots == wheel_.size(),
                 "restored event wheel has %u slots, this network has %zu "
                 "(link delays differ)",
                 num_slots, wheel_.size());
  now_slot_ = static_cast<std::size_t>(now_ % wheel_.size());
  std::uint64_t counted = 0;
  for (LinkSlot& slot : wheel_) {
    slot.Clear();
    // kind u8 + target/port/vc i32 + the encoded flit.
    const std::uint32_t n = r.CountU32(1 + 3 * 4 + kFlitBytes);
    slot.events.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      LinkEvent ev;
      const std::uint8_t kind = r.U8();
      VIXNOC_REQUIRE(
          kind <= static_cast<std::uint8_t>(LinkEvent::Kind::kCreditToNi),
          "restored link event has invalid kind %u", kind);
      ev.kind = static_cast<LinkEvent::Kind>(kind);
      ev.target = r.I32();
      ev.port = r.I32();
      ev.vc = r.I32();
      // DeliverDue indexes routers, NIs, ports and VCs with these unchecked.
      const bool to_router = ev.kind == LinkEvent::Kind::kFlitToRouter ||
                             ev.kind == LinkEvent::Kind::kCreditToRouter;
      VIXNOC_REQUIRE(
          ev.target >= 0 &&
              ev.target < (to_router ? NumRouters() : NumNodes()) &&
              (!to_router || (ev.port >= 0 && ev.port < topology_->Radix())) &&
              (ev.IsFlit() || (ev.vc >= 0 && ev.vc < params_.router.num_vcs)),
          "restored link event (kind %u) targets %d, port %d, VC %d out of "
          "range",
          kind, ev.target, ev.port, ev.vc);
      const Flit flit = LoadFlit(r);  // Flit{} after a credit: dropped
      slot.events.push_back(ev);
      if (ev.IsFlit()) slot.flits.push_back(flit);
    }
    counted += n;
  }
  VIXNOC_REQUIRE(counted == in_flight,
                 "restored wheel holds %llu events but the checkpoint "
                 "recorded %llu in flight",
                 static_cast<unsigned long long>(counted),
                 static_cast<unsigned long long>(in_flight));
  for (NodeCounters& c : counters_) LoadNodeCounters(r, &c);
  for (Ni& ni : nis_) {
    ni.source_queue.clear();
    ni.front_routed = false;
    ni.front_parked = false;
    const std::uint32_t nq = r.U32();
    for (std::uint32_t i = 0; i < nq; ++i) {
      PendingPacket p;
      p.id = r.U64();
      p.dst = r.I32();
      p.size = r.I32();
      p.created = r.U64();
      p.user_tag = r.U64();
      p.msg_class = r.I32();
      ni.source_queue.push_back(std::move(p));
    }
    ni.active.clear();
    // Four u64 and six i32 fields per transmission.
    const std::uint32_t na = r.CountU32(4 * 8 + 6 * 4);
    ni.active.reserve(na);
    for (std::uint32_t i = 0; i < na; ++i) {
      ActiveTx tx;
      tx.id = r.U64();
      tx.dst = r.I32();
      tx.size = r.I32();
      tx.sent = r.I32();
      tx.created = r.U64();
      tx.injected = r.U64();
      tx.user_tag = r.U64();
      tx.route_out = r.I32();
      tx.vc = r.I32();
      tx.msg_class = r.I32();
      ni.active.push_back(std::move(tx));
    }
    std::vector<int> credits = r.VecI32();
    VIXNOC_REQUIRE(credits.size() == ni.credits.size(),
                   "restored NI credit vector has %zu VCs, expected %zu",
                   credits.size(), ni.credits.size());
    ni.credits = std::move(credits);
    std::vector<bool> busy = r.VecBool();
    VIXNOC_REQUIRE(busy.size() == ni.vc_busy.size(),
                   "restored NI vc_busy vector has %zu VCs, expected %zu",
                   busy.size(), ni.vc_busy.size());
    ni.vc_busy = std::move(busy);
    ni.rr = r.I32();
    VIXNOC_REQUIRE(ni.rr >= 0 && ni.rr < std::max<int>(1, ni.active.size()),
                   "restored NI round-robin pointer %d outside its %zu "
                   "transmissions",
                   ni.rr, ni.active.size());
    ni.corrupted_partial = r.VecU64();
    LoadRng(r, &ni.vc_rng);
  }
  for (auto& router : routers_) router->LoadState(r);
  awake_.SetAll();  // each sleeps again after its first idle Step
  // Fault masks are a pure function of (fault model, now_) plus the
  // permanent blocks installed at construction; transient masks are
  // recomputed at the top of the next Step.
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
