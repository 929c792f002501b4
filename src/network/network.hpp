// The network: routers wired per a Topology, flit/credit links with
// pipeline latency, and per-node network interfaces (NIs) with unbounded
// source queues (open-loop injection) and flit reassembly at ejection.
//
// Determinism: all inter-router interaction flows through delayed link
// events, and each component only reads its own committed state, so a
// simulation is bit-reproducible for a given seed regardless of platform.
//
// Link events: the event wheel has one LinkSlot per cycle of link delay.
// NIs and routers append to it directly: a 16-byte header per event, and
// for a flit event its 16-byte payload in the slot's separate flit vector.
// A flit is thus copied once into the wheel and once out of it, and a
// credit is a header only.
//
// Packets: the NI takes a PacketTable slot for a packet when it starts the
// packet and releases it when the tail ejects, so a packet's fields live
// once, in the table, while its flits carry only the slot (router/flit.hpp).
// Checkpoints store flits and transmissions with their packet's fields
// copied in, in the same bytes as when every flit carried them.
//
// Sleeping routers: a router whose Step leaves it Router::Idle() leaves
// the stepped set and rejoins it when a flit is delivered to it. Its
// skipped cycles are replayed in O(1) (Router::SkipIdleCycles) when it
// wakes and before anything reads its state, so skipping is invisible.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "fault/fault_model.hpp"
#include "router/router.hpp"
#include "topology/topology.hpp"

namespace vixnoc {

class SnapshotReader;
class SnapshotWriter;
class StateArchive;
class TelemetryCollector;

/// Timing of the links around the 3-stage router pipeline (Fig 6b).
struct NetworkParams {
  RouterConfig router;
  /// Cycles from a switch-allocation grant to the flit being usable in the
  /// downstream input buffer: ST + LT for the 3-stage pipeline.
  int flit_delay = 3;
  /// Cycles for a freed buffer slot to become a usable upstream credit.
  int credit_delay = 2;
  /// Cycles from NI injection decision to the router input buffer.
  int ni_link_delay = 1;
  /// Fault schedule driving link-down / router-stall / corruption masks.
  /// Null (the default) takes none of the fault paths.
  std::shared_ptr<const FaultModel> faults;
  /// Routing algorithm used by every router and NI (a src/routing/ plugin,
  /// typically from MakeRoutingAlgorithm). Must outlive the network. Null
  /// (the default) builds and owns the "dor" plugin for the topology.
  const RoutingAlgorithm* routing = nullptr;
  /// Observability sink (telemetry/telemetry.hpp); must outlive the
  /// network. Null (the default) keeps every hot path at one pointer test
  /// and the simulation bitwise identical to an uninstrumented run.
  TelemetryCollector* telemetry = nullptr;
};

/// Everything known about a delivered packet, passed to the eject callback.
struct PacketRecord {
  PacketId id = 0;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  int size_flits = 0;
  Cycle created = 0;   ///< entered the source queue
  Cycle injected = 0;  ///< head flit left the NI
  Cycle ejected = 0;   ///< tail flit arrived at the destination NI
  std::uint64_t user_tag = 0;
  /// Any of the packet's flits was payload-corrupted by a link fault.
  bool corrupted = false;
};

class Network {
 public:
  Network(std::shared_ptr<Topology> topology, const NetworkParams& params);
  // Routers hold a pointer to the network's packet table.
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  const Topology& topology() const { return *topology_; }
  const NetworkParams& params() const { return params_; }
  Cycle now() const { return now_; }
  int NumNodes() const { return topology_->NumNodes(); }

  /// Queue a packet at `src`'s NI. Returns its id. `created` defaults to
  /// the current cycle. `msg_class` selects the virtual network when the
  /// router config partitions VCs into message classes.
  PacketId EnqueuePacket(NodeId src, NodeId dst, int size_flits,
                         std::uint64_t user_tag = 0, int msg_class = 0);

  /// Invoked when a packet's tail flit reaches its destination NI.
  using EjectCallback = std::function<void(const PacketRecord&)>;
  void SetEjectCallback(EjectCallback cb) { eject_cb_ = std::move(cb); }

  /// Per-flit event stream for debugging and microarchitectural analysis.
  /// kInject fires when the NI puts a flit on its injection link, kTraverse
  /// when a router's switch forwards it, kEject when it reaches the
  /// destination NI. The tracer adds no cost when unset; when set, each
  /// event carries the flit with its packet's fields copied in.
  enum class FlitEventKind : std::uint8_t { kInject, kTraverse, kEject };
  struct FlitEvent {
    FlitEventKind kind;
    Cycle cycle;
    RouterId router;  ///< kTraverse only; -1 otherwise
    PortId out_port;  ///< kTraverse only
    FlitRecord flit;
  };
  using FlitTracer = std::function<void(const FlitEvent&)>;
  void SetFlitTracer(FlitTracer tracer) { tracer_ = std::move(tracer); }

  /// Advance one cycle: deliver due link events, step NIs, step routers.
  void Step();

  /// True when no flit exists anywhere: source queues, buffers, or links.
  bool Quiescent() const;

  /// Cycles elapsed since any flit traversed a crossbar or was injected —
  /// a forward-progress watchdog. A non-quiescent network whose counter
  /// keeps growing is deadlocked (impossible under DOR + credits, but the
  /// check keeps experimental routing functions honest).
  Cycle CyclesSinceProgress() const { return now_ - last_progress_; }
  bool SuspectedDeadlock(Cycle threshold = 1'000) const {
    return !Quiescent() && CyclesSinceProgress() >= threshold;
  }

  const NodeCounters& counters(NodeId node) const { return counters_[node]; }
  void ClearCounters();

  /// Flits buffered inside each router right now — the per-router occupancy
  /// snapshot attached to watchdog (deadlock) reports.
  std::vector<std::uint32_t> OccupancySnapshot() const;

  std::size_t SourceQueueLength(NodeId node) const {
    return nis_[node].source_queue.size();
  }
  /// Total flits currently queued in every NI source queue.
  std::uint64_t TotalSourceQueueFlits() const;

  /// Sum of all routers' activity counters (energy model input).
  RouterActivity TotalActivity() const;
  void ClearActivity();

  /// A sleeping router is caught up first; the mutable overload also wakes
  /// it, since the caller may hand it work directly.
  Router& router(RouterId id) {
    Wake(id);
    return *routers_[id];
  }
  const Router& router(RouterId id) const {
    CatchUp(id);
    return *routers_[id];
  }
  int NumRouters() const { return static_cast<int>(routers_.size()); }

  /// Checkpoint/restore of all mutable network state: the cycle counter,
  /// every router, every NI (source queues, active transmissions, credits),
  /// the in-flight link events, and the per-node counters. Fault masks and
  /// the telemetry/eject/tracer attachments are reconstructed by the owner,
  /// not serialized. Restoring into a Network built from the same topology
  /// and NetworkParams makes subsequent Step calls bitwise identical to a
  /// network that never stopped; a geometry mismatch throws SimError.
  void SaveState(SnapshotWriter& w) const;
  void LoadState(SnapshotReader& r);

  /// Convenience wrappers writing/reading a standalone checkpoint file with
  /// a single "network" section, fingerprinted by the network's structural
  /// shape (see snapshot/snapshot.hpp for the file format). SimDriver
  /// embeds the same section in its richer checkpoint instead.
  void SaveCheckpoint(const std::string& path) const;
  void RestoreCheckpoint(const std::string& path);

  /// FNV-1a fingerprint of the structural shape (topology, router config,
  /// link delays) used to reject restoring into a mismatched network.
  std::uint64_t StructureFingerprint() const;

 private:
  struct PendingPacket {
    PacketId id;
    NodeId dst;
    int size;
    Cycle created;
    std::uint64_t user_tag;
    int msg_class;
  };

  /// A packet the NI is sending; its fields are in packets_[packet].
  struct ActiveTx {
    PacketSlot packet;
    int sent;          ///< flits sent so far
    PortId route_out;  ///< output port at the attached router (lookahead)
    VcId vc;           ///< injection VC at the router input port
  };

  struct Ni {
    NodeId node;
    RouterId router;
    PortId port;  ///< injection input port == ejection output port index
    std::deque<PendingPacket> source_queue;
    /// Route and first-hop dimension of source_queue.front(), computed
    /// once while it waits for an injection VC (front_routed) and dropped
    /// when it leaves the queue.
    bool front_routed = false;
    PortId front_route = kInvalidPort;
    PortDimension front_dim = PortDimension::kLocal;
    /// source_queue.front() found every injection VC of its class busy.
    /// It waits without retrying until a tail frees one of this NI's VCs:
    /// nothing else frees one, and a failed pick draws no randomness.
    /// Derived state, never serialized.
    bool front_parked = false;
    std::vector<ActiveTx> active;
    std::vector<int> credits;    ///< per injection VC
    /// Injection VCs with no active transmission: the word the VC pick
    /// reads. Stored as its complement, the vc_busy vector.
    BitWords vc_free;
    int rr = 0;                  ///< round-robin pointer over active txs
    /// Packets with a corrupted non-tail flit already ejected here; the
    /// tail flit resolves them into PacketRecord::corrupted. Touched only
    /// when fault injection is active.
    std::vector<PacketId> corrupted_partial;
    /// Injection-VC randomness; drawn from only under
    /// VcAssignPolicy::kRandomFree (per-node stream, like routers').
    Rng vc_rng;
  };

  /// Who feeds input port `in_port` of `router`: either an upstream router
  /// output (router id + out port) or an NI (node id).
  struct Upstream {
    RouterId router = -1;
    PortId out_port = kInvalidPort;
    NodeId node = kInvalidNode;
  };
  Upstream UpstreamOf(RouterId router, PortId in_port) const {
    return upstream_[static_cast<std::size_t>(router) * topology_->Radix() +
                     in_port];
  }

  /// Wheel slot of cycle now_ + delay, for 0 <= delay < wheel size.
  std::size_t SlotAfter(int delay) const {
    std::size_t slot = now_slot_ + static_cast<std::size_t>(delay);
    if (slot >= wheel_.size()) slot -= wheel_.size();
    return slot;
  }
  void DeliverDue();
  /// Tracer and link-corruption hooks over the flits `router` just
  /// appended to `slot`, from header `event_mark` and payload `flit_mark`.
  void OnFlitsSent(const Router& router, LinkSlot& slot,
                   std::size_t event_mark, std::size_t flit_mark);
  /// Link events in the wheel: flits and credits on their links.
  std::uint64_t InFlightEvents() const;
  /// The stored state behind SaveState/LoadState, each field once with its
  /// bound; a load then rebuilds the derived state.
  void Visit(StateArchive& ar);
  /// After a load: the bounds that span objects, which no single Visit can
  /// check. Every buffer and credit count must absorb what the wheel will
  /// deliver to it, and each NI's busy VCs must be exactly those of its
  /// transmissions, one per VC, inside the packet's class.
  void RequireConsistentLinks(const StateArchive& ar) const;
  void StepNi(Ni& ni);
  void HandleEjectedFlit(Ni& ni, const Flit& flit);
  void UpdateFaultMasks();
  /// Replays a sleeping router's skipped cycles up to now_. Logically
  /// const: the router ends exactly as if it had been stepped.
  void CatchUp(RouterId r) const;
  void CatchUpAll() const;
  /// CatchUp, then put the router back in the stepped set.
  void Wake(RouterId r);

  std::shared_ptr<Topology> topology_;
  NetworkParams params_;
  std::unique_ptr<RoutingAlgorithm> owned_routing_;  ///< default "dor" plugin
  const RoutingAlgorithm* routing_;  ///< params.routing or owned_routing_
  std::vector<bool> router_stalled_;  ///< non-empty only with stall faults
  bool corruption_active_ = false;
  std::vector<std::unique_ptr<Router>> routers_;
  /// Routers stepped each cycle (see the file comment). Every router stays
  /// awake when telemetry is attached (it records idle cycles too) or
  /// routers can stall (a stalled cycle is not an idle one).
  bool sleep_enabled_ = false;
  BitWords awake_;                          // routers
  mutable std::vector<Cycle> asleep_since_;  // first cycle not yet replayed
  std::vector<Upstream> upstream_;  // routers * radix
  /// Per router: its flit row (by output port), then its credit row (by
  /// input port); see Router::SetLinkDispatch.
  std::vector<LinkEvent> link_dispatch_;  // routers * 2 * radix
  std::vector<Ni> nis_;
  /// Every packet from the cycle its NI starts it until its tail ejects.
  PacketTable packets_;
  std::vector<NodeCounters> counters_;
  EjectCallback eject_cb_;
  FlitTracer tracer_;

  // Event wheel: slot = cycle % wheel size. NIs, then routers in id
  // order, append to it directly (see Step).
  std::vector<LinkSlot> wheel_;

  Cycle now_ = 0;
  std::size_t now_slot_ = 0;  ///< now_ % wheel size, advanced by compare
  Cycle last_progress_ = 0;
  PacketId next_packet_id_ = 1;
  /// Virtual input of each injection VC at the NI's router.
  VinMasks vin_masks_;
};

}  // namespace vixnoc
