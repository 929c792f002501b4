// Cycle-accurate virtual-channel wormhole router with the paper's optimized
// 3-stage pipeline (Fig 6b): lookahead routing + VA/SA in one stage, switch
// traversal, link traversal. Credit-based VC flow control; non-atomic VC
// buffers (multiple packets may queue back-to-back in one VC FIFO).
//
// The router is topology-agnostic: a per-output-port link table names the
// downstream router (or the network interface for ejection ports), and a
// RoutingAlgorithm supplies lookahead route computation.
//
// Data layout: per-VC state lives in parallel arrays indexed by
// idx = in_port * num_vcs + vc (structure-of-arrays), with flit buffers in
// one contiguous ring-buffer pool. Two bit masks — VA candidates (head flit
// waiting, no output VC yet) and SA candidates (output VC held, buffer
// non-empty) — are maintained incrementally at every state transition, so
// the per-cycle VA/SA scans visit only live VCs via ctz instead of walking
// all radix * num_vcs slots. Both scans visit candidates in exactly the
// order the straightforward full scans would, keeping behaviour bitwise
// identical.
//
// Step writes each departing flit and each freed credit straight into the
// owner's event-wheel slots (LinkSlot), with headers read from per-port
// dispatch rows the owner installs once (SetLinkDispatch).
//
// A cycle costs only its live work. A head flit's route at this hop is
// computed once and cached until the packet's tail leaves; a head that
// finds no free output VC parks until a VC on its port frees; an active VC
// whose output VC has no credit is left out of SA until a credit returns;
// and a router with no candidates at all is Idle(): its cycle only
// advances rotating pointers, which SkipIdleCycles replays in O(1) for any
// number of cycles.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "alloc/request_matrix.hpp"
#include "alloc/switch_allocator.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "router/flit.hpp"
#include "routing/routing_algorithm.hpp"
#include "router/vc_assign.hpp"

namespace vixnoc {

class RouterTelemetry;
class TelemetryCollector;

/// How the VA stage resolves competition for output VCs.
enum class VaOrganization {
  /// Candidates served sequentially (rotating start); a blocked preference
  /// immediately falls back to the next free VC — an idealized allocator.
  kGreedyRotating,
  /// Every candidate states one preference against cycle-start state; one
  /// winner per output VC, losers retry next cycle — a real separable VC
  /// allocator's behaviour.
  kSeparableArbitrated,
};

/// Static configuration for one router (all routers in a network share it).
struct RouterConfig {
  int radix = 5;          ///< physical input = output ports
  int num_vcs = 6;        ///< virtual channels per input port
  int buffer_depth = 5;   ///< flit-buffers per VC
  AllocScheme scheme = AllocScheme::kInputFirst;
  ArbiterKind arbiter_kind = ArbiterKind::kRoundRobin;
  VcAssignPolicy vc_policy = VcAssignPolicy::kMaxCredits;
  /// For kVix only: overrides the number of virtual inputs per port
  /// (0 = the scheme default of 2). Must divide num_vcs. Lets ablations
  /// sweep 1:3, 1:6, ... crossbars.
  int vix_virtual_inputs = 0;
  /// VC -> virtual-input wiring: false = contiguous blocks (the paper's
  /// Fig 2), true = interleaved (vc % k), which keeps every virtual input
  /// reachable inside any message-class or dateline VC subset.
  bool interleaved_vins = false;
  /// Ablation knob for the AP allocator: false makes its VC selection fully
  /// combinational-deterministic (no round-robin), the paper's stateless
  /// maximum-matching circuit.
  bool ap_rotate_vcs = true;
  /// Speculative switch allocation (Peh & Dally [19], Fig 6b): a head flit
  /// may win VA and SA in the same cycle. When false, a packet that wins
  /// VA first competes in SA the following cycle — the conservative 5-stage
  /// pipeline of Fig 6a.
  bool speculative_sa = true;
  /// VA stage organization (see VaOrganization).
  VaOrganization va_organization = VaOrganization::kGreedyRotating;
  /// Becker & Dally's priority rule (paper §5): when true, speculative
  /// requests (head flits that won VA this very cycle) are masked out of
  /// switch allocation whenever any non-speculative request targets the
  /// same output port, so established packets never lose bandwidth to
  /// speculation. Only meaningful with speculative_sa.
  bool prioritize_nonspeculative = false;
  /// Atomic VC reallocation (BookSim-style): an output VC is assignable
  /// only when the downstream buffer is completely empty (all credits
  /// present), so packets never queue back-to-back in one VC. Default is
  /// the non-atomic (Garnet-style) policy the evaluation uses.
  bool atomic_vc_alloc = false;
  /// Virtual networks: VCs are partitioned into this many equal message
  /// classes and packets only use VCs of their own class. Must divide
  /// num_vcs. With VIX, each class's VCs are further split across virtual
  /// inputs, so num_vcs must also be divisible by classes * virtual inputs
  /// for an even mapping (checked at construction).
  int num_message_classes = 1;
  /// Base seed for the VA-stage RNG (each router derives a per-id stream
  /// from it). Drawn from only under VcAssignPolicy::kRandomFree, so every
  /// deterministic policy is bitwise independent of this value.
  std::uint64_t vc_rng_seed = 0;

  int VcsPerClass() const { return num_vcs / num_message_classes; }

  int NumVins() const {
    if (scheme == AllocScheme::kVix && vix_virtual_inputs > 0) {
      return vix_virtual_inputs;
    }
    return VirtualInputsForScheme(scheme, num_vcs);
  }

  /// Default VC policy for a scheme: VIX schemes use dimension steering.
  static VcAssignPolicy DefaultPolicyFor(AllocScheme scheme) {
    return (scheme == AllocScheme::kVix || scheme == AllocScheme::kVixIdeal)
               ? VcAssignPolicy::kVixDimension
               : VcAssignPolicy::kMaxCredits;
  }
};

/// What an output port connects to. Mesh-edge ports may be unconnected
/// (present for a uniform radix, but never routed to).
struct OutputLinkInfo {
  RouterId neighbor = -1;                 ///< downstream router; -1 = none
  PortId neighbor_in_port = kInvalidPort; ///< input port at the neighbor
  NodeId eject_node = kInvalidNode;       ///< NI node for ejection ports

  bool IsEjection() const { return neighbor < 0 && eject_node >= 0; }
  bool IsConnected() const { return neighbor >= 0 || eject_node >= 0; }
};

/// Activity counters consumed by the statistics and energy models.
struct RouterActivity {
  std::uint64_t buffer_writes = 0;     ///< flits written into input buffers
  std::uint64_t buffer_reads = 0;      ///< flits read out (switch traversal)
  std::uint64_t xbar_traversals = 0;   ///< flits through the crossbar
  std::uint64_t link_flits = 0;        ///< flits sent on inter-router links
  std::uint64_t sa_requests = 0;       ///< switch-allocation requests seen
  std::uint64_t sa_grants = 0;         ///< switch-allocation grants made
  std::uint64_t va_requests = 0;
  std::uint64_t va_grants = 0;
  std::uint64_t cycles = 0;
  std::uint64_t cycles_with_requests = 0;

  void Clear() { *this = RouterActivity{}; }
};

/// One link event in flight: a flit or a credit due at a router or an NI.
/// A flit event's payload is not in the header: it sits in its slot's
/// `flits`, in header order (see LinkSlot), so a credit costs 16 bytes.
struct LinkEvent {
  enum class Kind : std::uint8_t {
    kFlitToRouter,
    kCreditToRouter,
    kFlitToNi,
    kCreditToNi,
  };
  // Every field is initialized: checkpoints serialize all of them, so an
  // unset one would make checkpoint bytes differ between builds.
  Kind kind = Kind::kFlitToRouter;
  std::int32_t target = -1;    ///< router id or node id
  PortId port = kInvalidPort;  ///< input port (flit) or output port (credit)
  VcId vc = kInvalidVc;        ///< credit VC

  bool IsFlit() const {
    return kind == Kind::kFlitToRouter || kind == Kind::kFlitToNi;
  }
};
static_assert(sizeof(LinkEvent) == 16);

/// The events due in one cycle: headers in push order, and one payload
/// per flit event, in the order of those headers.
struct LinkSlot {
  std::vector<LinkEvent> events;
  std::vector<Flit> flits;

  void Clear() {
    events.clear();
    flits.clear();
  }
};

/// Checkpoint encoding of an activity block (implemented in router.cpp).
void SaveRouterActivity(SnapshotWriter& w, const RouterActivity& a);
RouterActivity LoadRouterActivity(SnapshotReader& r);

class Router {
 public:
  /// `links[o]` describes output port o. `routing` may be shared across all
  /// routers; it must outlive the router.
  Router(RouterId id, const RouterConfig& config,
         std::vector<OutputLinkInfo> links, const RoutingAlgorithm* routing);

  RouterId id() const { return id_; }
  const RouterConfig& config() const { return config_; }
  const SwitchGeometry& geometry() const { return allocator_->geometry(); }
  const OutputLinkInfo& link(PortId out) const { return links_[out]; }

  /// Deliver a flit into input buffer (in_port, flit.vc). The caller (the
  /// network's link model or an NI) must have held a credit; overflowing a
  /// buffer is a checked invariant violation.
  void AcceptFlit(PortId in_port, const Flit& flit);

  /// Return a credit for (out_port, out_vc) from the downstream router.
  void AcceptCredit(PortId out_port, VcId out_vc);

  /// Where this router's links lead, set once by its owner before the
  /// first Step: `flit_row[o]` is the header of a flit sent on output port
  /// o, `credit_row[p]` that of a credit freed on input port p (Step fills
  /// in the credit's VC). Each row holds radix headers; the owner keeps
  /// them alive while it steps the router. Unconnected ports hold the
  /// default header and are never sent on.
  void SetLinkDispatch(const LinkEvent* flit_row, const LinkEvent* credit_row);

  /// Advance one cycle: VA, then (speculative, same-cycle) SA, then switch
  /// traversal. Each flit leaving the router appends its header and
  /// payload to *flit_slot; after them, each freed buffer slot appends a
  /// credit header to *credit_slot. Both follow grant order, and the two
  /// slots may be one.
  void Step(Cycle now, LinkSlot* flit_slot, LinkSlot* credit_slot);

  /// The grants of the last Step that ran allocation, in the order their
  /// flits were appended: the output port of each flit a Step just sent.
  const std::vector<SaGrant>& LastGrants() const { return sa_grants_; }

  /// True when every buffer is empty and no packet holds VC state — used by
  /// drain phases and the no-flit-loss property tests.
  bool Quiescent() const;

  /// True when no input VC is a VA or SA candidate: a Step would only
  /// advance the cycle counter, the VA pointer and the allocator's idle
  /// rotation. Only AcceptFlit (or LoadState) can end it.
  bool Idle() const { return !va_cand_.Any() && !sa_cand_.Any(); }

  /// Replays the state change of `n` consecutive Steps of an Idle() router
  /// in O(1), leaving it bitwise identical to one stepped n times. A
  /// network uses it to skip sleeping routers and catch them up on wake-up.
  void SkipIdleCycles(std::uint64_t n);

  /// Occupancy of input VC buffer (in_port, vc), in flits.
  int BufferOccupancy(PortId in_port, VcId vc) const;
  /// Total flits buffered across every input VC — the per-router occupancy
  /// snapshot reported by the forward-progress watchdog.
  int TotalBufferedFlits() const;
  /// Free credits the router believes exist for (out_port, out_vc).
  int CreditsFor(PortId out_port, VcId out_vc) const;
  /// Input VCs holding a flit that cannot request the switch because
  /// their downstream output VC has no credit (diagnostics and tests;
  /// recomputed from the VC state, O(radix * num_vcs)).
  int CreditStalledVcs() const;

  /// Fault hook: while an output port is blocked (its link is down), no VA
  /// grant targets it and no SA request leaves through it. Flits wait in
  /// their buffers and credits are untouched, so a later unblock resumes
  /// cleanly. Zero cost while nothing is blocked.
  void SetOutputBlocked(PortId out_port, bool blocked);
  bool OutputBlocked(PortId out_port) const {
    return output_blocked_.Test(out_port);
  }

  /// Attach this router to a telemetry collector (nullptr detaches). The
  /// router records into collector->router(id()); with no collector the
  /// per-cycle cost is one pointer test and simulation results are bitwise
  /// identical (telemetry never mutates router state or draws randomness).
  void SetTelemetry(TelemetryCollector* collector);

  const RouterActivity& activity() const { return activity_; }
  void ClearActivity();

  /// Checkpoint/restore of all mutable state: input VC buffers and packet
  /// state, output VC credits/allocation, allocator and VA priorities,
  /// activity counters, the VA RNG stream. Fault masks (SetOutputBlocked)
  /// and the telemetry attachment are owner-managed and excluded — the
  /// network re-derives them after restore. Restoring into a router built
  /// with the same RouterConfig and links makes subsequent Step calls
  /// bitwise identical to a router that never stopped.
  void SaveState(SnapshotWriter& w) const;
  void LoadState(SnapshotReader& r);

  /// Flits sent on output port `out` since the last ClearActivity() —
  /// per-link utilization for hotspot analysis.
  std::uint64_t FlitsSentOn(PortId out) const { return flits_per_out_[out]; }

 private:
  /// A VA candidate's stated preference under kSeparableArbitrated.
  struct VaPreference {
    int idx;  // input VC index p * num_vcs + c
    PortId out_port;
    VcId out_vc;
    PortId lookahead;
    std::uint8_t next_dateline;
  };

  /// A waiting head flit's route at this hop, cached per input VC: computed
  /// on its first VA attempt, reused by every retry, dropped when the
  /// packet's tail leaves the VC. Derived state (never serialized), packed
  /// to 8 bytes since every input VC of every router carries one.
  struct HeadRoute {
    std::int16_t lookahead = kInvalidPort;  ///< route at the downstream router
    std::int16_t range_lo = 0;  ///< usable VCs [lo, hi) within the class;
    std::int16_t range_hi = 0;  ///< hi == 0 until computed (ranges are non-empty)
    std::uint8_t downstream_dim = 0;  ///< a PortDimension
    std::uint8_t next_dateline = 0;   ///< dateline state after this hop
  };
  static_assert(sizeof(HeadRoute) == 8);

  int IvcIndex(PortId p, VcId c) const { return p * config_.num_vcs + c; }
  int OvcIndex(PortId o, VcId c) const { return o * config_.num_vcs + c; }
  /// The credit_stalled_ rule: input VC `idx` is active and its
  /// non-ejection output VC has no credit.
  bool OutOfCredits(int idx) const {
    if (!in_active_[idx]) return false;
    const PortId out = in_out_port_[idx];
    return !links_[out].IsEjection() &&
           credits_[OvcIndex(out, in_out_vc_[idx])] == 0;
  }

  /// Ring-buffer slot of flit number `i` (0 = head) in input VC `idx`.
  const Flit& BufferedFlit(int idx, int i) const {
    int pos = buf_head_[idx] + i;
    if (pos >= config_.buffer_depth) pos -= config_.buffer_depth;
    return flit_store_[static_cast<std::size_t>(idx) * config_.buffer_depth +
                       pos];
  }
  const Flit& HeadFlit(int idx) const {
    return flit_store_[static_cast<std::size_t>(idx) * config_.buffer_depth +
                       buf_head_[idx]];
  }
  void PushFlit(int idx, const Flit& flit) {
    int pos = buf_head_[idx] + buf_count_[idx];
    if (pos >= config_.buffer_depth) pos -= config_.buffer_depth;
    flit_store_[static_cast<std::size_t>(idx) * config_.buffer_depth + pos] =
        flit;
    ++buf_count_[idx];
  }
  /// Drops the head flit (callers copy it out first).
  void PopFlit(int idx) {
    int head = buf_head_[idx] + 1;
    if (head >= config_.buffer_depth) head = 0;
    buf_head_[idx] = head;
    --buf_count_[idx];
  }

  void RunVcAllocation();
  /// One VA candidate (see RunVcAllocation); returns via the same logic a
  /// full scan would. A head with no free VC in its range parks.
  void ConsiderVaCandidate(int idx, bool separable);
  /// Grants input VC `idx` its output (VC ownership is the caller's).
  void ActivateVc(int idx, PortId out_port, VcId out_vc, PortId lookahead,
                  std::uint8_t next_dateline);
  /// Output VC `ovc` of `out_port` may have become assignable: if so,
  /// unpark every head waiting on that port so it retries next VA.
  void OnOutputVcFreed(PortId out_port, int ovc);
  /// VA candidate under an adaptive routing algorithm: enumerates the
  /// candidate set at THIS router (the lookahead stamp is advisory) and
  /// selects an output by local credit/occupancy state, falling back to
  /// the escape candidate so deadlock freedom is preserved.
  void ConsiderVaCandidateAdaptive(int idx, bool separable);
  void BuildSaRequests();
  void CommitGrants(LinkSlot* flit_slot, LinkSlot* credit_slot);
  /// Records this cycle's counters and trace events into rt_/tcol_. Runs
  /// between Allocate and CommitGrants, while requests, grants and buffer
  /// heads are all still observable.
  void CollectCycleTelemetry(Cycle now);

  RouterId id_;
  RouterConfig config_;
  const RoutingAlgorithm* routing_;

  // Input-VC state (SoA), indexed idx = in_port * num_vcs + vc. Flit
  // buffers are fixed-capacity rings of buffer_depth slots carved out of
  // one contiguous pool.
  std::vector<Flit> flit_store_;            // (radix * num_vcs) * depth
  std::vector<std::int32_t> buf_head_;      // ring read position
  std::vector<std::int32_t> buf_count_;     // flits buffered
  std::vector<std::uint8_t> in_active_;     // current packet holds a VC
  std::vector<PortId> in_out_port_;
  std::vector<VcId> in_out_vc_;
  std::vector<PortId> in_lookahead_;        // route at the downstream router
  std::vector<std::uint8_t> in_next_dateline_;  // packet state after this hop

  // Output-VC state (SoA), indexed o * num_vcs + vc.
  std::vector<std::int32_t> credits_;
  /// Input VC (index) holding this output VC, -1 while unallocated.
  /// Ejection outputs are never allocated.
  std::vector<std::int32_t> ovc_owner_;

  std::vector<HeadRoute> head_route_;       // see HeadRoute

  // Every per-router bit set below is a view into this one word block.
  std::vector<std::uint64_t> flag_words_;

  // Incremental candidate masks over input-VC indices:
  //  va_cand_: !active && buffer non-empty (head flit awaits VC allocation)
  //  sa_cand_:  active && buffer non-empty (may request switch traversal)
  //  parked_:  the va_cand_ heads whose last VA attempt found every VC in
  //            their range busy. VA skips them (counting their requests)
  //            until a VC on their output port frees; no VC can free
  //            otherwise, so the skipped attempts would have failed too.
  //  credit_stalled_: active VCs whose (non-ejection) output VC has 0
  //            credits. SA skips them: exactly the VCs its credit check
  //            would reject. Set when a commit takes the last credit or VA
  //            activates onto a creditless VC; cleared when a credit
  //            returns (via ovc_owner_) and at the tail.
  BitView va_cand_;
  BitView sa_cand_;
  BitView parked_;
  BitView credit_stalled_;
  /// Input VCs granted VA this cycle; excluded from SA when the router is
  /// configured non-speculative.
  BitView just_activated_;
  /// Fault masks (see SetOutputBlocked). num_blocked_ keeps the hot path
  /// free of per-candidate checks while no fault is active.
  BitView output_blocked_;  // radix
  int num_blocked_ = 0;

  std::vector<OutputLinkInfo> links_;
  const LinkEvent* flit_dispatch_ = nullptr;    // radix, by output port
  const LinkEvent* credit_dispatch_ = nullptr;  // radix, by input port
  std::unique_ptr<SwitchAllocator> allocator_;
  int num_vins_ = 1;   ///< config_.NumVins(), cached for the hot path
  int va_rr_ptr_ = 0;  ///< rotating start for VA fairness

  // Per-cycle scratch, sized once at construction so the hot loop never
  // touches the allocator.
  std::vector<SaRequest> sa_requests_;
  std::vector<SaGrant> sa_grants_;
  std::vector<OutputVcView> vc_view_scratch_;
  std::vector<VaPreference> va_prefs_;
  BitView nonspec_wants_;  // radix
  // Always-on cheap structural checks on grants (the full GrantsAreLegal
  // validation only runs in debug builds).
  BitView out_used_scratch_;  // radix
  BitView xin_used_scratch_;  // radix * num_vins

  RouterActivity activity_;
  std::vector<std::uint64_t> flits_per_out_;  // radix

  /// VA-stage randomness (kRandomFree only); per-router stream derived from
  /// config_.vc_rng_seed and id_ so results are thread-count independent.
  Rng vc_rng_;
  TelemetryCollector* tcol_ = nullptr;
  RouterTelemetry* rt_ = nullptr;  ///< == &tcol_->router(id_)
};

}  // namespace vixnoc
