// Routing-algorithm interface: the policy layer between topology (wiring)
// and router (mechanism).
//
// Routers use it for lookahead route computation (determining the output
// port a packet will take at the *next* router, needed both to stamp flits
// and to drive VIX's dimension-aware VC assignment, paper §2.3), and — for
// adaptive algorithms — to enumerate the full *candidate set* of admissible
// outputs at the current router so the VA stage can pick by local credit
// state.
//
// Implementations live in src/routing/ behind the string-keyed factory in
// routing/registry.hpp (`routing=dor|adaptive_min|fault_aware`); they build
// explicit per-node route tables at construction instead of computing
// geometry inline, and expose a Fingerprint() that is mixed into checkpoint
// structure fingerprints so a restore with different routing is rejected.
#pragma once

#include <cstdint>
#include <cstring>

#include "common/types.hpp"
#include "snapshot/snapshot.hpp"

namespace vixnoc {

/// Dimension class of an output port, used by the VIX VC-assignment policy
/// to spread requests across virtual-input sub-groups.
enum class PortDimension {
  kX,     ///< port moves packets along the X dimension
  kY,     ///< port moves packets along the Y dimension
  kLocal, ///< ejection port towards a network interface
};

/// A sub-range [lo, hi) of the per-message-class VC partition that a packet
/// is allowed to occupy at its next hop.
struct VcRange {
  int lo = 0;
  int hi = 0;
};

/// One admissible output for a packet at a router: the port, the VC
/// sub-range (within one message class's partition) it may claim on that
/// output's channel, the dateline state it would carry after the hop, and
/// whether this is the escape candidate — the one whose restricted VC
/// range forms the acyclic (deadlock-freedom-preserving) sub-network.
struct RouteCandidate {
  PortId out_port = kInvalidPort;
  VcRange vc_range;
  std::uint8_t next_dateline = 0;
  bool escape = true;
};

/// Dateline states are per-dimension "crossed" bits of at most two wrapped
/// dimensions, so no state exceeds this (checked when state is restored).
inline constexpr std::uint8_t kMaxDatelineState = 3;

/// Upper bound on Candidates() output; callers size stack arrays with it.
inline constexpr int kMaxRouteCandidates = 4;

class RoutingAlgorithm {
 public:
  virtual ~RoutingAlgorithm() = default;

  /// Registry key for plugins; "custom" for ad-hoc (test) algorithms.
  virtual const char* Name() const { return "custom"; }

  /// Primary deterministic route: the output port at `router` for a packet
  /// headed to node `dst`. Must be a local ejection port when `dst` is
  /// attached to `router`. For adaptive algorithms this is the escape
  /// route, used for advisory lookahead stamping and NI injection.
  virtual PortId Route(RouterId router, NodeId dst) const = 0;

  /// Dimension classification of `port` (ports have uniform meaning across
  /// routers in all supported topologies).
  virtual PortDimension DimensionOf(PortId port) const = 0;

  /// Dateline state the packet carries after leaving `router` through
  /// `out_port` with current state `state`. Acyclic topologies keep it 0;
  /// torus routing flips a per-dimension bit at the wrap links.
  virtual std::uint8_t NextDatelineState(RouterId router, PortId out_port,
                                         std::uint8_t state) const {
    (void)router;
    (void)out_port;
    return state;
  }

  /// VCs (as indices within one message class's partition of
  /// `vcs_per_class` VCs) a packet with dateline state `state` may use on
  /// the channel leaving through `out_port`. The default is unrestricted;
  /// torus routing confines pre-/post-dateline packets to disjoint halves
  /// so the ring's channel-dependency cycle is broken.
  virtual VcRange AllowedVcRange(PortId out_port, std::uint8_t state,
                                 int vcs_per_class) const {
    (void)out_port;
    (void)state;
    return VcRange{0, vcs_per_class};
  }

  /// True when the router's VA stage should enumerate Candidates() and
  /// select by local credit/occupancy state instead of honoring the
  /// lookahead-stamped single route.
  virtual bool IsAdaptive() const { return false; }

  /// Admissible outputs at `router` for a packet to `dst` carrying dateline
  /// state `state`, written to `out` (capacity >= kMaxRouteCandidates).
  /// Returns the candidate count (>= 1). The set MUST contain at least one
  /// escape candidate whose (port, vc_range) choice keeps the escape
  /// sub-network's channel-dependency graph acyclic (Duato's criterion);
  /// the escape candidate is listed last so credit-based selection prefers
  /// adaptive candidates. The default is the one-candidate case derived
  /// from the single-route API.
  virtual int Candidates(RouterId router, NodeId dst, std::uint8_t state,
                         int vcs_per_class, RouteCandidate* out) const {
    RouteCandidate& c = out[0];
    c.out_port = Route(router, dst);
    c.next_dateline = NextDatelineState(router, c.out_port, state);
    c.vc_range = AllowedVcRange(c.out_port, c.next_dateline, vcs_per_class);
    c.escape = true;
    return 1;
  }

  /// True when some (source, destination) pairs may have no route at all
  /// (fault-degraded networks); drivers then gate injection on Reachable().
  virtual bool MayBeUnreachable() const { return false; }

  /// True when a packet sourced at a node of `from` can reach `dst`.
  virtual bool Reachable(RouterId from, NodeId dst) const {
    (void)from;
    (void)dst;
    return true;
  }

  /// Stable digest of the algorithm's identity AND its routing decisions
  /// (plugins mix their route tables in); part of the network structure
  /// fingerprint guarding checkpoint restores.
  virtual std::uint64_t Fingerprint() const {
    const char* name = Name();
    return Fnv1a64(name, std::strlen(name));
  }
};

}  // namespace vixnoc
