// Core scalar types and small helpers shared by every vixnoc module.
#pragma once

#include <cstdint>
#include <limits>
#include <string>

namespace vixnoc {

/// Simulation time, in router clock cycles.
using Cycle = std::uint64_t;

/// Index of a network endpoint (core / NI). 64-node networks use [0, 64).
using NodeId = std::int32_t;

/// Index of a router within a topology.
using RouterId = std::int32_t;

/// Physical port index within a router (input or output side).
using PortId = std::int32_t;

/// Virtual-channel index within a port.
using VcId = std::int32_t;

/// Virtual-input index within a port (VIX sub-group). Baseline routers have
/// exactly one virtual input per port; 1:2 VIX has two; "ideal VIX" has one
/// per VC.
using VinId = std::int32_t;

/// Unique, monotonically increasing packet identifier.
using PacketId = std::uint64_t;

inline constexpr PortId kInvalidPort = -1;
inline constexpr VcId kInvalidVc = -1;
inline constexpr NodeId kInvalidNode = -1;
inline constexpr Cycle kNeverCycle = std::numeric_limits<Cycle>::max();

/// Switch-allocation schemes evaluated in the paper (Section 4.1).
enum class AllocScheme {
  kInputFirst,      ///< Separable input-first (IF) — the baseline.
  kWavefront,       ///< Wavefront (WF), Tamir & Chi.
  kAugmentingPath,  ///< Maximum matching via augmenting paths (AP).
  kVix,             ///< Separable input-first over a 1:2 virtual input crossbar.
  kVixIdeal,        ///< v virtual inputs per port (one per VC): ideal allocation.
  kPacketChaining,  ///< Packet Chaining, SameInput/anyVC scheme.
  kIslip,           ///< Iterative SLIP (extension; not in the paper's main plots).
  kSparoflo,        ///< SPAROFLO-style exposure without virtual inputs (§5).
  kSerenade,        ///< SERENADE randomized knot-decomposition matching (extension).
};

/// Human-readable name used by benches and logs.
std::string ToString(AllocScheme scheme);

/// Topologies studied in the paper, plus the torus extension.
enum class TopologyKind {
  kMesh,   ///< 8x8 mesh, radix-5 routers.
  kCMesh,  ///< 4x4 concentrated mesh, 4 nodes/router, radix-8 routers.
  kFBfly,  ///< 4x4 flattened butterfly, 4 nodes/router, radix-10 routers.
  kTorus,  ///< 8x8 torus, radix-5 routers, dateline VC deadlock avoidance.
};

std::string ToString(TopologyKind kind);

/// Case-insensitive parse of a scheme name ("if", "vix", "wavefront", "wf",
/// "ap", "pc", "islip", "sparoflo", "serenade", "vix-ideal", "ideal").
/// Returns false on unknown input.
bool ParseAllocScheme(const std::string& text, AllocScheme* out);

/// Case-insensitive parse of "mesh" / "cmesh" / "fbfly" / "torus".
bool ParseTopologyKind(const std::string& text, TopologyKind* out);

}  // namespace vixnoc
