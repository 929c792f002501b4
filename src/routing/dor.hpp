// Dimension-order routing (DOR), table-driven: the deterministic baseline
// for every supported topology, bitwise-identical to the geometry-inline
// routing the topologies used to carry themselves.
//
//  * mesh / cmesh: XY (or YX) order; port 0=East, 1=West, 2=North, 3=South.
//  * torus: minimal ring in each dimension; exactly-half-way ties split by
//    destination-node parity; dateline VC classes (pre-/post-crossing
//    halves of each message class's partition) break ring deadlock.
//  * flattened butterfly: at most one X hop, then at most one Y hop.
#pragma once

#include <cstdint>
#include <vector>

#include "routing/route_table.hpp"
#include "routing/routing_algorithm.hpp"
#include "topology/topology.hpp"

namespace vixnoc {

/// Dateline state bits, one per dimension (torus only): routing is
/// dimension-ordered so the bits never interact, but keeping them separate
/// means an X crossing cannot leak into the Y ring's class selection.
inline constexpr std::uint8_t kDatelineXCrossed = 1;
inline constexpr std::uint8_t kDatelineYCrossed = 2;
static_assert((kDatelineXCrossed | kDatelineYCrossed) <= kMaxDatelineState);

/// The dimension-order port at `router` toward node `dst`, with the
/// dimension priority chosen by `y_first`. This is the pure geometry rule
/// the DOR table is built from; adaptive_min reuses it with the priority
/// flipped to enumerate the other minimal output.
PortId DorPortFor(const Topology& topo, RouterId router, NodeId dst,
                  bool y_first);

class DorRouting : public RoutingAlgorithm {
 public:
  explicit DorRouting(const Topology& topo);

  const char* Name() const override { return "dor"; }
  PortId Route(RouterId router, NodeId dst) const override {
    return table_.At(router, dst);
  }
  PortDimension DimensionOf(PortId port) const override {
    return dims_[port];
  }
  std::uint8_t NextDatelineState(RouterId router, PortId out_port,
                                 std::uint8_t state) const override {
    if (!torus_split_) return state;
    return static_cast<std::uint8_t>(
        state | dateline_bit_[static_cast<std::size_t>(router) * radix_ +
                              out_port]);
  }
  VcRange AllowedVcRange(PortId out_port, std::uint8_t state,
                         int vcs_per_class) const override;
  std::uint64_t Fingerprint() const override;

  const RouteTable& table() const { return table_; }
  /// True when this instance applies torus dateline VC splitting.
  bool torus_datelines() const { return torus_split_; }

 private:
  int radix_ = 0;
  bool torus_split_ = false;
  RouteTable table_;
  std::vector<PortDimension> dims_;
  /// Per (router, out_port): dateline bit OR-ed into the packet state when
  /// the hop crosses that dimension's wrap link (torus only; else empty).
  std::vector<std::uint8_t> dateline_bit_;
};

}  // namespace vixnoc
