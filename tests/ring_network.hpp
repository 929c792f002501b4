// A hand-built deadlock for watchdog tests. All inter-router traffic is
// routed around the fixed cycle r0 -> r1 -> r3 -> r2 -> r0 of a 2x2 mesh,
// so with a single VC, wormhole packets close a channel-dependency cycle
// and the network wedges almost immediately under load. Install both
// classes through NetworkSimConfig's topology_factory and routing_factory.
#pragma once

#include <memory>
#include <vector>

#include "routing/routing_algorithm.hpp"
#include "topology/topology.hpp"

namespace vixnoc {

class RingRouting final : public RoutingAlgorithm {
 public:
  explicit RingRouting(const Topology& mesh) : mesh_(&mesh) {
    static const RouterId kNext[4] = {1, 3, 0, 2};
    next_port_.assign(4, kInvalidPort);
    for (RouterId r = 0; r < 4; ++r) {
      for (PortId p = 0; p < mesh.Radix(); ++p) {
        if (mesh.LinksFor(r)[p].neighbor == kNext[r]) next_port_[r] = p;
      }
    }
  }
  PortId Route(RouterId router, NodeId dst) const override {
    if (mesh_->RouterOfNode(dst) == router) {
      return mesh_->EjectPortOfNode(dst);
    }
    return next_port_[router];
  }
  PortDimension DimensionOf(PortId port) const override {
    // Mesh port convention: E/W then N/S then locals.
    if (port <= 1) return PortDimension::kX;
    if (port <= 3) return PortDimension::kY;
    return PortDimension::kLocal;
  }

 private:
  const Topology* mesh_;
  std::vector<PortId> next_port_;
};

class RingTopology final : public Topology {
 public:
  RingTopology() : mesh_(MakeMesh(2, 2)) {}
  TopologyKind Kind() const override { return mesh_->Kind(); }
  int NumRouters() const override { return mesh_->NumRouters(); }
  int NumNodes() const override { return mesh_->NumNodes(); }
  int Radix() const override { return mesh_->Radix(); }
  RouterId RouterOfNode(NodeId node) const override {
    return mesh_->RouterOfNode(node);
  }
  PortId InjectPortOfNode(NodeId node) const override {
    return mesh_->InjectPortOfNode(node);
  }
  PortId EjectPortOfNode(NodeId node) const override {
    return mesh_->EjectPortOfNode(node);
  }
  std::vector<OutputLinkInfo> LinksFor(RouterId router) const override {
    return mesh_->LinksFor(router);
  }
  int Cols() const override { return mesh_->Cols(); }
  int Rows() const override { return mesh_->Rows(); }
  int RouterHops(NodeId src, NodeId dst) const override {
    return mesh_->RouterHops(src, dst);
  }

 private:
  std::unique_ptr<Topology> mesh_;
};

}  // namespace vixnoc
