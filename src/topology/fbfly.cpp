// Flattened butterfly (Kim, Balfour & Dally [11]): a cols x rows grid of
// routers where every router links directly to every other router in its
// row and in its column. Port numbering:
//   ports [0, cols-1)                    : X links, one per other column
//   ports [cols-1, cols-1 + rows-1)     : Y links, one per other row
//   ports [cols-1 + rows-1, +conc)      : local ports
// Dimension-order routing over this wiring (at most one X hop, then at
// most one Y hop) lives in routing/dor.cpp.
#include <memory>

#include "common/check.hpp"
#include "topology/topology.hpp"

namespace vixnoc {

namespace {

class FbflyTopology final : public Topology {
 public:
  FbflyTopology(int cols, int rows, int concentration)
      : cols_(cols), rows_(rows), conc_(concentration) {
    VIXNOC_CHECK(cols >= 2 && rows >= 2);
    VIXNOC_CHECK(concentration >= 1);
  }

  TopologyKind Kind() const override { return TopologyKind::kFBfly; }
  int NumRouters() const override { return cols_ * rows_; }
  int NumNodes() const override { return cols_ * rows_ * conc_; }
  int Radix() const override { return (cols_ - 1) + (rows_ - 1) + conc_; }

  int Cols() const override { return cols_; }
  int Rows() const override { return rows_; }

  PortId FirstYPort() const { return cols_ - 1; }
  PortId FirstLocalPort() const { return (cols_ - 1) + (rows_ - 1); }

  int ColOf(RouterId r) const { return r % cols_; }
  int RowOf(RouterId r) const { return r / cols_; }
  RouterId RouterAt(int col, int row) const { return row * cols_ + col; }

  /// X port at a router in column `from` leading to column `to` (`to` !=
  /// `from`): ports are ordered by destination column, skipping self.
  PortId XPortTo(int from, int to) const {
    VIXNOC_DCHECK(to != from);
    return to < from ? to : to - 1;
  }

  PortId YPortTo(int from, int to) const {
    VIXNOC_DCHECK(to != from);
    return FirstYPort() + (to < from ? to : to - 1);
  }

  RouterId RouterOfNode(NodeId node) const override {
    VIXNOC_CHECK(node >= 0 && node < NumNodes());
    return static_cast<RouterId>(node / conc_);
  }
  int LocalIndexOfNode(NodeId node) const { return node % conc_; }
  PortId InjectPortOfNode(NodeId node) const override {
    return FirstLocalPort() + LocalIndexOfNode(node);
  }
  PortId EjectPortOfNode(NodeId node) const override {
    return FirstLocalPort() + LocalIndexOfNode(node);
  }

  std::vector<OutputLinkInfo> LinksFor(RouterId router) const override {
    const int col = ColOf(router);
    const int row = RowOf(router);
    std::vector<OutputLinkInfo> links(Radix());
    for (int c = 0; c < cols_; ++c) {
      if (c == col) continue;
      links[XPortTo(col, c)] = {RouterAt(c, row), XPortTo(c, col),
                                kInvalidNode};
    }
    for (int r = 0; r < rows_; ++r) {
      if (r == row) continue;
      links[YPortTo(row, r)] = {RouterAt(col, r), YPortTo(r, row),
                                kInvalidNode};
    }
    for (int l = 0; l < conc_; ++l) {
      links[FirstLocalPort() + l] = {-1, kInvalidPort,
                                     static_cast<NodeId>(router * conc_ + l)};
    }
    return links;
  }

  int RouterHops(NodeId src, NodeId dst) const override {
    const RouterId a = RouterOfNode(src);
    const RouterId b = RouterOfNode(dst);
    return (ColOf(a) != ColOf(b) ? 1 : 0) + (RowOf(a) != RowOf(b) ? 1 : 0);
  }

 private:
  int cols_, rows_, conc_;
};

}  // namespace

std::unique_ptr<Topology> MakeFlattenedButterfly(int cols, int rows,
                                                 int concentration) {
  return std::make_unique<FbflyTopology>(cols, rows, concentration);
}

std::unique_ptr<Topology> MakeTopology64(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::kMesh:
      return MakeMesh(8, 8, 1);  // radix 5
    case TopologyKind::kCMesh:
      return MakeMesh(4, 4, 4);  // radix 8
    case TopologyKind::kFBfly:
      return MakeFlattenedButterfly(4, 4, 4);  // radix 10
    case TopologyKind::kTorus:
      return MakeTorus(8, 8, 1);  // radix 5, dateline VCs
  }
  VIXNOC_CHECK(false);
  return nullptr;
}

}  // namespace vixnoc
