// Failure-injection tests for API misuse. Two regimes, by design:
//  * recoverable setup/configuration errors throw vixnoc::SimError
//    (VIXNOC_REQUIRE) so a sweep can mark the point failed and move on;
//  * hot-path invariant violations still abort via VIXNOC_CHECK — once a
//    buffer or credit count is corrupt the model's numbers are worthless,
//    and unwinding through a half-stepped router would only hide that.
#include <gtest/gtest.h>

#include <memory>

#include "alloc/switch_allocator.hpp"
#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/table.hpp"
#include "network/network.hpp"
#include "sim/network_sim.hpp"
#include "topology/topology.hpp"
#include "traffic/trace.hpp"

namespace vixnoc {
namespace {

std::unique_ptr<Network> SmallNet() {
  std::shared_ptr<Topology> topo = MakeMesh(4, 4);
  NetworkParams p;
  p.router.radix = 5;
  p.router.num_vcs = 2;
  p.router.buffer_depth = 2;
  return std::make_unique<Network>(topo, p);
}

TEST(Robustness, EnqueueRejectsBadSource) {
  auto net = SmallNet();
  EXPECT_THROW(net->EnqueuePacket(-1, 0, 1), SimError);
  EXPECT_THROW(net->EnqueuePacket(16, 0, 1), SimError);
}

TEST(Robustness, EnqueueRejectsBadDestination) {
  auto net = SmallNet();
  EXPECT_THROW(net->EnqueuePacket(0, 99, 1), SimError);
}

TEST(Robustness, EnqueueRejectsEmptyPacket) {
  auto net = SmallNet();
  EXPECT_THROW(net->EnqueuePacket(0, 1, 0), SimError);
}

TEST(Robustness, EnqueueRejectsPacketsBeyondSixteenBitSizes) {
  auto net = SmallNet();
  EXPECT_THROW(net->EnqueuePacket(0, 1, 65'536), SimError);
}

TEST(Robustness, EnqueueRejectsUnknownMessageClass) {
  auto net = SmallNet();  // 1 message class
  EXPECT_THROW(net->EnqueuePacket(0, 1, 1, 0, /*msg_class=*/1), SimError);
}

TEST(Robustness, CreditOverflowDies) {
  auto net = SmallNet();
  // Returning a credit that was never consumed overflows depth 2.
  EXPECT_DEATH(net->router(0).AcceptCredit(0, 0), "check failed");
}

TEST(Robustness, BufferOverflowDies) {
  std::shared_ptr<Topology> topo = MakeMesh(4, 4);
  NetworkParams p;
  p.router.radix = 5;
  p.router.num_vcs = 2;
  p.router.buffer_depth = 1;
  Network net(topo, p);
  Flit f;
  f.vc = 0;
  f.route_out = 4;
  f.type = FlitType::kHeadTail;
  net.router(0).AcceptFlit(0, f);
  EXPECT_DEATH(net.router(0).AcceptFlit(0, f), "check failed");
}

TEST(Robustness, FlitWithBadVcDies) {
  auto net = SmallNet();
  Flit f;
  f.vc = 7;  // only 2 VCs configured
  f.route_out = 4;
  EXPECT_DEATH(net->router(0).AcceptFlit(0, f), "check failed");
}

TEST(Robustness, InvalidGeometryThrows) {
  SwitchGeometry g;
  g.num_inports = 5;
  g.num_outports = 5;
  g.num_vcs = 6;
  g.num_vins = 4;  // 6 % 4 != 0
  EXPECT_THROW(MakeSwitchAllocator(AllocScheme::kVix, g), SimError);
}

TEST(Robustness, SchemeGeometryMismatchThrows) {
  SwitchGeometry g;
  g.num_inports = 5;
  g.num_outports = 5;
  g.num_vcs = 6;
  g.num_vins = 2;  // wavefront requires a single virtual input
  EXPECT_THROW(MakeSwitchAllocator(AllocScheme::kWavefront, g), SimError);
}

TEST(Robustness, TablePrinterRowWidthMismatchThrows) {
  TablePrinter t({"a", "b"});
  EXPECT_THROW(t.AddRow({"only-one"}), SimError);
}

TEST(Robustness, CsvRowWidthMismatchThrows) {
  const std::string path = ::testing::TempDir() + "/robust.csv";
  CsvWriter csv(path, {"a", "b"});
  EXPECT_THROW(csv.AddRow({"1", "2", "3"}), SimError);
  std::remove(path.c_str());
}

TEST(Robustness, TraceRejectsOutOfOrderRecords) {
  PacketTrace trace;
  trace.Add({10, 0, 1, 1});
  EXPECT_THROW(trace.Add({5, 0, 1, 1}), SimError);
}

TEST(Robustness, TraceRejectsMalformedText) {
  EXPECT_THROW(PacketTrace::FromText("1 2 3\n", 8), SimError);
  EXPECT_THROW(PacketTrace::FromText("1 2 99 1\n", 8), SimError);
}

TEST(Robustness, NetworkRadixMismatchThrows) {
  std::shared_ptr<Topology> topo = MakeMesh(4, 4);  // radix 5
  NetworkParams p;
  p.router.radix = 8;
  EXPECT_THROW(Network(topo, p), SimError);
}

TEST(Robustness, SimErrorMessageNamesFileAndReason) {
  try {
    TablePrinter t({"a", "b"});
    t.AddRow({"only-one"});
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("table row"), std::string::npos) << msg;
    EXPECT_NE(msg.find("table.cpp"), std::string::npos) << msg;
  }
}

// Configuration validation happens before any network is built, with the
// offending field named in the message.
TEST(Robustness, ValidateConfigRejectsBadRate) {
  NetworkSimConfig config;
  config.injection_rate = 2.0;
  EXPECT_THROW(ValidateNetworkSimConfig(config), SimError);
}

TEST(Robustness, ValidateConfigRejectsZeroBuffers) {
  NetworkSimConfig config;
  config.buffer_depth = 0;
  EXPECT_THROW(ValidateNetworkSimConfig(config), SimError);
  config.buffer_depth = 5;
  config.num_vcs = 0;
  EXPECT_THROW(ValidateNetworkSimConfig(config), SimError);
  config.num_vcs = 6;
  config.packet_size = 0;
  EXPECT_THROW(ValidateNetworkSimConfig(config), SimError);
}

TEST(Robustness, ValidateConfigRejectsIndivisibleVixVins) {
  NetworkSimConfig config;
  config.scheme = AllocScheme::kVix;
  config.num_vcs = 6;
  config.vix_virtual_inputs = 4;  // 6 % 4 != 0
  EXPECT_THROW(ValidateNetworkSimConfig(config), SimError);
  config.vix_virtual_inputs = 3;
  EXPECT_NO_THROW(ValidateNetworkSimConfig(config));
}

TEST(Robustness, ValidateConfigRejectsBadPipeline) {
  NetworkSimConfig config;
  config.pipeline_stages = 4;
  EXPECT_THROW(ValidateNetworkSimConfig(config), SimError);
}

TEST(Robustness, ValidateConfigRejectsTorusPermanentFaults) {
  NetworkSimConfig config;
  config.topology = TopologyKind::kTorus;
  config.faults.link_down_rate = 0.05;
  EXPECT_THROW(ValidateNetworkSimConfig(config), SimError);
}

TEST(Robustness, ValidateConfigRejectsBadFaultRates) {
  NetworkSimConfig config;
  config.faults.corruption_rate = 1.5;
  EXPECT_THROW(ValidateNetworkSimConfig(config), SimError);
}

// RunNetworkSim sets the thread-local sim-point context before validating,
// so the SimError from a bad config names the offending point.
TEST(Robustness, SimErrorCarriesSimPointContext) {
  NetworkSimConfig config;
  config.injection_rate = 2.0;
  try {
    RunNetworkSim(config);
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("while simulating"), std::string::npos) << msg;
    EXPECT_NE(msg.find("scheme=IF"), std::string::npos) << msg;
    EXPECT_NE(msg.find("rate=2"), std::string::npos) << msg;
  }
}

// Aborting checks print the same context so a crash deep inside a sweep is
// attributable to its point.
TEST(Robustness, CheckFailureReportsSimPointContext) {
  auto die = [] {
    ScopedSimContext ctx("scheme=%s topology=%s rate=%g", "IF", "mesh", 0.1);
    VIXNOC_CHECK(false);
  };
  EXPECT_DEATH(die(), "while simulating scheme=IF topology=mesh rate=0.1");
}

}  // namespace
}  // namespace vixnoc
