#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "app/app_sim.hpp"
#include "app/benchmarks.hpp"
#include "app/sim_config_args.hpp"
#include "sim/config_fields.hpp"
#include "snapshot/snapshot.hpp"

namespace vixnoc::app {
namespace {

TEST(Catalogue, HasThirtyFiveUniqueBenchmarks) {
  const auto& cat = BenchmarkCatalogue();
  EXPECT_EQ(cat.size(), 35u);
  std::set<std::string> names;
  for (const auto& b : cat) {
    EXPECT_TRUE(names.insert(b.name).second) << "duplicate " << b.name;
    EXPECT_GT(b.network_mpki, 0.0);
    EXPECT_GT(b.l2_miss_rate, 0.0);
    EXPECT_LT(b.l2_miss_rate, 1.0);
  }
}

TEST(Catalogue, FindBenchmarkReturnsRequested) {
  EXPECT_EQ(FindBenchmark("mcf").name, "mcf");
  EXPECT_GT(FindBenchmark("mcf").network_mpki,
            FindBenchmark("gcc").network_mpki);
}

TEST(Mixes, EightMixesOfSixtyFourCores) {
  const auto& mixes = PaperMixes();
  ASSERT_EQ(mixes.size(), 8u);
  for (const auto& mix : mixes) {
    int total = 0;
    EXPECT_EQ(mix.apps.size(), 6u) << mix.name;
    for (const auto& [name, count] : mix.apps) {
      FindBenchmark(name);  // must exist (checked internally)
      total += count;
    }
    EXPECT_EQ(total, 64) << mix.name;
  }
}

TEST(Mixes, AverageMpkiMatchesTable4) {
  for (const auto& mix : PaperMixes()) {
    EXPECT_NEAR(MixAverageMpki(mix), mix.paper_avg_mpki, 0.15) << mix.name;
  }
}

TEST(Mixes, MpkiIncreasesMonotonicallyMix1ToMix8) {
  const auto& mixes = PaperMixes();
  for (std::size_t i = 1; i < mixes.size(); ++i) {
    EXPECT_GT(MixAverageMpki(mixes[i]), MixAverageMpki(mixes[i - 1]));
  }
}

TEST(Mixes, PaperSpeedupsNonDecreasing) {
  const auto& mixes = PaperMixes();
  for (std::size_t i = 1; i < mixes.size(); ++i) {
    EXPECT_GE(mixes[i].paper_vix_speedup, mixes[i - 1].paper_vix_speedup);
  }
}

TEST(Mixes, ExpandAssignsEveryCore) {
  const auto cores = ExpandMix(PaperMixes()[0]);
  EXPECT_EQ(cores.size(), 64u);
  int milc = 0;
  for (const auto& c : cores) {
    if (c.name == "milc") ++milc;
  }
  EXPECT_EQ(milc, 11);
}

AppSimConfig QuickApp(AllocScheme scheme) {
  AppSimConfig c;
  c.scheme = scheme;
  c.warmup = 3000;
  c.measure = 8000;
  return c;
}

TEST(AppSim, IpcWithinPhysicalBounds) {
  const auto cores = ExpandMix(PaperMixes()[0]);
  const auto r = RunAppSim(QuickApp(AllocScheme::kInputFirst), cores);
  ASSERT_EQ(r.core_ipc.size(), 64u);
  for (double ipc : r.core_ipc) {
    EXPECT_GE(ipc, 0.0);
    EXPECT_LE(ipc, 1.0);
  }
  EXPECT_GT(r.aggregate_ipc, 1.0);
  EXPECT_LE(r.aggregate_ipc, 64.0);
}

TEST(AppSim, MeasuredMpkiTracksProfile) {
  const auto& mix = PaperMixes()[0];  // avg 15.0
  const auto r = RunAppSim(QuickApp(AllocScheme::kInputFirst),
                           ExpandMix(mix));
  EXPECT_NEAR(r.avg_mpki, mix.paper_avg_mpki, mix.paper_avg_mpki * 0.25);
}

TEST(AppSim, HigherMpkiMixRunsSlower) {
  const auto light = RunAppSim(QuickApp(AllocScheme::kInputFirst),
                               ExpandMix(PaperMixes()[0]));  // 15.0
  const auto heavy = RunAppSim(QuickApp(AllocScheme::kInputFirst),
                               ExpandMix(PaperMixes()[7]));  // 66.9
  EXPECT_LT(heavy.aggregate_ipc, light.aggregate_ipc);
}

TEST(AppSim, MissLatencyAboveZeroLoadFloor) {
  const auto r = RunAppSim(QuickApp(AllocScheme::kInputFirst),
                           ExpandMix(PaperMixes()[3]));
  // Floor: request (>=1 net hop) + 6-cycle L2 + reply: > 20 cycles.
  EXPECT_GT(r.avg_miss_latency, 20.0);
  EXPECT_GT(r.total_requests, 1000u);
}

TEST(AppSim, DeterministicForSeed) {
  const auto cores = ExpandMix(PaperMixes()[4]);
  const auto a = RunAppSim(QuickApp(AllocScheme::kVix), cores);
  const auto b = RunAppSim(QuickApp(AllocScheme::kVix), cores);
  EXPECT_EQ(a.aggregate_ipc, b.aggregate_ipc);
  EXPECT_EQ(a.total_requests, b.total_requests);
}

TEST(AppSim, UniformLowMpkiWorkloadNearlyFullIpc) {
  std::vector<BenchmarkProfile> cores(64,
                                      BenchmarkProfile{"calm", 0.5, 0.2});
  const auto r = RunAppSim(QuickApp(AllocScheme::kInputFirst), cores);
  EXPECT_GT(r.aggregate_ipc, 60.0);  // barely any stalls
}

TEST(AppSim, WeightedSpeedupIdentityAndScaling) {
  AppSimResult a, b;
  a.core_ipc = {0.5, 1.0, 0.25};
  b.core_ipc = {0.5, 1.0, 0.25};
  EXPECT_DOUBLE_EQ(WeightedSpeedup(a, a), 1.0);
  b.core_ipc = {1.0, 2.0, 0.5};  // every core 2x faster
  EXPECT_DOUBLE_EQ(WeightedSpeedup(a, b), 2.0);
}

TEST(AppSim, WeightedSpeedupIgnoresIdleCores) {
  AppSimResult a, b;
  a.core_ipc = {0.0, 0.5};
  b.core_ipc = {0.7, 1.0};
  EXPECT_DOUBLE_EQ(WeightedSpeedup(a, b), 2.0);  // only core 1 counted
}

TEST(AppSim, VixDoesNotHurtApplications) {
  const auto cores = ExpandMix(PaperMixes()[7]);  // heaviest mix
  const auto base = RunAppSim(QuickApp(AllocScheme::kInputFirst), cores);
  const auto vix = RunAppSim(QuickApp(AllocScheme::kVix), cores);
  EXPECT_GE(vix.aggregate_ipc, base.aggregate_ipc * 0.99);
}

// Frozen output of RunAppSim, the Table 4 engine: each arm digests every
// AppSimResult field, so any change to how an app run evolves shows here,
// not only in the relations the tests above check. A failure prints the
// digest as it now is; update a row only for an intentional model change.
std::uint64_t Digest(const AppSimResult& r) {
  std::vector<std::uint64_t> words;
  for (double ipc : r.core_ipc) {
    words.push_back(std::bit_cast<std::uint64_t>(ipc));
  }
  words.push_back(std::bit_cast<std::uint64_t>(r.aggregate_ipc));
  words.push_back(std::bit_cast<std::uint64_t>(r.avg_mpki));
  words.push_back(std::bit_cast<std::uint64_t>(r.avg_miss_latency));
  words.push_back(r.total_requests);
  return Fnv1a64(words.data(), words.size() * sizeof(std::uint64_t));
}

TEST(AppSim, ResultsAreFrozen) {
  struct Arm {
    int mix;
    AllocScheme scheme;
    int message_classes;
    std::uint64_t digest;
  };
  const Arm arms[] = {
      {0, AllocScheme::kInputFirst, 1, 0x7b47c068cea26a5cull},
      {0, AllocScheme::kVix, 1, 0x513b2dd5da3b829full},
      {7, AllocScheme::kInputFirst, 1, 0x823cfd449fc772cdull},
      {7, AllocScheme::kVix, 1, 0x145b32752ee09ce1ull},
      {4, AllocScheme::kVix, 2, 0xbc296bcdb6e580d6ull},
  };
  for (const Arm& arm : arms) {
    AppSimConfig c;
    c.scheme = arm.scheme;
    c.num_message_classes = arm.message_classes;
    c.seed = 5;
    c.warmup = 1'000;
    c.measure = 3'000;
    const AppSimResult r = RunAppSim(c, ExpandMix(PaperMixes()[arm.mix]));
    const std::uint64_t got = Digest(r);
    EXPECT_EQ(got, arm.digest)
        << "mix " << arm.mix + 1 << " " << ToString(arm.scheme) << " classes "
        << arm.message_classes << " digest is now 0x" << std::hex << got;
  }
}

ArgMap Args(std::vector<std::string> pairs) {
  std::vector<char*> argv = {const_cast<char*>("app_test")};
  for (std::string& kv : pairs) argv.push_back(kv.data());
  return ArgMap::Parse(static_cast<int>(argv.size()), argv.data());
}

TEST(SimConfigFromArgs, NoKeysGiveTheDocumentedDefaults) {
  NetworkSimConfig c;
  ASSERT_TRUE(SimConfigFromArgs(Args({}), &c));
  EXPECT_EQ(c.topology, TopologyKind::kMesh);
  EXPECT_EQ(c.scheme, AllocScheme::kVix);
  EXPECT_EQ(c.pattern, PatternKind::kUniform);
  EXPECT_EQ(c.routing, "dor");
  EXPECT_EQ(c.hotspot_node, kInvalidNode);
  EXPECT_EQ(c.incast_fanin, 0);
  EXPECT_EQ(c.injection_rate, 0.1);
  EXPECT_EQ(c.num_vcs, 6);
  EXPECT_EQ(c.buffer_depth, 5);
  EXPECT_EQ(c.packet_size, 4);
  EXPECT_EQ(c.seed, 1u);
  EXPECT_EQ(c.warmup, 5'000u);
  EXPECT_EQ(c.measure, 15'000u);
  EXPECT_EQ(c.drain, 2'000u);
  EXPECT_EQ(c.pipeline_stages, 3);
}

TEST(SimConfigFromArgs, EachKeySetsItsField) {
  // The table carries exactly the fifteen historical keys.
  std::set<std::string> keys;
  const NetworkSimConfig defaults;
  VisitNetworkSimConfig(defaults, [&](const ConfigField& f, const auto&) {
    if (f.cli_key != nullptr) keys.insert(f.cli_key);
  });
  EXPECT_EQ(keys, (std::set<std::string>{
                      "topology", "scheme", "pattern", "routing", "hotspot",
                      "fanin", "vcs", "depth", "packet", "rate", "seed",
                      "warmup", "measure", "drain", "pipeline"}));

  const ArgMap args = Args({"topology=torus", "scheme=serenade",
                            "pattern=incast", "routing=adaptive_min",
                            "hotspot=9", "fanin=12", "vcs=4", "depth=3",
                            "packet=2", "rate=0.17", "seed=42", "warmup=111",
                            "measure=222", "drain=33", "pipeline=5"});
  NetworkSimConfig c;
  ASSERT_TRUE(SimConfigFromArgs(args, &c));
  args.CheckAllConsumed();  // exits on any key the parser never read
  EXPECT_EQ(c.topology, TopologyKind::kTorus);
  EXPECT_EQ(c.scheme, AllocScheme::kSerenade);
  EXPECT_EQ(c.pattern, PatternKind::kIncast);
  EXPECT_EQ(c.routing, "adaptive_min");
  EXPECT_EQ(c.hotspot_node, 9);
  EXPECT_EQ(c.incast_fanin, 12);
  EXPECT_EQ(c.num_vcs, 4);
  EXPECT_EQ(c.buffer_depth, 3);
  EXPECT_EQ(c.packet_size, 2);
  EXPECT_EQ(c.injection_rate, 0.17);
  EXPECT_EQ(c.seed, 42u);
  EXPECT_EQ(c.warmup, 111u);
  EXPECT_EQ(c.measure, 222u);
  EXPECT_EQ(c.drain, 33u);
  EXPECT_EQ(c.pipeline_stages, 5);
}

TEST(SimConfigFromArgs, UnknownNamesAreRejected) {
  for (const char* kv : {"topology=ring", "scheme=greedy", "pattern=zigzag",
                         "routing=teleport"}) {
    NetworkSimConfig c;
    EXPECT_FALSE(SimConfigFromArgs(Args({kv}), &c)) << kv;
  }
}

}  // namespace
}  // namespace vixnoc::app
