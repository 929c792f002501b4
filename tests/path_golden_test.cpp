// Frozen goldens for router paths the golden-arms gate (scripts/
// golden_arms.sh: every topology x scheme at one rate, default knobs)
// never reaches: atomic VC reallocation, separable VA, random VC choice,
// non-speculative SA and its priority rule, message classes, torus
// datelines, adaptive routing, transient faults with stalls and
// corruption, telemetry, and the randomized SERENADE allocator — each at
// a rate where most routers idle (0.01) and one past saturation (0.14).
//
// The values were captured before routers learned to sleep, park blocked
// heads and cache routes; those are pure speed-ups, so every value must
// stay bitwise identical. The link-timing arms (equal link delays, and
// pipeline_stages=5) digest checkpoint bytes taken every 100 cycles; they
// were captured before routers wrote link events straight into the event
// wheel. (The message-class digests include checkpoint
// bytes, so they were captured once link events had every field
// initialized.) A failure prints the row as it now is; update a row only
// for an intentional behaviour change, and say so.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "network/network.hpp"
#include "sim/network_sim.hpp"
#include "snapshot/snapshot.hpp"
#include "topology/topology.hpp"

namespace vixnoc {
namespace {

struct Golden {
  const char* arm;
  double rate;
  std::uint64_t packets;      ///< packets measured / ejected
  double latency;             ///< avg_latency (sim arms) or 0
  std::uint64_t va_requests;  ///< summed router activity
  std::uint64_t sa_grants;
  std::uint64_t digest;  ///< FNV-1a of the encoded result or final state
};

std::uint64_t Digest(const std::string& bytes) {
  return Fnv1a64(bytes.data(), bytes.size());
}

NetworkSimConfig BaseConfig(double rate) {
  NetworkSimConfig c;
  c.scheme = AllocScheme::kVix;
  c.injection_rate = rate;
  c.seed = 5;
  c.warmup = 300;
  c.measure = 1'000;
  c.drain = 400;
  c.sample_interval = 250;
  return c;
}

const std::vector<std::pair<const char*,
                            std::function<void(NetworkSimConfig*)>>>&
SimArms() {
  static const std::vector<
      std::pair<const char*, std::function<void(NetworkSimConfig*)>>>
      arms = {
          {"atomic_vc_alloc",
           [](NetworkSimConfig* c) {
             c->scheme = AllocScheme::kInputFirst;
             c->atomic_vc_alloc = true;
           }},
          {"separable_va",
           [](NetworkSimConfig* c) {
             c->va_organization = VaOrganization::kSeparableArbitrated;
           }},
          {"random_free",
           [](NetworkSimConfig* c) {
             c->vc_policy = VcAssignPolicy::kRandomFree;
           }},
          {"nonspeculative_sa",
           [](NetworkSimConfig* c) { c->pipeline_stages = 5; }},
          {"prioritize_nonspeculative",
           [](NetworkSimConfig* c) { c->prioritize_nonspeculative = true; }},
          {"torus",
           [](NetworkSimConfig* c) { c->topology = TopologyKind::kTorus; }},
          {"adaptive_min",
           [](NetworkSimConfig* c) { c->routing = "adaptive_min"; }},
          {"transient_faults",
           [](NetworkSimConfig* c) {
             c->faults.transient_rate = 0.1;
             c->faults.transient_period = 400;
             c->faults.transient_duration = 60;
             c->faults.router_stall_rate = 0.1;
             c->faults.stall_period = 300;
             c->faults.stall_duration = 40;
             c->faults.corruption_rate = 0.01;
           }},
          {"telemetry",
           [](NetworkSimConfig* c) {
             c->telemetry.enabled = true;
             c->telemetry.window_cycles = 200;
             c->telemetry.trace_sample_period = 16;
           }},
          {"serenade",
           [](NetworkSimConfig* c) { c->scheme = AllocScheme::kSerenade; }},
      };
  return arms;
}

Golden RunSimArm(const char* arm, double rate,
                 const std::function<void(NetworkSimConfig*)>& tweak) {
  NetworkSimConfig c = BaseConfig(rate);
  tweak(&c);
  const NetworkSimResult r = RunNetworkSim(c);
  EXPECT_TRUE(r.outcome.ok()) << arm << " " << r.outcome.message;
  SnapshotWriter w;
  w.BeginSection("result");
  SaveNetworkSimResult(w, r);
  w.EndSection();
  return Golden{arm,
                rate,
                r.packets_measured,
                r.avg_latency,
                r.activity.va_requests,
                r.activity.sa_grants,
                Digest(w.Finish(0))};
}

/// Two message classes are a RouterConfig knob with no NetworkSimConfig
/// field, so this arm drives a Network directly and digests its ejection
/// log plus its final checkpoint bytes.
Golden RunMessageClassArm(double rate) {
  NetworkParams p;
  p.router.radix = 5;
  p.router.num_vcs = 6;
  p.router.buffer_depth = 5;
  p.router.scheme = AllocScheme::kVix;
  p.router.vc_policy = RouterConfig::DefaultPolicyFor(AllocScheme::kVix);
  p.router.interleaved_vins = true;
  p.router.num_message_classes = 2;
  Network net(std::shared_ptr<Topology>(MakeMesh(8, 8)), p);
  std::string log;
  std::uint64_t ejected = 0;
  net.SetEjectCallback([&](const PacketRecord& rec) {
    ++ejected;
    log += std::to_string(rec.id) + ":" + std::to_string(rec.ejected) + ";";
  });
  Rng rng(9);
  for (Cycle t = 0; t < 1'500; ++t) {
    for (NodeId n = 0; n < net.NumNodes(); ++n) {
      if (!rng.NextBool(rate)) continue;
      const auto dst = static_cast<NodeId>(rng.NextBounded(net.NumNodes()));
      net.EnqueuePacket(n, dst, 4, 0, static_cast<int>(rng.NextBounded(2)));
    }
    net.Step();
  }
  SnapshotWriter w;
  w.BeginSection("network");
  net.SaveState(w);
  w.EndSection();
  const RouterActivity a = net.TotalActivity();
  EXPECT_EQ(a.cycles, static_cast<std::uint64_t>(net.NumRouters()) * 1'500);
  return Golden{"message_classes", rate,          ejected,
                0.0,               a.va_requests, a.sa_grants,
                Digest(log) ^ Digest(w.Finish(0))};
}

/// Link timing of a checkpoint-golden arm: the three link delays and
/// whether SA may run in the same cycle as VA.
struct LinkTiming {
  const char* arm;
  int flit_delay;
  int credit_delay;
  int ni_link_delay;
  bool speculative_sa;
};

/// Equal delays put every flit and credit of a cycle in one wheel slot;
/// pipeline_stages=5 (non-speculative SA, flit_delay 4) spreads them over
/// three. The digests fold in the checkpoint bytes, so they pin the
/// event wheel's encoding and its in-flight count, not only the results.
const std::vector<LinkTiming>& CheckpointArms() {
  static const std::vector<LinkTiming> arms = {
      {"equal_delay_1", 1, 1, 1, true},
      {"equal_delay_2", 2, 2, 2, true},
      {"equal_delay_3", 3, 3, 3, true},
      {"pipeline_stages_5", 4, 2, 1, false},
  };
  return arms;
}

NetworkParams CheckpointParams(const LinkTiming& t) {
  NetworkParams p;
  p.router.radix = 5;
  p.router.num_vcs = 6;
  p.router.buffer_depth = 5;
  p.router.scheme = AllocScheme::kVix;
  p.router.vc_policy = RouterConfig::DefaultPolicyFor(AllocScheme::kVix);
  p.router.speculative_sa = t.speculative_sa;
  p.flit_delay = t.flit_delay;
  p.credit_delay = t.credit_delay;
  p.ni_link_delay = t.ni_link_delay;
  return p;
}

std::string CheckpointBytes(const Network& net) {
  SnapshotWriter w;
  w.BeginSection("network");
  net.SaveState(w);
  w.EndSection();
  return w.Finish(0);
}

/// Uniform random 4-flit packets at `rate` per node per cycle.
void Inject(Network& net, Rng& rng, double rate) {
  for (NodeId n = 0; n < net.NumNodes(); ++n) {
    if (!rng.NextBool(rate)) continue;
    net.EnqueuePacket(n, static_cast<NodeId>(rng.NextBounded(net.NumNodes())),
                      4);
  }
}

constexpr Cycle kCheckpointCycles = 1'000;
constexpr Cycle kCheckpointEvery = 100;

/// Drives a mesh VIX network with link timing `t` and digests its
/// ejection log plus its checkpoint bytes, saved every kCheckpointEvery
/// cycles.
Golden RunCheckpointArm(const LinkTiming& t, double rate) {
  Network net(std::shared_ptr<Topology>(MakeMesh(8, 8)), CheckpointParams(t));
  std::string log;
  std::uint64_t ejected = 0;
  net.SetEjectCallback([&](const PacketRecord& rec) {
    ++ejected;
    log += std::to_string(rec.id) + ":" + std::to_string(rec.ejected) + ";";
  });
  Rng rng(11);
  std::uint64_t digest = 0;
  for (Cycle c = 0; c < kCheckpointCycles; ++c) {
    Inject(net, rng, rate);
    net.Step();
    if ((c + 1) % kCheckpointEvery == 0) {
      digest = Fnv1a64(&digest, sizeof digest) ^
               Digest(CheckpointBytes(net));
    }
  }
  const RouterActivity a = net.TotalActivity();
  return Golden{t.arm, rate, ejected, 0.0, a.va_requests, a.sa_grants,
                digest ^ Digest(log)};
}

// clang-format off
const std::vector<Golden> kGoldens = {
    {"atomic_vc_alloc", 0.01, 650u, 23.232307692307693, 4022u, 16096u, 0x72cf1c29f92fa025ull},
    {"atomic_vc_alloc", 0.14, 6090u, 196.56321839080456, 583120u, 143347u, 0xf031b727e211bfe6ull},
    {"separable_va", 0.01, 650u, 23.223076923076928, 4028u, 16096u, 0xe3e441aed0e0ade6ull},
    {"separable_va", 0.14, 7913u, 158.43295842284843, 207759u, 183800u, 0x846ab2b0928abcd3ull},
    {"random_free", 0.01, 650u, 23.232307692307693, 4022u, 16096u, 0x5ce30d6cdaacbdfbull},
    {"random_free", 0.14, 7887u, 164.91568403702229, 215740u, 183422u, 0x14a812791e6e321bull},
    {"nonspeculative_sa", 0.01, 650u, 35.327692307692296, 4015u, 16057u, 0x01fa27fe00b5bfa4ull},
    {"nonspeculative_sa", 0.14, 7858u, 166.08577246118583, 208352u, 184094u, 0x8533122c6a308440ull},
    {"prioritize_nonspeculative", 0.01, 650u, 23.124615384615385, 4023u, 16097u, 0x9c93c7ad964a1962ull},
    {"prioritize_nonspeculative", 0.14, 7935u, 159.96320100819153, 208940u, 184392u, 0x10ea97abe610ebf6ull},
    {"torus", 0.01, 650u, 19.813846153846171, 3296u, 13177u, 0x02317202ba1e51eaull},
    {"torus", 0.14, 7839u, 70.023472381681444, 145153u, 155398u, 0x9b539839eb69cc36ull},
    {"adaptive_min", 0.01, 650u, 23.226153846153846, 4022u, 16096u, 0xbe489bc5db2facc2ull},
    {"adaptive_min", 0.14, 4820u, 291.57074688796712, 1125913u, 110751u, 0x2803cafabf8c21c4ull},
    {"transient_faults", 0.01, 650u, 26.932307692307699, 5269u, 16148u, 0xf4e095a1a51e0948ull},
    {"transient_faults", 0.14, 6965u, 225.81435750179503, 258438u, 158427u, 0x4372b41ac8dfa41aull},
    {"telemetry", 0.01, 650u, 23.223076923076928, 4023u, 16096u, 0x336b26a236a1ac8cull},
    {"telemetry", 0.14, 7890u, 160.22940430925203, 209309u, 183125u, 0x885fd52f15b0fa33ull},
    {"serenade", 0.01, 650u, 23.081538461538457, 4023u, 16102u, 0xbcface5cc52b2406ull},
    {"serenade", 0.14, 7509u, 197.84352110800396, 262694u, 173462u, 0x514d155fe2f3b549ull},
    {"message_classes", 0.01, 891u, 0, 5605u, 22389u, 0x245d066a22a28f52ull},
    {"message_classes", 0.14, 10882u, 0, 263830u, 271510u, 0xa1a3315e0e74e5bdull},
    {"equal_delay_1", 0.12, 6996u, 0, 82523u, 179604u, 0xfb819629d666652bull},
    {"equal_delay_2", 0.12, 6923u, 0, 86354u, 178077u, 0xdf69cd4c8abfcffbull},
    {"equal_delay_3", 0.12, 6857u, 0, 87373u, 176960u, 0x395310c4a34e6288ull},
    {"pipeline_stages_5", 0.12, 6790u, 0, 89228u, 175395u, 0x96f318434bd7fd41ull},
};
// clang-format on

std::string Row(const Golden& g) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "    {\"%s\", %.2f, %" PRIu64 "u, %.17g, %" PRIu64
                "u, %" PRIu64 "u, 0x%016" PRIx64 "ull},",
                g.arm, g.rate, g.packets, g.latency, g.va_requests,
                g.sa_grants, g.digest);
  return buf;
}

void ExpectGolden(const Golden& got) {
  const Golden* want = nullptr;
  for (const Golden& g : kGoldens) {
    if (std::string(g.arm) == got.arm && g.rate == got.rate) want = &g;
  }
  ASSERT_NE(want, nullptr) << "no golden row; now:\n" << Row(got);
  EXPECT_EQ(got.packets, want->packets) << Row(got);
  EXPECT_EQ(got.latency, want->latency) << Row(got);
  EXPECT_EQ(got.va_requests, want->va_requests) << Row(got);
  EXPECT_EQ(got.sa_grants, want->sa_grants) << Row(got);
  EXPECT_EQ(got.digest, want->digest) << Row(got);
}

class PathGoldenTest : public ::testing::TestWithParam<double> {};

TEST_P(PathGoldenTest, SimArmsMatchFrozenGoldens) {
  for (const auto& [arm, tweak] : SimArms()) {
    SCOPED_TRACE(arm);
    ExpectGolden(RunSimArm(arm, GetParam(), tweak));
  }
}

TEST_P(PathGoldenTest, MessageClassArmMatchesFrozenGolden) {
  ExpectGolden(RunMessageClassArm(GetParam()));
}

TEST(CheckpointGoldenTest, LinkTimingArmsMatchFrozenGoldens) {
  for (const LinkTiming& t : CheckpointArms()) {
    SCOPED_TRACE(t.arm);
    ExpectGolden(RunCheckpointArm(t, 0.12));
  }
}

// A network restored mid-run from checkpoint bytes, with flits and credits
// sharing wheel slots, continues exactly as the one that never stopped.
TEST(CheckpointGoldenTest, ResumeAtEqualDelaysIsEquivalent) {
  for (const LinkTiming& t : CheckpointArms()) {
    if (t.flit_delay != t.credit_delay) continue;
    SCOPED_TRACE(t.arm);
    const auto topo = std::shared_ptr<Topology>(MakeMesh(8, 8));
    Network a(topo, CheckpointParams(t));
    Rng rng(13);
    for (Cycle c = 0; c < 400; ++c) {
      Inject(a, rng, 0.12);
      a.Step();
    }
    Network b(topo, CheckpointParams(t));
    SnapshotReader r(CheckpointBytes(a));
    r.OpenSection("network");
    b.LoadState(r);
    r.CloseSection();
    std::string log_a;
    std::string log_b;
    a.SetEjectCallback([&](const PacketRecord& rec) {
      log_a += std::to_string(rec.id) + ":" + std::to_string(rec.ejected) +
               ";";
    });
    b.SetEjectCallback([&](const PacketRecord& rec) {
      log_b += std::to_string(rec.id) + ":" + std::to_string(rec.ejected) +
               ";";
    });
    Rng rng_b = rng;
    for (Cycle c = 0; c < 400; ++c) {
      Inject(a, rng, 0.12);
      Inject(b, rng_b, 0.12);
      a.Step();
      b.Step();
    }
    EXPECT_FALSE(log_a.empty());
    EXPECT_EQ(log_a, log_b);
    EXPECT_EQ(CheckpointBytes(a), CheckpointBytes(b));
  }
}

INSTANTIATE_TEST_SUITE_P(Rates, PathGoldenTest,
                         ::testing::Values(0.01, 0.14),
                         [](const ::testing::TestParamInfo<double>& info) {
                           return info.param < 0.1 ? std::string("Low")
                                                   : std::string("Saturated");
                         });

}  // namespace
}  // namespace vixnoc
