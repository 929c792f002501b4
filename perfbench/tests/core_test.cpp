// Self-tests of the benchmark's own machinery: the percentile rule, the
// correctness gate, the replica-loop equivalence check, and the seeded
// inputs. Build target perfbench_test (see ../README.md).
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "core.hpp"
#include "layers.hpp"
#include "sim/sweep.hpp"
#include "workloads.hpp"

namespace vixnoc::perfbench {
namespace {

std::vector<double> Ramp(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(TailPercentile, ReportedOnlyWithTenSamplesBeyond) {
  ASSERT_TRUE(TailPercentile(Ramp(1000), 0.99).has_value());
  EXPECT_EQ(*TailPercentile(Ramp(1000), 0.99), 990.0);
  EXPECT_FALSE(TailPercentile(Ramp(999), 0.99).has_value());
  ASSERT_TRUE(TailPercentile(Ramp(100), 0.90).has_value());
  EXPECT_EQ(*TailPercentile(Ramp(100), 0.90), 90.0);
  EXPECT_FALSE(TailPercentile(Ramp(99), 0.90).has_value());
  EXPECT_FALSE(TailPercentile({}, 0.5).has_value());
}

TEST(Median, OddAndEven) {
  EXPECT_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
}

TEST(HarmonicMean, IsTheRateOverEqualAmountsOfWork) {
  // One unit at 1/s and one at 3/s: 2 units in 4/3 s.
  EXPECT_DOUBLE_EQ(HarmonicMean({1.0, 3.0}), 1.5);
}

TEST(HostSpeed, MeasuresAPositiveFiniteRate) {
  const double speed = HostSpeed(2);
  EXPECT_GT(speed, 0.0);
  EXPECT_TRUE(std::isfinite(speed));
}

std::vector<NetworkSimConfig> ShortBatch() {
  std::vector<NetworkSimConfig> batch = PrimeConfigs(3);
  for (NetworkSimConfig& c : batch) {
    c.warmup = 50;
    c.measure = 200;
    c.drain = 50;
    c.injection_rate = 0.05;
  }
  return batch;
}

TEST(CheckBatch, PlantedInvalidPointRaisesFailedFrac) {
  std::vector<NetworkSimConfig> batch = ShortBatch();
  batch[1].num_vcs = 0;  // rejected by validation: an error slot
  const std::vector<NetworkSimResult> results = RunSweep(batch, 1);
  Tally tally;
  CheckBatch(results, std::nullopt, &tally);
  EXPECT_EQ(tally.attempted, 3u);
  EXPECT_EQ(tally.failed, 1u);
  EXPECT_GT(tally.failed_frac(), 0.0);
}

TEST(CheckBatch, PlantedDigestMismatchRaisesFailedFrac) {
  const std::vector<NetworkSimResult> results = RunSweep(ShortBatch(), 1);
  Tally clean;
  const std::uint64_t digest = CheckBatch(results, std::nullopt, &clean);
  EXPECT_EQ(clean.failed, 0u);
  Tally same;
  CheckBatch(results, digest, &same);
  EXPECT_EQ(same.failed, 0u);
  Tally planted;
  CheckBatch(results, digest ^ 1, &planted);
  EXPECT_EQ(planted.failed, 3u);
  EXPECT_EQ(planted.failed_frac(), 1.0);
}

TEST(ResultDigest, SeesEverySimulatedField) {
  const NetworkSimResult r = RunNetworkSim(ShortBatch()[0]);
  NetworkSimResult changed = r;
  changed.activity.va_grants += 1;
  EXPECT_NE(ResultDigest(r), ResultDigest(changed));
  changed = r;
  changed.p99_latency += 1e-9;
  EXPECT_NE(ResultDigest(r), ResultDigest(changed));
}

TEST(Replica, ReproducesRunNetworkSimAndCatchesADifference) {
  const auto pick = [](const std::vector<NetworkSimConfig>& grid,
                       TopologyKind topology, AllocScheme scheme) {
    for (const NetworkSimConfig& c : grid) {
      if (c.topology == topology && c.scheme == scheme) return c;
    }
    return NetworkSimConfig{};
  };
  for (const NetworkSimConfig& c :
       {pick(SaturatedGrid(7), TopologyKind::kMesh, AllocScheme::kVix),
        pick(LowLoadGrid(7), TopologyKind::kFBfly, AllocScheme::kInputFirst)}) {
    ASSERT_EQ(c.warmup, SaturatedGrid(7)[0].warmup);
    NetworkSimConfig shorter = c;
    shorter.warmup = 100;
    shorter.measure = 300;
    shorter.drain = 100;
    const ReplicaRun replica = RunReplica(shorter);
    NetworkSimResult reference = RunNetworkSim(shorter);
    EXPECT_TRUE(ReplicaMatches(replica, reference));
    EXPECT_EQ(replica.cycles, SimulatedCycles(shorter));
    reference.packets_measured += 1;
    EXPECT_FALSE(ReplicaMatches(replica, reference));
  }
}

TEST(PointClock, TimesEveryPointOfTheMeasuredRunPath) {
  const std::vector<NetworkSimConfig> batch = ShortBatch();
  const ProbeBatch probe = RunProbeBatch(batch, 2, nullptr, Tracer::kNoParent);
  EXPECT_EQ(BatchDigest(probe.results), BatchDigest(RunSweep(batch, 1)));
  ASSERT_EQ(probe.points.size(), batch.size());
  std::set<std::size_t> seen;
  for (const PointClock::Span& p : probe.points) {
    EXPECT_LE(p.start, p.end);
    seen.insert(p.index);
  }
  EXPECT_EQ(seen.size(), batch.size());

  // Points outside the batch (a backend's priming points) are ignored.
  PointClock clock(batch);
  NetworkSimConfig stranger = batch[0];
  stranger.seed += 1000;
  NetworkSimResult unused;
  EXPECT_EQ(clock.Load(stranger, &unused), PointCacheStatus::kMiss);
  clock.Put(stranger, unused);
  EXPECT_TRUE(clock.Spans().empty());
}

TEST(Inputs, SeededAndShapedAsDocumented) {
  EXPECT_EQ(SaturatedGrid(1).size(), 42u);
  EXPECT_EQ(LowLoadGrid(1).size(), 56u);
  const ServiceInputs a = MakeServiceInputs(1);
  const ServiceInputs b = MakeServiceInputs(1);
  EXPECT_EQ(a.stream, b.stream);
  EXPECT_NE(a.stream, MakeServiceInputs(2).stream);
  // Every point is touched, so every round carries one miss per point.
  const std::set<std::uint32_t> touched(a.stream.begin(), a.stream.end());
  EXPECT_EQ(touched.size(), a.points.size());
  EXPECT_GE(a.points.size(), 100u);
  std::set<std::uint64_t> keys;
  for (const NetworkSimConfig& c : a.points) keys.insert(NetworkSimResultKey(c));
  EXPECT_EQ(keys.size(), a.points.size());
  // Some first touches repeat back to back (the coalescing case).
  std::set<std::uint32_t> seen;
  int doubled = 0;
  for (std::size_t j = 0; j + 1 < a.stream.size(); ++j) {
    if (seen.insert(a.stream[j]).second && a.stream[j + 1] == a.stream[j]) {
      ++doubled;
    }
  }
  EXPECT_GT(doubled, 0);
}

TEST(Workloads, ShapesFitTheirDocumentedConcurrency) {
  for (const WorkloadShape& w : Workloads()) {
    EXPECT_LE(w.Total(), 4) << w.name;
    EXPECT_EQ(FindWorkload(w.name), &w);
  }
  EXPECT_EQ(FindWorkload("nope"), nullptr);
}

}  // namespace
}  // namespace vixnoc::perfbench
