// SweepRunner determinism and thread-pool behavior.
//
// The contract under test: running a batch of NetworkSimConfig points
// through SweepRunner yields, for every point, a result bitwise identical
// to a direct serial RunNetworkSim call — regardless of worker count,
// scheduling order, or how many batches the pool has already processed.
// These tests are also the workload for the TSAN build
// (-DVIXNOC_SANITIZE=thread).
#include "sim/sweep.hpp"

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include <unistd.h>

#include "store/result_store.hpp"
#include "topology/topology.hpp"

namespace vixnoc {
namespace {

// Small but non-trivial points: a 4x4 mesh keeps each point ~100x cheaper
// than the default 64-node config while still exercising the full VC/SA
// pipeline. Mixed schemes and patterns so points differ in run time, which
// shuffles completion order across threads.
std::vector<NetworkSimConfig> TestBatch() {
  std::vector<NetworkSimConfig> points;
  const AllocScheme schemes[] = {AllocScheme::kInputFirst,
                                 AllocScheme::kWavefront, AllocScheme::kVix};
  const double rates[] = {0.05, 0.15, 0.24};
  for (AllocScheme scheme : schemes) {
    for (double rate : rates) {
      NetworkSimConfig c;
      c.scheme = scheme;
      c.injection_rate = rate;
      c.pattern =
          rate < 0.1 ? PatternKind::kTranspose : PatternKind::kUniform;
      c.topology_factory = [] { return MakeMesh(4, 4); };
      c.warmup = 300;
      c.measure = 1'000;
      c.drain = 300;
      c.sample_interval = 200;  // timeline must match too
      c.seed = 7 + points.size();
      points.push_back(c);
    }
  }
  return points;
}

// Bitwise equality, field by field, including the activity counters and
// the optional timeline. EXPECT_EQ on doubles is deliberate: determinism
// means identical bits, not merely close values.
void ExpectIdentical(const NetworkSimResult& a, const NetworkSimResult& b) {
  EXPECT_EQ(a.offered_ppc, b.offered_ppc);
  EXPECT_EQ(a.accepted_ppc, b.accepted_ppc);
  EXPECT_EQ(a.accepted_fpc, b.accepted_fpc);
  EXPECT_EQ(a.avg_latency, b.avg_latency);
  EXPECT_EQ(a.avg_net_latency, b.avg_net_latency);
  EXPECT_EQ(a.p99_latency, b.p99_latency);
  EXPECT_EQ(a.min_node_ppc, b.min_node_ppc);
  EXPECT_EQ(a.max_node_ppc, b.max_node_ppc);
  EXPECT_EQ(a.max_min_ratio, b.max_min_ratio);
  EXPECT_EQ(a.packets_measured, b.packets_measured);
  EXPECT_EQ(a.saturated, b.saturated);
  EXPECT_EQ(a.activity.buffer_writes, b.activity.buffer_writes);
  EXPECT_EQ(a.activity.buffer_reads, b.activity.buffer_reads);
  EXPECT_EQ(a.activity.xbar_traversals, b.activity.xbar_traversals);
  EXPECT_EQ(a.activity.link_flits, b.activity.link_flits);
  EXPECT_EQ(a.activity.sa_requests, b.activity.sa_requests);
  EXPECT_EQ(a.activity.sa_grants, b.activity.sa_grants);
  EXPECT_EQ(a.activity.va_requests, b.activity.va_requests);
  EXPECT_EQ(a.activity.va_grants, b.activity.va_grants);
  EXPECT_EQ(a.activity.cycles, b.activity.cycles);
  EXPECT_EQ(a.activity.cycles_with_requests, b.activity.cycles_with_requests);
  EXPECT_EQ(a.measure_cycles, b.measure_cycles);
  EXPECT_EQ(a.num_nodes, b.num_nodes);
  EXPECT_EQ(a.packets_corrupted, b.packets_corrupted);
  EXPECT_EQ(a.outcome.status, b.outcome.status);
  EXPECT_EQ(a.outcome.message, b.outcome.message);
  EXPECT_EQ(a.outcome.cycle, b.outcome.cycle);
  EXPECT_EQ(a.outcome.router_occupancy, b.outcome.router_occupancy);
  EXPECT_EQ(a.outcome.unreachable_packets, b.outcome.unreachable_packets);
  ASSERT_EQ(a.timeline.size(), b.timeline.size());
  for (std::size_t i = 0; i < a.timeline.size(); ++i) {
    EXPECT_EQ(a.timeline[i].start, b.timeline[i].start);
    EXPECT_EQ(a.timeline[i].accepted_ppc, b.timeline[i].accepted_ppc);
    EXPECT_EQ(a.timeline[i].avg_latency, b.timeline[i].avg_latency);
    EXPECT_EQ(a.timeline[i].packets, b.timeline[i].packets);
  }
}

TEST(SweepRunnerTest, MatchesSerialAtEveryThreadCount) {
  const std::vector<NetworkSimConfig> points = TestBatch();
  std::vector<NetworkSimResult> serial;
  for (const NetworkSimConfig& c : points) {
    serial.push_back(RunNetworkSim(c));
  }

  for (int threads : {1, 2, 8}) {
    SweepRunner runner(threads);
    EXPECT_EQ(runner.num_threads(), threads);
    const std::vector<NetworkSimResult> parallel = runner.Run(points);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      SCOPED_TRACE(testing::Message()
                   << "threads=" << threads << " point=" << i);
      ExpectIdentical(serial[i], parallel[i]);
    }
  }
}

TEST(SweepRunnerTest, RepeatedRunsAreIdentical) {
  const std::vector<NetworkSimConfig> points = TestBatch();
  SweepRunner runner(4);
  const std::vector<NetworkSimResult> first = runner.Run(points);
  const std::vector<NetworkSimResult> second = runner.Run(points);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "point=" << i);
    ExpectIdentical(first[i], second[i]);
  }
}

TEST(SweepRunnerTest, EmptyBatch) {
  SweepRunner runner(2);
  EXPECT_TRUE(runner.Run({}).empty());
}

TEST(SweepRunnerTest, MoreThreadsThanPoints) {
  std::vector<NetworkSimConfig> points = TestBatch();
  points.resize(2);
  const NetworkSimResult serial0 = RunNetworkSim(points[0]);
  SweepRunner runner(8);
  const std::vector<NetworkSimResult> results = runner.Run(points);
  ASSERT_EQ(results.size(), 2u);
  ExpectIdentical(serial0, results[0]);
}

// A point whose config is invalid throws SimError inside a worker. The
// batch must still complete: the bad slot comes back as
// kInvariantViolation with the message, every other slot matches the
// serial run bit for bit, and the pool stays usable for another batch.
TEST(SweepRunnerTest, ThrowingPointDoesNotWedgeThePool) {
  std::vector<NetworkSimConfig> points = TestBatch();
  const std::size_t bad = points.size() / 2;
  points[bad].injection_rate = 2.0;  // ValidateNetworkSimConfig throws

  std::vector<NetworkSimResult> serial;
  for (std::size_t i = 0; i < points.size(); ++i) {
    serial.push_back(i == bad ? NetworkSimResult{}
                              : RunNetworkSim(points[i]));
  }

  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    SweepRunner runner(threads);
    const std::vector<NetworkSimResult> results = runner.Run(points);
    ASSERT_EQ(results.size(), points.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      SCOPED_TRACE(testing::Message() << "point=" << i);
      if (i == bad) {
        EXPECT_EQ(results[i].outcome.status, SimStatus::kInvariantViolation);
        EXPECT_NE(results[i].outcome.message.find("injection_rate"),
                  std::string::npos)
            << results[i].outcome.message;
      } else {
        ExpectIdentical(serial[i], results[i]);
      }
    }

    // The pool survived the exception and accepts further batches.
    std::vector<NetworkSimConfig> good(points.begin(), points.begin() + 2);
    const std::vector<NetworkSimResult> again = runner.Run(good);
    ASSERT_EQ(again.size(), 2u);
    ExpectIdentical(serial[0], again[0]);
  }
}

TEST(ResolveThreadCountTest, ExplicitRequestWins) {
  EXPECT_EQ(ResolveThreadCount(1), 1);
  EXPECT_EQ(ResolveThreadCount(5), 5);
}

TEST(ResolveThreadCountTest, AutoIsPositive) {
  EXPECT_GE(ResolveThreadCount(0), 1);
}

TEST(ResolveThreadCountTest, EnvOverridesAuto) {
  ASSERT_EQ(setenv("VIXNOC_THREADS", "3", 1), 0);
  EXPECT_EQ(ResolveThreadCount(0), 3);
  // Explicit request still beats the environment.
  EXPECT_EQ(ResolveThreadCount(2), 2);
  // Garbage and non-positive values fall back to hardware concurrency.
  ASSERT_EQ(setenv("VIXNOC_THREADS", "bogus", 1), 0);
  EXPECT_GE(ResolveThreadCount(0), 1);
  ASSERT_EQ(setenv("VIXNOC_THREADS", "0", 1), 0);
  EXPECT_GE(ResolveThreadCount(0), 1);
  ASSERT_EQ(unsetenv("VIXNOC_THREADS"), 0);
}

// Every malformed form of VIXNOC_THREADS is rejected (with a warning on
// stderr, not silently), falling back to hardware concurrency; huge
// values are capped rather than spawning an unbounded pool.
TEST(ResolveThreadCountTest, MalformedEnvFormsAreRejected) {
  const int fallback = []() {
    unsetenv("VIXNOC_THREADS");
    return ResolveThreadCount(0);
  }();

  // Trailing garbage after a valid prefix: "12abc" must NOT become 12.
  ASSERT_EQ(setenv("VIXNOC_THREADS", "12abc", 1), 0);
  EXPECT_EQ(ResolveThreadCount(0), fallback);
  ASSERT_EQ(setenv("VIXNOC_THREADS", "3 ", 1), 0);
  EXPECT_EQ(ResolveThreadCount(0), fallback);
  ASSERT_EQ(setenv("VIXNOC_THREADS", "2.5", 1), 0);
  EXPECT_EQ(ResolveThreadCount(0), fallback);
  // Negative and zero are not thread counts.
  ASSERT_EQ(setenv("VIXNOC_THREADS", "-4", 1), 0);
  EXPECT_EQ(ResolveThreadCount(0), fallback);
  ASSERT_EQ(setenv("VIXNOC_THREADS", "-0", 1), 0);
  EXPECT_EQ(ResolveThreadCount(0), fallback);
  // Empty string behaves as unset.
  ASSERT_EQ(setenv("VIXNOC_THREADS", "", 1), 0);
  EXPECT_EQ(ResolveThreadCount(0), fallback);
  ASSERT_EQ(unsetenv("VIXNOC_THREADS"), 0);
}

TEST(ResolveThreadCountTest, OversizedValuesAreCapped) {
  // Larger than the sanity cap but representable.
  ASSERT_EQ(setenv("VIXNOC_THREADS", "99999", 1), 0);
  EXPECT_EQ(ResolveThreadCount(0), kMaxThreadCount);
  // Overflows long: strtol saturates with ERANGE; still capped.
  ASSERT_EQ(setenv("VIXNOC_THREADS",
                   "99999999999999999999999999999999", 1), 0);
  EXPECT_EQ(ResolveThreadCount(0), kMaxThreadCount);
  ASSERT_EQ(unsetenv("VIXNOC_THREADS"), 0);
  // The cap also applies to explicit requests.
  EXPECT_EQ(ResolveThreadCount(kMaxThreadCount + 1), kMaxThreadCount);
}

// A corrupt store entry must be re-run (with a warning naming the file)
// and counted in defective_cache_points(), never silently treated as a
// miss. Valid entries keep resuming. Unlike TestBatch(), these configs
// carry no topology_factory: the content-addressed store only caches
// configs whose result key is unambiguous, and a factory's key records
// presence alone.
TEST(SweepRunnerTest, DefectiveCacheEntriesAreCountedAndRerun) {
  std::vector<NetworkSimConfig> points;
  for (int i = 0; i < 5; ++i) {
    NetworkSimConfig c;
    c.scheme = AllocScheme::kVix;
    c.injection_rate = 0.04 + 0.02 * i;
    c.warmup = 300;
    c.measure = 900;
    c.drain = 300;
    points.push_back(c);
  }
  const std::string dir = testing::TempDir() + "vixnoc_sweep_defective_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);

  auto store = std::make_shared<ResultStore>(dir);
  SweepRunner runner(2);
  runner.SetCache(store);
  const std::vector<NetworkSimResult> first = runner.Run(points);
  EXPECT_EQ(runner.defective_cache_points(), 0u);

  // Corrupt one entry (truncate) and garbage another (bad magic).
  {
    std::ofstream trunc(store->EntryPath(points[1]),
                        std::ios::binary | std::ios::trunc);
    trunc << "vix";
  }
  {
    std::ofstream garbage(store->EntryPath(points[3]),
                          std::ios::binary | std::ios::trunc);
    garbage << std::string(256, 'Z');
  }

  const std::vector<NetworkSimResult> second = runner.Run(points);
  EXPECT_EQ(runner.defective_cache_points(), 2u);
  EXPECT_EQ(runner.resumed_points(), points.size() - 2);
  ASSERT_EQ(second.size(), first.size());
  for (std::size_t i = 0; i < second.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "point=" << i);
    ExpectIdentical(first[i], second[i]);
  }

  // The re-run repaired the store in place (defective entries are
  // unlinked on detection so the recompute's Put rewrites them); a third
  // run resumes fully and the defective counter resets per Run().
  const std::vector<NetworkSimResult> third = runner.Run(points);
  EXPECT_EQ(runner.defective_cache_points(), 0u);
  EXPECT_EQ(runner.resumed_points(), points.size());
  ASSERT_EQ(third.size(), first.size());
  std::filesystem::remove_all(dir);
}

/// An in-memory PointCache keyed by result key, counting its Puts.
class MemoryCache : public PointCache {
 public:
  PointCacheStatus Load(const NetworkSimConfig& config,
                        NetworkSimResult* out) override {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = entries_.find(NetworkSimResultKey(config));
    if (it == entries_.end()) return PointCacheStatus::kMiss;
    *out = it->second;
    return PointCacheStatus::kHit;
  }
  void Put(const NetworkSimConfig& config,
           const NetworkSimResult& result) override {
    std::lock_guard<std::mutex> lock(mu_);
    entries_[NetworkSimResultKey(config)] = result;
    ++puts_;
  }
  int puts() const {
    std::lock_guard<std::mutex> lock(mu_);
    return puts_;
  }

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, NetworkSimResult> entries_;
  int puts_ = 0;
};

// Submit takes the same per-point path as Run: cache Load, the execute
// step on a miss, Put, and only then the completion. A second Submit of
// the same point is a cache hit and never reaches the step.
TEST(SweepRunnerTest, SubmitRunsTheStepOnceAndPutsBeforeDone) {
  std::atomic<int> steps{0};
  SweepRunner runner(2, [&](const NetworkSimConfig&, std::size_t, int) {
    ++steps;
    NetworkSimResult r;
    r.avg_latency = 42.0;
    return r;
  });
  auto cache = std::make_shared<MemoryCache>();
  runner.SetCache(cache);

  NetworkSimConfig config;
  config.scheme = AllocScheme::kVix;
  struct Completion {
    double avg_latency;
    int puts_at_done;
  };
  const auto submit = [&] {
    std::promise<Completion> done;
    std::future<Completion> completion = done.get_future();
    runner.Submit(config, [&](NetworkSimResult r) {
      done.set_value(Completion{r.avg_latency, cache->puts()});
    });
    return completion.get();
  };

  const Completion first = submit();
  EXPECT_EQ(steps.load(), 1);
  EXPECT_EQ(first.avg_latency, 42.0);
  EXPECT_EQ(first.puts_at_done, 1);  // Put happened before done

  const Completion second = submit();
  EXPECT_EQ(steps.load(), 1);  // served from the cache
  EXPECT_EQ(second.avg_latency, 42.0);
  EXPECT_EQ(second.puts_at_done, 1);  // a hit writes nothing back
}

}  // namespace
}  // namespace vixnoc
