// Crash-isolated sweep execution (exec/coordinator.hpp + the
// vixnoc_sweep_worker subprocess).
//
// The contract under test: a batch containing points that segfault, hang,
// exit, or corrupt their output completes without killing the
// coordinator; every failure is classified in the per-point ExecStatus;
// failed points are retried with backoff on respawned workers; and every
// surviving result is bitwise identical to a direct serial RunNetworkSim
// call — the same determinism contract SweepRunner pins, now across a
// process boundary.
//
// The worker binary's path is baked in by CMake
// (VIXNOC_SWEEP_WORKER_PATH); failure injection uses the worker's
// VIXNOC_TEST_*_POINT environment hooks.
#include "exec/coordinator.hpp"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include <unistd.h>

#include "common/error.hpp"
#include "exec/exec_protocol.hpp"
#include "sim/sweep.hpp"
#include "snapshot/snapshot.hpp"
#include "store/result_store.hpp"
#include "topology/topology.hpp"

namespace vixnoc {
namespace {

/// Serialized image of a result: bitwise equality of every field the
/// full-fidelity codec covers (metrics, outcome, timeline, telemetry).
std::string Bytes(const NetworkSimResult& r) {
  SnapshotWriter w;
  w.BeginSection("result");
  SaveNetworkSimResult(w, r);
  w.EndSection();
  return w.Finish(0);
}

/// Small default-topology batch (the 64-node mesh; a topology_factory
/// cannot cross the process boundary) with mixed schemes and rates so
/// points differ in runtime and completion order.
std::vector<NetworkSimConfig> TestBatch(std::size_t n = 6) {
  std::vector<NetworkSimConfig> points;
  const AllocScheme schemes[] = {AllocScheme::kInputFirst, AllocScheme::kVix,
                                 AllocScheme::kWavefront};
  for (std::size_t i = 0; i < n; ++i) {
    NetworkSimConfig c;
    c.scheme = schemes[i % 3];
    c.injection_rate = 0.04 + 0.02 * static_cast<double>(i % 3);
    c.warmup = 200;
    c.measure = 600;
    c.drain = 200;
    c.sample_interval = 250;  // the timeline must survive the wire, too
    c.seed = 11 + i;
    points.push_back(c);
  }
  return points;
}

std::vector<NetworkSimResult> SerialReference(
    const std::vector<NetworkSimConfig>& configs) {
  std::vector<NetworkSimResult> out;
  out.reserve(configs.size());
  for (const NetworkSimConfig& c : configs) out.push_back(RunNetworkSim(c));
  return out;
}

ExecPolicy TestPolicy(int workers = 3) {
  ExecPolicy policy;
  policy.num_workers = workers;
  policy.worker_path = VIXNOC_SWEEP_WORKER_PATH;
  return policy;
}

/// Sets a worker failure-injection hook for one test body, restoring the
/// pristine environment afterwards (hooks leak into every later spawn
/// otherwise).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    EXPECT_EQ(setenv(name, value.c_str(), 1), 0);
  }
  ~ScopedEnv() { unsetenv(name_); }

 private:
  const char* name_;
};

std::string FreshDir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "vixnoc_exec_" + tag + "_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(ExecProtocolTest, PointFrameRoundTripsNonDefaultConfig) {
  NetworkSimConfig c;
  c.topology = TopologyKind::kFBfly;
  c.scheme = AllocScheme::kVix;
  c.num_vcs = 4;
  c.buffer_depth = 3;
  c.packet_size = 2;
  c.injection_rate = 0.17;
  c.pattern = PatternKind::kTranspose;
  c.arbiter = ArbiterKind::kMatrix;
  c.vc_policy = VcAssignPolicy::kVixBalance;
  c.ap_rotate_vcs = false;
  c.pipeline_stages = 5;
  c.vix_virtual_inputs = 2;
  c.interleaved_vins = true;
  c.prioritize_nonspeculative = true;
  c.va_organization = VaOrganization::kSeparableArbitrated;
  c.atomic_vc_alloc = true;
  c.bursty = true;
  c.burst_on_rate = 0.4;
  c.mean_burst_cycles = 17.5;
  c.sample_interval = 123;
  c.faults.link_down_rate = 0.01;
  c.faults.forced_link_down = {{3, 1}, {7, 2}};
  c.faults.seed = 99;
  c.watchdog_cycles = 7'777;
  c.telemetry.enabled = true;
  c.telemetry.trace_sample_period = 5;
  c.seed = 42;
  c.warmup = 111;
  c.measure = 222;
  c.drain = 33;

  PointFrame in;
  in.index = 17;
  in.attempt = 3;
  in.config = c;
  const PointFrame out = DecodePointFrame(EncodePointFrame(in));
  EXPECT_EQ(out.index, 17u);
  EXPECT_EQ(out.attempt, 3u);
  // The fingerprint covers every evolution-relevant field, so equality of
  // fingerprints is equality of the wire-visible config.
  EXPECT_EQ(NetworkSimConfigFingerprint(out.config),
            NetworkSimConfigFingerprint(c));
  EXPECT_EQ(out.config.faults.forced_link_down, c.faults.forced_link_down);
  EXPECT_EQ(out.config.telemetry.enabled, true);
  EXPECT_EQ(out.config.vc_policy, c.vc_policy);
}

TEST(ExecProtocolTest, TopologyFactoryRefusedAtEncode) {
  PointFrame frame;
  frame.config.topology_factory = [] { return MakeMesh(4, 4); };
  EXPECT_THROW(EncodePointFrame(frame), SimError);
}

TEST(ExecProtocolTest, ResultFrameRoundTrips) {
  NetworkSimConfig c;
  c.warmup = 100;
  c.measure = 300;
  c.drain = 100;
  const NetworkSimResult r = RunNetworkSim(c);
  const std::string bytes =
      EncodeResultFrame(5, NetworkSimConfigFingerprint(c), r);
  const ResultFrame decoded = DecodeResultFrame(bytes);
  EXPECT_EQ(decoded.index, 5u);
  EXPECT_EQ(decoded.config_fingerprint, NetworkSimConfigFingerprint(c));
  EXPECT_EQ(Bytes(decoded.result), Bytes(r));
}

TEST(SweepCoordinatorTest, CleanBatchBitwiseIdenticalToSerial) {
  const std::vector<NetworkSimConfig> points = TestBatch();
  const std::vector<NetworkSimResult> serial = SerialReference(points);

  for (const int workers : {1, 3}) {
    SweepCoordinator coordinator(TestPolicy(workers));
    const SweepExecResult exec = coordinator.Run(points);
    ASSERT_EQ(exec.results.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
      EXPECT_EQ(Bytes(exec.results[i]), Bytes(serial[i])) << "point " << i;
      EXPECT_TRUE(exec.points[i].isolated);
      EXPECT_FALSE(exec.points[i].in_process_fallback);
      EXPECT_EQ(exec.points[i].attempts, 1);
      EXPECT_EQ(exec.points[i].last_failure, ExecFailure::kNone);
    }
    EXPECT_GE(exec.workers_spawned, 1u);
    EXPECT_EQ(exec.crashes, 0u);
    EXPECT_EQ(exec.timeouts, 0u);
    EXPECT_EQ(exec.retries, 0u);
    EXPECT_EQ(exec.exhausted_points, 0u);
  }
}

TEST(SweepCoordinatorTest, CrashPointIsClassifiedRetriedAndIsolated) {
  const std::vector<NetworkSimConfig> points = TestBatch();
  const std::vector<NetworkSimResult> serial = SerialReference(points);

  ScopedEnv crash("VIXNOC_TEST_CRASH_POINT", "2");
  ExecPolicy policy = TestPolicy(2);
  policy.max_retries = 2;
  SweepCoordinator coordinator(policy);
  const SweepExecResult exec = coordinator.Run(points);

  // The poisoned point got a final error slot after exhausting retries.
  ASSERT_EQ(exec.results.size(), points.size());
  EXPECT_EQ(exec.results[2].outcome.status, SimStatus::kExecFailure);
  EXPECT_NE(exec.results[2].outcome.message.find("signal"),
            std::string::npos)
      << exec.results[2].outcome.message;
  EXPECT_EQ(exec.points[2].last_failure, ExecFailure::kSignal);
  EXPECT_EQ(exec.points[2].attempts, 3);  // 1 try + 2 retries
  EXPECT_GT(exec.points[2].backoff_seconds, 0.0);
  EXPECT_EQ(exec.crashes, 3u);
  EXPECT_EQ(exec.retries, 2u);
  EXPECT_EQ(exec.exhausted_points, 1u);
  // Each crash killed a worker, so the pool respawned at least that many.
  EXPECT_GE(exec.workers_spawned, 3u);

  // Every healthy point survived, bitwise identical to the serial run.
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (i == 2) continue;
    EXPECT_EQ(Bytes(exec.results[i]), Bytes(serial[i])) << "point " << i;
    EXPECT_TRUE(exec.points[i].isolated);
  }
}

TEST(SweepCoordinatorTest, CrashOnceThenSucceedOnRetry) {
  const std::vector<NetworkSimConfig> points = TestBatch(4);
  const std::vector<NetworkSimResult> serial = SerialReference(points);

  // Hook fires only while attempt < 1: the first try aborts, the retry
  // (on a respawned worker) succeeds.
  ScopedEnv crash("VIXNOC_TEST_CRASH_POINT", "1:1");
  ExecPolicy policy = TestPolicy(2);
  policy.max_retries = 2;
  SweepCoordinator coordinator(policy);
  const SweepExecResult exec = coordinator.Run(points);

  EXPECT_EQ(exec.points[1].attempts, 2);
  EXPECT_EQ(exec.points[1].last_failure, ExecFailure::kSignal);
  EXPECT_TRUE(exec.points[1].isolated);
  EXPECT_GT(exec.points[1].backoff_seconds, 0.0);
  EXPECT_EQ(exec.retries, 1u);
  EXPECT_EQ(exec.crashes, 1u);
  EXPECT_EQ(exec.exhausted_points, 0u);
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(Bytes(exec.results[i]), Bytes(serial[i])) << "point " << i;
  }
}

TEST(SweepCoordinatorTest, HangPointIsKilledAndClassifiedTimeout) {
  const std::vector<NetworkSimConfig> points = TestBatch(4);
  const std::vector<NetworkSimResult> serial = SerialReference(points);

  ScopedEnv hang("VIXNOC_TEST_HANG_POINT", "0");
  ExecPolicy policy = TestPolicy(2);
  policy.point_timeout_seconds = 0.4;
  policy.max_retries = 1;
  SweepCoordinator coordinator(policy);
  const SweepExecResult exec = coordinator.Run(points);

  EXPECT_EQ(exec.results[0].outcome.status, SimStatus::kExecFailure);
  EXPECT_EQ(exec.points[0].last_failure, ExecFailure::kTimeout);
  EXPECT_NE(exec.points[0].failure_detail.find("deadline"),
            std::string::npos)
      << exec.points[0].failure_detail;
  EXPECT_EQ(exec.points[0].attempts, 2);
  EXPECT_EQ(exec.timeouts, 2u);
  EXPECT_EQ(exec.exhausted_points, 1u);
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_EQ(Bytes(exec.results[i]), Bytes(serial[i])) << "point " << i;
  }
  // The kill shows up in the worker lifecycle events.
  bool saw_kill = false;
  for (const WorkerEvent& ev : exec.events) {
    saw_kill = saw_kill || ev.kind == WorkerEvent::Kind::kKill;
  }
  EXPECT_TRUE(saw_kill);
}

TEST(SweepCoordinatorTest, NonzeroExitIsClassifiedExit) {
  const std::vector<NetworkSimConfig> points = TestBatch(3);
  ScopedEnv exit_hook("VIXNOC_TEST_EXIT_POINT", "0");
  ExecPolicy policy = TestPolicy(1);
  policy.max_retries = 0;
  SweepCoordinator coordinator(policy);
  const SweepExecResult exec = coordinator.Run(points);
  EXPECT_EQ(exec.points[0].last_failure, ExecFailure::kExit);
  EXPECT_NE(exec.points[0].failure_detail.find("exit status 41"),
            std::string::npos)
      << exec.points[0].failure_detail;
  EXPECT_EQ(exec.results[0].outcome.status, SimStatus::kExecFailure);
  EXPECT_EQ(exec.crashes, 1u);
}

TEST(SweepCoordinatorTest, ShortFrameIsClassifiedBadFrame) {
  const std::vector<NetworkSimConfig> points = TestBatch(3);
  ScopedEnv bad("VIXNOC_TEST_BADFRAME_POINT", "1");
  ExecPolicy policy = TestPolicy(1);
  policy.max_retries = 0;
  SweepCoordinator coordinator(policy);
  const SweepExecResult exec = coordinator.Run(points);
  EXPECT_EQ(exec.points[1].last_failure, ExecFailure::kBadFrame);
  EXPECT_EQ(exec.results[1].outcome.status, SimStatus::kExecFailure);
  EXPECT_EQ(exec.bad_frames, 1u);
}

TEST(SweepCoordinatorTest, SpawnFailureDegradesToInProcess) {
  const std::vector<NetworkSimConfig> points = TestBatch(4);
  const std::vector<NetworkSimResult> serial = SerialReference(points);

  ExecPolicy policy = TestPolicy(2);
  policy.worker_path = "/nonexistent/vixnoc_sweep_worker";
  SweepCoordinator coordinator(policy);
  const SweepExecResult exec = coordinator.Run(points);

  EXPECT_GE(exec.spawn_failures, 1u);
  EXPECT_EQ(exec.fallback_points, points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_TRUE(exec.points[i].in_process_fallback);
    EXPECT_FALSE(exec.points[i].isolated);
    EXPECT_EQ(exec.points[i].last_failure, ExecFailure::kSpawn);
    EXPECT_EQ(Bytes(exec.results[i]), Bytes(serial[i])) << "point " << i;
  }
}

TEST(SweepCoordinatorTest, TopologyFactoryPointRunsInProcess) {
  std::vector<NetworkSimConfig> points = TestBatch(4);
  points[2].topology_factory = [] { return MakeMesh(4, 4); };
  const std::vector<NetworkSimResult> serial = SerialReference(points);

  SweepCoordinator coordinator(TestPolicy(2));
  const SweepExecResult exec = coordinator.Run(points);
  EXPECT_TRUE(exec.points[2].in_process_fallback);
  EXPECT_EQ(exec.fallback_points, 1u);
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(Bytes(exec.results[i]), Bytes(serial[i])) << "point " << i;
    if (i != 2) {
      EXPECT_TRUE(exec.points[i].isolated);
    }
  }
}

TEST(SweepCoordinatorTest, CheckpointCacheServesCompletedPoints) {
  const std::vector<NetworkSimConfig> points = TestBatch(4);
  const std::string dir = FreshDir("cache");

  ExecPolicy policy = TestPolicy(2);
  policy.cache = std::make_shared<ResultStore>(dir);
  const SweepExecResult first = SweepCoordinator(policy).Run(points);
  ASSERT_EQ(CountOrigin(first.origins, PointOrigin::kCache), 0u);

  // A fresh coordinator over the same directory serves everything from
  // cache without spawning a single worker.
  const SweepExecResult second = SweepCoordinator(policy).Run(points);
  EXPECT_EQ(CountOrigin(second.origins, PointOrigin::kCache), points.size());
  EXPECT_EQ(second.workers_spawned, 0u);
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(second.origins[i], PointOrigin::kCache);
    EXPECT_EQ(Bytes(second.results[i]), Bytes(first.results[i]));
  }

  // Interop: SweepRunner reads the same content-addressed store, so the
  // in-process path resumes from a coordinator-written cache too.
  SweepRunner runner(2);
  runner.SetCache(std::make_shared<ResultStore>(dir));
  const std::vector<NetworkSimResult> resumed = runner.Run(points);
  EXPECT_EQ(runner.resumed_points(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(Bytes(resumed[i]), Bytes(first.results[i]));
  }
  std::filesystem::remove_all(dir);
}

TEST(SweepCoordinatorTest, CrashedPointRecoversFromCacheAssistedRerun) {
  const std::vector<NetworkSimConfig> points = TestBatch(4);
  const std::vector<NetworkSimResult> serial = SerialReference(points);
  const std::string dir = FreshDir("crash_cache");

  ExecPolicy policy = TestPolicy(2);
  policy.cache = std::make_shared<ResultStore>(dir);
  policy.max_retries = 1;
  {
    // First run: point 3 crashes out; the healthy points land in cache.
    ScopedEnv crash("VIXNOC_TEST_CRASH_POINT", "3");
    const SweepExecResult exec = SweepCoordinator(policy).Run(points);
    EXPECT_EQ(exec.results[3].outcome.status, SimStatus::kExecFailure);
    EXPECT_EQ(exec.exhausted_points, 1u);
  }
  // Re-run after the "bug is fixed" (hook cleared): only the crashed
  // point is simulated, everything else is a cheap cache hit.
  const SweepExecResult rerun = SweepCoordinator(policy).Run(points);
  EXPECT_EQ(CountOrigin(rerun.origins, PointOrigin::kCache),
            points.size() - 1);
  EXPECT_EQ(rerun.exhausted_points, 0u);
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(Bytes(rerun.results[i]), Bytes(serial[i])) << "point " << i;
  }
  std::filesystem::remove_all(dir);
}

TEST(SweepCoordinatorTest, WithinBatchDuplicatesRunOnceAndFanOut) {
  const std::vector<NetworkSimConfig> abc = TestBatch(3);
  const std::vector<NetworkSimConfig> points = {abc[0], abc[1], abc[0],
                                                abc[0], abc[2]};
  const std::vector<NetworkSimResult> serial = SerialReference(points);
  const std::string dir = FreshDir("dedup");

  auto store = std::make_shared<ResultStore>(dir);
  ExecPolicy policy = TestPolicy(2);
  policy.cache = store;
  const SweepExecResult exec = SweepCoordinator(policy).Run(points);
  EXPECT_EQ(CountOrigin(exec.origins, PointOrigin::kDuplicate), 2u);
  EXPECT_EQ(exec.origins[2], PointOrigin::kDuplicate);
  EXPECT_EQ(exec.origins[3], PointOrigin::kDuplicate);
  EXPECT_EQ(store->stats().writes, 3u);
  ASSERT_EQ(exec.results.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(Bytes(exec.results[i]), Bytes(serial[i])) << "point " << i;
  }
  std::filesystem::remove_all(dir);
}

/// A PointCache that logs every call with its thread and hits only for the
/// points it was seeded with.
class RecordingCache : public PointCache {
 public:
  struct Call {
    bool put = false;
    std::uint64_t key = 0;
    std::thread::id thread;
  };

  void Seed(const NetworkSimConfig& config, NetworkSimResult result) {
    hits_[NetworkSimResultKey(config)] = std::move(result);
  }

  PointCacheStatus Load(const NetworkSimConfig& config,
                        NetworkSimResult* out) override {
    const std::uint64_t key = NetworkSimResultKey(config);
    std::lock_guard<std::mutex> lock(mu_);
    calls_.push_back(Call{false, key, std::this_thread::get_id()});
    const auto it = hits_.find(key);
    if (it == hits_.end()) return PointCacheStatus::kMiss;
    *out = it->second;
    return PointCacheStatus::kHit;
  }

  void Put(const NetworkSimConfig& config, const NetworkSimResult&) override {
    std::lock_guard<std::mutex> lock(mu_);
    calls_.push_back(
        Call{true, NetworkSimResultKey(config), std::this_thread::get_id()});
  }

  std::vector<Call> calls() const {
    std::lock_guard<std::mutex> lock(mu_);
    return calls_;
  }

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, NetworkSimResult> hits_;
  std::vector<Call> calls_;
};

// The cache contract both backends share, which perfbench's PointClock
// times points by: every executed point is Loaded and then Put on the one
// thread that ran it, a cache hit is never Put, and every Put has happened
// by the time Run returns.
TEST(SweepPipelineTest, CacheLoadAndPutBracketEachPointOnItsThread) {
  const std::vector<NetworkSimConfig> points = TestBatch(4);
  const std::size_t hit = 1;
  for (const bool isolated : {false, true}) {
    SCOPED_TRACE(isolated ? "SweepCoordinator" : "SweepRunner");
    auto cache = std::make_shared<RecordingCache>();
    cache->Seed(points[hit], RunNetworkSim(points[hit]));
    std::vector<RecordingCache::Call> calls;
    if (isolated) {
      ExecPolicy policy = TestPolicy(2);
      policy.cache = cache;
      SweepCoordinator(policy).Run(points);
      calls = cache->calls();
    } else {
      SweepRunner runner(2);
      runner.SetCache(cache);
      runner.Run(points);
      calls = cache->calls();
    }
    for (std::size_t i = 0; i < points.size(); ++i) {
      SCOPED_TRACE(testing::Message() << "point " << i);
      const std::uint64_t key = NetworkSimResultKey(points[i]);
      std::vector<std::size_t> loads, puts;
      for (std::size_t k = 0; k < calls.size(); ++k) {
        if (calls[k].key == key) (calls[k].put ? puts : loads).push_back(k);
      }
      ASSERT_EQ(loads.size(), 1u);
      if (i == hit) {
        EXPECT_TRUE(puts.empty());
        continue;
      }
      ASSERT_EQ(puts.size(), 1u);
      EXPECT_LT(loads[0], puts[0]);
      EXPECT_EQ(calls[loads[0]].thread, calls[puts[0]].thread);
    }
  }
}

}  // namespace
}  // namespace vixnoc
