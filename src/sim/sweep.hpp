// SweepRunner: multi-threaded execution of independent simulation points.
//
// Every figure in the paper is a sweep over (scheme x rate x topology)
// points, and each point is one self-contained RunNetworkSim call: the
// config carries its own seed, the simulation builds its own Network, and
// nothing escapes but the returned NetworkSimResult. That makes sweeps
// embarrassingly parallel — SweepRunner runs them on a fixed-size thread
// pool and returns results in submission order.
//
// Determinism: results are bitwise identical to calling RunNetworkSim
// serially on each point, regardless of thread count or completion order.
// This holds because (a) each point's RNG is seeded only from its config,
// (b) the simulation core keeps no shared mutable state (allocator and
// router scratch are per-instance members), and (c) results are written
// into a preallocated slot indexed by submission position. sweep_test.cpp
// and the TSAN build (-DVIXNOC_SANITIZE=thread) enforce this.
//
// Every point takes one path: a queued job that, on the pool thread,
// probes the cache, runs the execute step on a miss, writes the result
// back and calls its completion. Run is dedup by result key, one job per
// distinct point and the fan-out of duplicates; Submit is one job. The
// step is pluggable — SweepCoordinator (exec/coordinator.hpp) runs each
// point in a worker subprocess through it, and SimDaemon
// (server/daemon.hpp) runs its store misses through Submit.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/network_sim.hpp"

namespace vixnoc {

/// Largest worker count ResolveThreadCount will ever return: a fat-finger
/// guard (VIXNOC_THREADS=80000 would fork-bomb the host with threads or
/// worker subprocesses, not speed anything up).
inline constexpr int kMaxThreadCount = 1024;

/// Resolves a requested worker count to an actual one:
///  * requested >= 1: use exactly that many workers (capped, with a
///    warning, at kMaxThreadCount);
///  * requested == 0: use $VIXNOC_THREADS if set to a positive integer,
///    else std::thread::hardware_concurrency() (at least 1).
/// A malformed $VIXNOC_THREADS — trailing garbage, overflow, zero or
/// negative — is rejected with a warning on stderr naming the bad value
/// (never silently honored or silently ignored) before falling back to
/// hardware concurrency; values above kMaxThreadCount are capped with a
/// warning.
int ResolveThreadCount(int requested = 0);

/// Outcome of probing a per-point result cache.
enum class PointCacheStatus {
  kMiss,       ///< no cache entry: run the point
  kHit,        ///< *out holds the cached result
  kDefective,  ///< entry exists but is unreadable, corrupt, or was written
               ///< under a different result key — re-run the point
};

/// Abstract per-point result cache consulted by SweepRunner and the
/// process-isolation SweepCoordinator (exec/coordinator.hpp). The one
/// production implementation is the content-addressed ResultStore
/// (store/result_store.hpp); the interface lives here so the sim layer
/// does not depend on the store library.
///
/// Contract: Load returns kHit only when the cached result is the exact
/// result `config` would produce (implementations key on
/// NetworkSimResultKey and must validate on read — a defective entry
/// warns and reports kDefective, never poisons). Put must not throw: a
/// cache is an accelerator, and a full disk must not fail a sweep.
/// Implementations must be safe for concurrent calls from many threads.
class PointCache {
 public:
  virtual ~PointCache() = default;
  virtual PointCacheStatus Load(const NetworkSimConfig& config,
                                NetworkSimResult* out) = 0;
  virtual void Put(const NetworkSimConfig& config,
                   const NetworkSimResult& result) = 0;
};

/// Where a batch slot's result came from in the most recent Run.
enum class PointOrigin : std::uint8_t {
  kExecuted,   ///< run by the execute step (after a miss, with a cache set)
  kCache,      ///< loaded from the PointCache
  kDuplicate,  ///< copied from an earlier slot with the same result key
};

/// Slots of `origins` that came from `origin`.
std::size_t CountOrigin(const std::vector<PointOrigin>& origins,
                        PointOrigin origin);

class SweepRunner {
 public:
  /// The execute step: runs one point and returns its result, with
  /// failures as error slots (never exceptions). `index` is the point's
  /// batch position (0 for a Submit job) and `thread` the pool thread
  /// running it (0..num_threads-1), so a step can keep per-thread state
  /// such as a worker subprocess. A null step runs ExecutePoint.
  using ExecuteFn = std::function<NetworkSimResult(
      const NetworkSimConfig& config, std::size_t index, int thread)>;

  /// Starts the worker pool. `num_threads` follows ResolveThreadCount's
  /// convention (0 = auto).
  explicit SweepRunner(int num_threads = 0, ExecuteFn execute = nullptr);
  ~SweepRunner();

  SweepRunner(const SweepRunner&) = delete;
  SweepRunner& operator=(const SweepRunner&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Per-point result caching, making a killed sweep resumable and letting
  /// independent sweeps share work. Every job — a Run point or a Submit —
  /// is first looked up with PointCache::Load on the pool thread about to
  /// run it; on a miss the step runs and the same thread Puts the result
  /// as soon as it exists, before the job completes. A later job for the
  /// same point — same batch re-run, reordered grid, a different bench
  /// entirely — loads it instead of re-simulating. Because cached results
  /// were produced by the same deterministic RunNetworkSim, a resumed
  /// sweep's results are bitwise identical to an uninterrupted one. A
  /// defective cache entry falls back to running the point, with a
  /// warning and a tick of defective_cache_points(). Jobs already started
  /// keep the cache they started with.
  void SetCache(std::shared_ptr<PointCache> cache);

  /// Per-slot origin of the most recent Run, parallel to its results.
  const std::vector<PointOrigin>& origins() const { return origins_; }

  /// Points of the most recent Run that were satisfied from the cache
  /// instead of being simulated.
  std::size_t resumed_points() const {
    return CountOrigin(origins_, PointOrigin::kCache);
  }

  /// Points of the most recent Run whose cache entry existed but was
  /// defective (unreadable, corrupt, or key-mismatched) and was therefore
  /// ignored. A nonzero count means the cache is stale or damaged —
  /// results are still correct (the points re-ran), but the resume was
  /// not as cheap as it looked.
  std::size_t defective_cache_points() const { return defective_; }

  /// Points of the most recent Run that were within-batch duplicates of an
  /// earlier point (same NetworkSimResultKey): simulated once, with the
  /// result fanned out to every duplicate slot. Configs carrying live
  /// factory callbacks never dedupe (the key only records factory
  /// presence, not identity).
  std::size_t deduped_points() const {
    return CountOrigin(origins_, PointOrigin::kDuplicate);
  }

  /// Runs every point and blocks until all complete. results[i] is the
  /// point configs[i] would produce through a direct RunNetworkSim call.
  /// A point that throws (SimError from an invalid config, or any other
  /// std::exception) does not kill the worker or wedge the batch: its slot
  /// comes back with outcome.status == SimStatus::kInvariantViolation and
  /// the exception message, the remaining points run normally, and the
  /// pool accepts further batches. Only one Run may be in flight at a
  /// time (origins() describes the most recent one); Submit jobs share
  /// the queue with a running batch.
  std::vector<NetworkSimResult> Run(
      const std::vector<NetworkSimConfig>& configs);

  /// Queues one point as a job on the same pool, for callers (the vixnocd
  /// daemon) that schedule points one at a time rather than in batches.
  /// It takes Run's path — cache Load, the execute step, Put — and then
  /// `done` is invoked exactly once from a worker thread with the result;
  /// `done` must not block the worker for long and must not re-enter Run
  /// on the same thread. Submit jobs are not deduplicated and leave
  /// origins() alone. Jobs still pending at destruction are drained, not
  /// dropped: the destructor completes all submitted work first.
  void Submit(NetworkSimConfig config,
              std::function<void(NetworkSimResult)> done);

  /// RunNetworkSim with Run's exception-to-error-slot convention: the
  /// default execute step.
  static NetworkSimResult ExecutePoint(const NetworkSimConfig& config);

 private:
  /// One point: its config, the index handed to the step, and the
  /// completion that receives the result and how the cache answered.
  struct Job {
    NetworkSimConfig config;
    std::size_t index = 0;
    std::function<void(NetworkSimResult, PointCacheStatus)> done;
  };

  void WorkerLoop(int thread);

  std::vector<std::thread> workers_;
  ExecuteFn execute_;
  std::vector<PointOrigin> origins_;
  std::size_t defective_ = 0;

  std::mutex mu_;
  std::condition_variable work_cv_;  // workers wait for jobs / shutdown
  std::condition_variable done_cv_;  // Run waits for its batch's jobs
  bool stop_ = false;
  bool running_ = false;  // a Run is in flight
  std::shared_ptr<PointCache> cache_;
  std::deque<Job> jobs_;
};

/// One-shot convenience. With `num_threads` == 0 (the default) the batch
/// runs on a lazily created process-wide shared pool — callers that loop
/// over RunSweep no longer pay a thread-pool spawn/join per call. An
/// explicit thread count still gets a dedicated pool of exactly that size
/// (the determinism tests pin results across specific counts).
std::vector<NetworkSimResult> RunSweep(
    const std::vector<NetworkSimConfig>& configs, int num_threads = 0);

}  // namespace vixnoc
