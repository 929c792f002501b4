// SweepCoordinator: crash-isolated multi-process execution of sweeps.
//
// SweepRunner (sim/sweep.hpp) already survives *exceptions* in a point,
// but a hard crash — a segfault, an abort, an OOM kill — or a runaway
// simulation still takes down the whole orchestrating process. The
// coordinator closes that gap by running points in a pool of
// vixnoc_sweep_worker subprocesses (exec/exec_protocol.hpp wire format):
//
//  * one point in flight per worker (natural backpressure);
//  * a per-point wall-clock deadline enforced by the coordinator — an
//    overrunning worker is SIGKILLed and the point classified kTimeout;
//  * worker failure detected and classified (nonzero exit, death by
//    signal, malformed/short result frame, deadline exceeded, spawn
//    failure) into a structured per-point ExecStatus;
//  * failed points retried inline on the same slot, on a respawned
//    worker, after a bounded exponential backoff (0.05 s * 2^k, capped at
//    2 s) slept on that slot, up to ExecPolicy::max_retries times;
//  * graceful degradation: a point no worker can run (no worker binary,
//    spawning broken, a topology_factory config) runs in-process on the
//    same slot; a point that exhausts its retries gets a final error slot
//    (SimStatus::kExecFailure) instead of wedging the batch.
//
// The coordinator is a SweepRunner whose execute step is "run this point
// on my slot's worker": within-batch dedup, the result-store probe and
// write-back (ExecPolicy::cache), the fan-out of duplicates and the
// per-slot origin record are the runner's, exactly as for an in-process
// sweep.
//
// Determinism contract: results are merged in submission order, and every
// point that completes — in a worker, from cache, or via the in-process
// fallback — is the output of the same deterministic RunNetworkSim, so a
// batch's surviving results are bitwise identical to a serial in-process
// sweep at any worker count. exec_test.cpp pins this, with injected
// crashes and hangs in the mix.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/network_sim.hpp"
#include "sim/sweep.hpp"

namespace vixnoc {

/// Classification of the most recent subprocess-level failure of a point.
enum class ExecFailure : std::uint8_t {
  kNone,      ///< never failed at the process level
  kExit,      ///< worker exited with a nonzero status
  kSignal,    ///< worker died by signal (segfault, abort, OOM kill)
  kBadFrame,  ///< worker produced a malformed, short or mismatched frame
  kTimeout,   ///< point exceeded its wall-clock deadline (worker killed)
  kSpawn,     ///< a worker subprocess could not be spawned at all
};

std::string ToString(ExecFailure failure);

/// Per-point execution record, parallel to the results vector. This is
/// provenance the SimOutcome cannot carry: *how* the point was executed,
/// how many process-level attempts it took, and what the last failure was.
/// Cache hits and duplicates are recorded in SweepExecResult::origins.
struct ExecStatus {
  bool isolated = false;     ///< completed inside a worker subprocess
  bool in_process_fallback = false;  ///< ran on the in-process path
  int attempts = 0;          ///< subprocess attempts dispatched
  ExecFailure last_failure = ExecFailure::kNone;
  std::string failure_detail;       ///< e.g. "signal 11 (Segmentation fault)"
  double backoff_seconds = 0.0;     ///< total retry backoff slept
};

/// Worker lifecycle event, recorded for provenance (bench_results.json).
struct WorkerEvent {
  enum class Kind : std::uint8_t {
    kSpawn,  ///< a worker subprocess started
    kExit,   ///< a worker was reaped after dying on its own
    kKill,   ///< the coordinator killed a worker (timeout / bad frame)
  };
  Kind kind = Kind::kSpawn;
  int slot = 0;       ///< worker slot (0..num_workers-1)
  long pid = 0;
  std::string detail; ///< cause ("point 3 timeout after 0.5s", exit status)
};

std::string ToString(WorkerEvent::Kind kind);

struct ExecPolicy {
  /// Worker subprocess count; ResolveThreadCount convention (0 = auto).
  int num_workers = 0;
  /// Worker binary; empty = DefaultWorkerPath() resolution.
  std::string worker_path;
  /// Per-attempt wall-clock deadline for one point; 0 disables.
  double point_timeout_seconds = 0.0;
  /// Process-level retries after the first attempt before the point is
  /// given a final error slot.
  int max_retries = 2;
  /// Per-point result cache shared with SweepRunner (normally a
  /// content-addressed ResultStore, store/result_store.hpp), probed and
  /// written back by the runner on the slot thread that runs the point.
  /// Null disables caching.
  std::shared_ptr<PointCache> cache;
};

struct SweepExecResult {
  std::vector<NetworkSimResult> results;  ///< submission order
  std::vector<ExecStatus> points;         ///< parallel to results
  /// The runner's per-slot origin record (executed, cache hit, duplicate),
  /// parallel to results.
  std::vector<PointOrigin> origins;
  std::vector<WorkerEvent> events;

  // Batch-level tallies (sums over points/events).
  std::uint64_t crashes = 0;        ///< kExit + kSignal failures observed
  std::uint64_t timeouts = 0;
  std::uint64_t bad_frames = 0;
  std::uint64_t spawn_failures = 0;
  std::uint64_t retries = 0;        ///< re-dispatches after a failure
  std::uint64_t workers_spawned = 0;
  std::uint64_t exhausted_points = 0;  ///< final kExecFailure error slots
  std::uint64_t fallback_points = 0;   ///< completed in-process
  /// The runner's defective_cache_points(): cache entries found unreadable
  /// and re-run.
  std::uint64_t defective_cache_points = 0;

  /// Appends a later batch: its results, points, origins and events
  /// follow this one's and every tally adds up, so a caller running many
  /// batches keeps one record of them all.
  SweepExecResult& operator+=(SweepExecResult later);
};

/// Resolves the worker binary: $VIXNOC_SWEEP_WORKER if set, else a
/// vixnoc_sweep_worker next to the current executable or in the build
/// tree's src/app/ relative to it. Returns "" when nothing executable is
/// found (the coordinator then degrades to the in-process path).
std::string DefaultWorkerPath();

class SweepCoordinator {
 public:
  explicit SweepCoordinator(ExecPolicy policy);

  /// Resolved policy (worker count and worker path filled in).
  const ExecPolicy& policy() const { return policy_; }

  /// Runs every point and blocks until all have a result slot, then reaps
  /// the batch's workers. Never throws for per-point or per-worker
  /// failures; only for coordinator bugs (VIXNOC_CHECK).
  SweepExecResult Run(const std::vector<NetworkSimConfig>& configs);

 private:
  ExecPolicy policy_;
};

}  // namespace vixnoc
