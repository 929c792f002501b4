// SimDaemon: the long-running simulation service behind vixnocd.
//
// One daemon owns a Unix-domain listening socket, a content-addressed
// ResultStore, and a SweepRunner compute pool. Per request:
//
//   store hit       -> served immediately, no pool involvement;
//   miss            -> the point is submitted to the pool once (the
//                      runner's per-point path, with no cache: the probe
//                      and the write-back are the daemon's); concurrent
//                      requests for the same NetworkSimResultKey join the
//                      in-flight computation (single-flight: N clients
//                      asking for one missing point trigger exactly one
//                      simulation), and the finished result lands in the
//                      store before anyone is woken;
//   pool saturated  -> when distinct in-flight keys reach max_queue the
//                      request gets an explicit retry-after reply instead
//                      of joining an unbounded pileup (joining an existing
//                      key is always allowed — it adds no work).
//
// Shutdown (SIGTERM via RequestStop, a shutdown frame, or Stop) drains:
// the listener closes first, in-flight computations and busy requests
// finish and their replies are written, then connections are torn down.
// RequestStop is a single atomic store, safe from a signal handler.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>

#include "server/server_protocol.hpp"
#include "sim/sweep.hpp"
#include "store/result_store.hpp"

namespace vixnoc {

/// Largest request frame a daemon connection accepts, far below the
/// transport's kMaxFrameBytes. A vixd_batch costs about 264 bytes per
/// config, so this still holds batches of some 250,000 points, well past
/// any sweep grid. A connection whose length prefix claims more is closed
/// before any payload is read.
inline constexpr std::uint64_t kMaxRequestFrameBytes = 64ull << 20;

struct DaemonConfig {
  /// Unix-domain socket path; created on Start, unlinked on Stop. A stale
  /// file from a crashed daemon is unlinked before bind.
  std::string socket_path;
  /// Result store root directory.
  std::string store_dir;
  /// Store GC bound (0 = unbounded), see ResultStoreConfig::max_bytes.
  std::uint64_t store_max_bytes = 0;
  /// Compute pool size; ResolveThreadCount convention (0 = auto).
  int threads = 0;
  /// Bound on distinct in-flight computations before new misses are told
  /// to retry.
  std::size_t max_queue = 64;
  /// Hint returned with retry-after replies.
  double retry_after_seconds = 0.05;
  /// Test hook: sleep this long in the compute pool's execute step, before
  /// each miss is simulated (so before its result exists or is published),
  /// widening the single-flight window so coalescing and backpressure are
  /// deterministic to test. 0 in production.
  int test_compute_delay_ms = 0;
};

class SimDaemon {
 public:
  /// Validates the config and opens the store (throws SimError on an
  /// unusable store directory). The socket is not touched until Start.
  explicit SimDaemon(DaemonConfig config);
  ~SimDaemon();  ///< Stop()s if still running

  SimDaemon(const SimDaemon&) = delete;
  SimDaemon& operator=(const SimDaemon&) = delete;

  const DaemonConfig& config() const { return config_; }

  /// Binds + listens on the socket and starts the accept thread. Throws
  /// SimError when the socket cannot be created.
  void Start();

  /// Graceful shutdown: stop accepting, drain in-flight computations and
  /// busy requests (their replies are still delivered), disconnect
  /// clients, join, unlink the socket. Idempotent; not called from
  /// connection threads (a shutdown frame uses RequestStop instead).
  void Stop();

  /// Flags the daemon to stop. Lock-free single atomic store — safe from
  /// a signal handler. Takes effect through Wait (or a manual Stop).
  void RequestStop() { stop_requested_.store(true, std::memory_order_relaxed); }
  bool stop_requested() const {
    return stop_requested_.load(std::memory_order_relaxed);
  }

  /// Blocks until RequestStop fires (SIGTERM handler or shutdown frame),
  /// then runs the graceful Stop. Returns 0. This is vixnocd's main loop.
  int Wait();

  DaemonStats stats() const;

 private:
  struct Inflight {
    bool done = false;
    NetworkSimResult result;
  };
  struct ComputeHandle {
    std::shared_ptr<Inflight> inflight;  ///< null when not computing
    bool submitter = false;
  };

  void AcceptLoop();
  void ServeConnection(int fd);
  /// Serves a batch. A config that sets a checkpoint or restore field gets
  /// a kError reply naming it.
  std::vector<PointReply> ServeBatch(
      const std::vector<NetworkSimConfig>& configs);
  /// Probes the store and, on a miss, begins or joins a computation.
  /// Returns a handle to await, or none when *out is already final
  /// (hit / retry-after / error).
  ComputeHandle BeginPoint(const NetworkSimConfig& config, PointReply* out);
  void AwaitPoint(const ComputeHandle& handle, PointReply* out);

  DaemonConfig config_;
  std::shared_ptr<ResultStore> store_;
  std::unique_ptr<SweepRunner> runner_;

  int listen_fd_ = -1;
  std::thread accept_thread_;
  std::atomic<bool> stop_requested_{false};

  mutable std::mutex mu_;
  std::condition_variable cv_;  // inflight completion + drain + connection
  bool started_ = false;
  bool stopping_ = false;  // no new computations; misses get retry-after
  bool stopped_ = false;
  std::map<std::uint64_t, std::shared_ptr<Inflight>> inflight_;
  std::set<int> conn_fds_;
  std::size_t active_connections_ = 0;
  std::size_t busy_requests_ = 0;  // read off the wire, reply not yet sent

  // Counters (under mu_).
  DaemonStats counters_;
};

}  // namespace vixnoc
