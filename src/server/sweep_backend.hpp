// SweepBackend: where a sweep's points run — in-process, in crash-isolated
// worker subprocesses, or on a vixnocd daemon — behind one Run call.
//
// Which backend runs a point is an execution detail that never moves a
// number: every backend returns, slot for slot, the results a serial
// RunNetworkSim would produce. The sweep front ends (noc_explorer sweep=1
// and the sweep benches, through bench/sweep_util.hpp) parse the backend
// keys here, build one backend, and read back one cumulative record of
// how their points were satisfied.
//
//   SweepBackendOptions options;
//   if (!ParseSweepBackendArgs(args, &options)) return 2;
//   SweepBackend backend(options);  // throws SimError: no store / daemon
//   std::vector<NetworkSimResult> results = backend.Run(points);
//   std::fputs(backend.Summary().c_str(), stdout);
//
// By default points run on an in-process SweepRunner pool, over a
// ResultStore with checkpoint=DIR; isolate=process runs each batch on a
// SweepCoordinator (composable with checkpoint=); server=SOCK sends each
// batch to the vixnocd daemon at SOCK. kSweepBackendUsage lists the keys.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "exec/coordinator.hpp"

namespace vixnoc {

class SimClient;

/// The six backend keys, parsed.
struct SweepBackendOptions {
  int threads = 0;           ///< threads=: pool threads or worker count
  std::string checkpoint;    ///< checkpoint=: result store directory
  std::string server;        ///< server=: vixnocd socket
  bool isolate_process = false;  ///< isolate=process
  double point_timeout = 0.0;    ///< point_timeout= seconds; 0 disables
  int retries = 2;               ///< retries=: process-level retries
};

/// Usage lines for the six keys, for a front end's help text.
extern const char kSweepBackendUsage[];

/// Consumes threads= checkpoint= isolate= point_timeout= retries= server=
/// from `args` into `*options`. Returns false after printing why to stderr
/// (the caller exits 2) when isolate= is neither 'thread' nor 'process',
/// or when server= is combined with checkpoint= or isolate=process.
/// Parsing builds nothing, so a front end may read a key differently
/// outside a sweep (noc_explorer's single run takes checkpoint= as a
/// snapshot file).
bool ParseSweepBackendArgs(ArgMap& args, SweepBackendOptions* options);

/// Everything a backend has run, cumulative over its Run calls.
struct SweepRecord {
  /// Local backends: per-slot origins and defective store entries; with
  /// isolate=process also per-point ExecStatus, worker events and the
  /// exec tallies. `exec.results` stays empty: Run returns the results.
  SweepExecResult exec;
  /// server= only: how the daemon satisfied each point, and the slots
  /// re-sent after a retry-after reply.
  std::uint64_t store_hits = 0;
  std::uint64_t computed = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t reasks = 0;
};

class SweepBackend {
 public:
  /// Builds the chosen backend: opens the result store, starts the thread
  /// pool, or connects to the daemon once, so a path with no daemon
  /// behind it fails at once. Throws SimError when the store directory or
  /// the daemon is unusable.
  explicit SweepBackend(SweepBackendOptions options);
  ~SweepBackend();

  SweepBackend(const SweepBackend&) = delete;
  SweepBackend& operator=(const SweepBackend&) = delete;

  const SweepBackendOptions& options() const { return options_; }

  /// Local compute: pool threads or worker subprocesses. With server=
  /// there is no local pool, so this is the requested threads= (0 = auto).
  int threads() const { return threads_; }

  /// Runs one batch; results come back in submission order. A point the
  /// daemon does not serve comes back as a SimStatus::kExecFailure slot
  /// carrying the daemon's message.
  std::vector<NetworkSimResult> Run(
      const std::vector<NetworkSimConfig>& points);

  const SweepRecord& record() const { return record_; }

  /// The record as text, one line per fact worth reporting: the daemon's
  /// serve counts, process-level failures, points resumed from the store
  /// and defective store entries. Empty for a plain in-process sweep.
  std::string Summary() const;

 private:
  std::vector<NetworkSimResult> RunOnDaemon(
      const std::vector<NetworkSimConfig>& points);

  SweepBackendOptions options_;
  int threads_ = 0;
  std::shared_ptr<PointCache> store_;
  std::unique_ptr<SweepRunner> runner_;
  std::unique_ptr<SimClient> client_;
  SweepRecord record_;
};

}  // namespace vixnoc
