// The three perfbench workloads: their seeded inputs and their timed rounds.
//
// A run repeats a workload's fixed unit of work ("round") until the run's
// seconds are spent. Every round sets its backend up from scratch (that is
// what setup_s measures), does the work, checks every output, and tears the
// backend down, so rounds are independent samples and a run reports medians
// over them. See README.md for why each workload exists.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core.hpp"
#include "server/client.hpp"
#include "server/server_protocol.hpp"
#include "sim/network_sim.hpp"
#include "sim/sweep.hpp"
#include "tracer.hpp"

namespace vixnoc::perfbench {

/// The seed at which committed expected digests apply.
inline constexpr std::uint64_t kDefaultSeed = 1;

/// Concurrency a workload puts on the host; the sum must fit in nproc.
struct WorkloadShape {
  std::string name;
  int threads = 0;  ///< in-process compute threads (this process or the daemon pool)
  int workers = 0;  ///< worker subprocesses
  int clients = 0;  ///< client connections
  int Total() const { return threads + workers + clients; }
};

const std::vector<WorkloadShape>& Workloads();
/// Null when `name` is not a workload.
const WorkloadShape* FindWorkload(const std::string& name);

/// Paths and limits of one run. Paths are relative to the checkout root,
/// which is the working directory.
struct Env {
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  std::string worker_path;  ///< vixnoc_sweep_worker binary
  std::string daemon_path;  ///< vixnocd binary
  std::string work_dir;     ///< private scratch directory for this run
};

// ---- Inputs (pure functions of the seed) ---------------------------------

/// Simulated network cycles of one point: warmup + measure + drain.
std::uint64_t SimulatedCycles(const NetworkSimConfig& config);

/// mesh x {IF, WF, AP, VIX, SERENADE} + fbfly x {IF, VIX}, at each of the
/// workload's rates, with several seeds per cell (42 and 56 points).
std::vector<NetworkSimConfig> SaturatedGrid(std::uint64_t seed);
std::vector<NetworkSimConfig> LowLoadGrid(std::uint64_t seed);

/// The service workload's distinct short mesh points and the request
/// stream over them (indices into `points`). The stream touches every
/// point; a point's first touch is a miss, some first touches are asked
/// twice back to back (so the two clients coalesce), and repeats follow a
/// Zipf popularity by first-touch order.
struct ServiceInputs {
  std::vector<NetworkSimConfig> points;
  std::vector<std::uint32_t> stream;
};
ServiceInputs MakeServiceInputs(std::uint64_t seed);

/// One minimal point per backend slot: proves the pool or workers ready
/// without doing measurable work.
std::vector<NetworkSimConfig> PrimeConfigs(int count);

/// The committed digest of every simulated field of a workload's round
/// (batch order for sweeps, point order for the service) at kDefaultSeed;
/// nullopt for other seeds.
std::optional<std::uint64_t> ExpectedDigest(const std::string& workload,
                                            std::uint64_t seed);

// ---- Rounds ----------------------------------------------------------------

/// Per-run accumulation over rounds.
struct RoundStats {
  int rounds = 0;
  std::vector<double> setup_s;
  std::vector<double> host_speed;  ///< HostSpeed before each round
  std::vector<double> cycles_per_s;
  std::vector<double> requests_per_s;
  std::vector<double> latency_s;       ///< per point or request
  std::vector<double> hit_latency_s;   ///< service: answered from the store
  std::vector<double> miss_latency_s;  ///< service: simulated for the request
  /// The workload's distinct points and the last round's results for them.
  std::vector<NetworkSimConfig> configs;
  std::vector<NetworkSimResult> results;
  /// Digest of the first round; later rounds must reproduce it.
  std::optional<std::uint64_t> digest;
  std::uint64_t exec_retries = 0;          ///< summed over rounds
  std::uint64_t exec_fallback_points = 0;  ///< summed over rounds
  DaemonStats daemon;  ///< service: summed over rounds
};

/// Runs `workload` for at least `seconds` (and its minimum round count),
/// adding to `stats` and `tally`. With a tracer, records spans around every
/// layer call the rounds make.
void RunWorkload(const std::string& workload, const Env& env, double seconds,
                 Tracer* tracer, RoundStats* stats, Tally* tally);

/// When each point of one batch ran, read through the PointCache hooks that
/// both sweep backends call: a cache that never hits. SweepRunner calls
/// Load on the thread about to run the point and Put as soon as its result
/// exists; SweepCoordinator calls Load in its pre-pass and Put on the worker
/// slot's thread as the result frame arrives. A point starts at the later
/// of its Load and the previous Put on the same thread: exactly when it
/// started on the runner, and when its slot became free on the coordinator.
/// Configs outside the batch (a backend's priming points) are ignored.
class PointClock : public PointCache {
 public:
  struct Span {
    std::size_t index = 0;  ///< position in the batch
    Clock::time_point start;
    Clock::time_point end;
  };

  explicit PointClock(const std::vector<NetworkSimConfig>& batch);

  PointCacheStatus Load(const NetworkSimConfig& config,
                        NetworkSimResult* out) override;
  void Put(const NetworkSimConfig& config,
           const NetworkSimResult& result) override;

  /// Every finished point, in completion order.
  std::vector<Span> Spans() const;

 private:
  std::unordered_map<std::uint64_t, std::size_t> index_;  // by result key
  mutable std::mutex mu_;
  std::vector<Clock::time_point> loaded_;
  std::map<std::thread::id, Clock::time_point> last_put_;
  std::vector<Span> spans_;
};

/// One batch on a fresh in-process SweepRunner, the path saturated_sweep
/// measures, with one "sim.point" span per point under `parent`.
struct ProbeBatch {
  std::vector<NetworkSimResult> results;
  std::vector<PointClock::Span> points;
  double wall_s = 0.0;
};
ProbeBatch RunProbeBatch(const std::vector<NetworkSimConfig>& configs,
                         int threads, Tracer* tracer, std::int64_t parent);

/// A vixnocd subprocess with its own store, and client connections to it.
class DaemonProcess {
 public:
  /// Spawns the daemon with `threads` compute threads and connects
  /// `clients` clients. Throws SimError when it cannot be reached.
  DaemonProcess(const Env& env, const std::string& tag, int threads,
                int clients);
  ~DaemonProcess();  ///< shuts down (or kills) and reaps the daemon
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  SimClient& client(int i);
  /// Asks the daemon to drain and exit, and reaps it. Returns true when it
  /// exited with status 0.
  bool Shutdown();

 private:
  std::string dir_;
  long pid_ = -1;
  std::vector<std::unique_ptr<SimClient>> clients_;
};

}  // namespace vixnoc::perfbench
