#include "workloads.hpp"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "exec/coordinator.hpp"

extern char** environ;

namespace vixnoc::perfbench {

namespace fs = std::filesystem;

namespace {

// Every workload keeps all four CPUs of the reference host busy. On a
// shared host each CPU's speed drifts on its own (a core whose SMT sibling
// is busy runs the same code up to 1.5x slower, for seconds at a time), and
// a 2-slot backend's figures then depend on which two CPUs it landed on.
// Measured run-to-run spread of network_cycles_per_s: 15-35% with 2
// threads; with 4, about 5% while the host is quiet (the rest is drift of
// the whole host, which no slot count removes).
constexpr int kSweepThreads = 4;
constexpr int kWorkers = 4;
constexpr int kDaemonThreads = 2;
constexpr int kClients = 2;

// Sweep points are short so a run holds several rounds; past the knee the
// network is full within a few hundred cycles.
constexpr Cycle kSweepWarmup = 500;
constexpr Cycle kSweepMeasure = 1500;
constexpr Cycle kSweepDrain = 500;

// Service points are shorter still: a miss must cost a few ms, not seconds.
constexpr Cycle kServiceWarmup = 200;
constexpr Cycle kServiceMeasure = 800;
constexpr Cycle kServiceDrain = 200;
constexpr std::size_t kServiceVariants = 8;  // seeds per (scheme, rate)
// Every fifth request is a first touch (a miss), a quarter of them asked
// twice. So 20-25% of requests wait on a simulation: p50 falls in the body
// of the store hits and p90 in the middle of the misses. With 5% misses,
// p90 sat on the knee of the hits' wake-up tail, where a slower host moved
// it by half from run to run.
constexpr std::size_t kServiceRequests = 600;
constexpr double kServiceDuplicateFirstTouch = 0.25;

// Seeds per (topology, scheme, rate) cell of a sweep grid. A batch's wall
// time ends with its slowest slot's last point; with several points per slot
// the pool balances itself and a slow CPU only takes fewer of them, so the
// batch follows the CPUs' mean speed rather than the slowest one's. With 21
// and 14 points (3-5 per slot) the run-to-run spread on a busy shared host
// was 25-31%.
constexpr std::size_t kSaturatedVariants = 2;  // 42 points, ~10 per thread
constexpr std::size_t kLowLoadVariants = 4;    // 56 points, 14 per worker

// Minimum rounds per run, so the pooled per-point latencies reach the p90
// rule (kMinTailSamples beyond it: 100 points) in a short run: 3 x 42 and
// 2 x 56 points.
constexpr int kSaturatedMinRounds = 3;
constexpr int kLowLoadMinRounds = 2;
constexpr int kServiceMinRounds = 1;
constexpr int kExtraSetups = 30;

const AllocScheme kMeshSchemes[] = {AllocScheme::kInputFirst,
                                    AllocScheme::kWavefront,
                                    AllocScheme::kAugmentingPath,
                                    AllocScheme::kVix, AllocScheme::kSerenade};
const AllocScheme kFbflySchemes[] = {AllocScheme::kInputFirst,
                                     AllocScheme::kVix};

std::uint64_t PointSeed(std::uint64_t seed, std::uint64_t index) {
  SplitMix64 sm(seed * 0x9e3779b97f4a7c15ull + index);
  return sm.Next() | 1;
}

NetworkSimConfig SweepPoint(TopologyKind topology, AllocScheme scheme,
                            double rate, std::uint64_t seed) {
  NetworkSimConfig c;
  c.topology = topology;
  c.scheme = scheme;
  c.injection_rate = rate;
  c.seed = seed;
  c.warmup = kSweepWarmup;
  c.measure = kSweepMeasure;
  c.drain = kSweepDrain;
  return c;
}

// Later rounds must reproduce the committed digest (default seed) or, at any
// other seed, the first round's.
std::optional<std::uint64_t> RoundExpectation(const std::string& workload,
                                              const Env& env,
                                              const RoundStats& stats) {
  const std::optional<std::uint64_t> committed =
      ExpectedDigest(workload, env.seed);
  return committed ? committed : stats.digest;
}

void NoteDigest(std::uint64_t digest, RoundStats* stats) {
  if (!stats->digest) stats->digest = digest;
}

// One seed-independent cross-check: a sampled point computed by another
// backend must equal a direct in-process RunNetworkSim.
void CrossCheck(const NetworkSimConfig& config, const NetworkSimResult& got,
                const char* what, Tally* tally) {
  const bool same = ResultDigest(RunNetworkSim(config)) == ResultDigest(got);
  if (!same) {
    std::fprintf(stderr,
                 "perfbench: %s result differs from in-process RunNetworkSim\n",
                 what);
  }
  tally->Add(same);
}

// The figures a sweep round reports for its batch: throughput, and each
// point's latency from batch submission until its result existed. Traced,
// one span per point under the batch span.
void RecordBatch(const std::vector<NetworkSimConfig>& configs,
                 const PointClock& clock, Clock::time_point submitted,
                 double wall, const char* point_span, Tracer* tracer,
                 std::int64_t parent, RoundStats* stats) {
  std::uint64_t cycles = 0;
  for (const NetworkSimConfig& c : configs) cycles += SimulatedCycles(c);
  stats->cycles_per_s.push_back(static_cast<double>(cycles) / wall);
  stats->requests_per_s.push_back(static_cast<double>(configs.size()) / wall);
  for (const PointClock::Span& p : clock.Spans()) {
    stats->latency_s.push_back(SecondsBetween(submitted, p.end));
    if (tracer) tracer->Add(point_span, p.start, p.end, parent, p.index);
  }
}

// Backend start-up, shared by the rounds and the extra setup samples. The
// runner's pool is ready once one minimal point per thread has come back.
std::unique_ptr<SweepRunner> StartRunner(Tally* tally) {
  auto runner = std::make_unique<SweepRunner>(kSweepThreads);
  CheckBatch(runner->Run(PrimeConfigs(kSweepThreads)), std::nullopt, tally);
  return runner;
}

// SweepCoordinator spawns its workers inside every Run and reaps them when
// the batch ends, so no worker outlives a batch and there is no start-up to
// time on its own. Setup stands in with a batch of one minimal point per
// worker: every worker spawned, one frame round trip, every worker reaped.
// The measured batch then pays its own spawns, as each caller's Run does.
std::unique_ptr<SweepCoordinator> StartCoordinator(
    const Env& env, std::shared_ptr<PointCache> clock, Tally* tally) {
  ExecPolicy policy;
  policy.num_workers = kWorkers;
  policy.worker_path = env.worker_path;
  policy.point_timeout_seconds = 120.0;
  policy.cache = std::move(clock);
  auto coordinator = std::make_unique<SweepCoordinator>(policy);
  const SweepExecResult prime = coordinator->Run(PrimeConfigs(kWorkers));
  CheckBatch(prime.results, std::nullopt, tally);
  for (const ExecStatus& point : prime.points) tally->Add(point.isolated);
  return coordinator;
}

std::unique_ptr<DaemonProcess> StartDaemon(const Env& env,
                                           const std::string& tag) {
  return std::make_unique<DaemonProcess>(env, tag, kDaemonThreads, kClients);
}

// Setup samples beyond the rounds' own, so setup_s is a median over many
// start-ups even when a run holds few rounds.
void ExtraSetups(const std::string& workload, const Env& env,
                 RoundStats* stats, Tally* tally) {
  for (int i = 0; i < kExtraSetups; ++i) {
    const Clock::time_point t0 = Clock::now();
    if (workload == "saturated_sweep") {
      const auto runner = StartRunner(tally);
      stats->setup_s.push_back(SecondsSince(t0));
    } else if (workload == "lowload_isolated_sweep") {
      const auto coordinator = StartCoordinator(env, nullptr, tally);
      stats->setup_s.push_back(SecondsSince(t0));
    } else {
      const auto daemon = StartDaemon(env, "setup" + std::to_string(i));
      stats->setup_s.push_back(SecondsSince(t0));
      tally->Add(daemon->Shutdown());
    }
  }
}

void SaturatedRound(const Env& env, Tracer* tracer, RoundStats* stats,
                    Tally* tally) {
  const std::vector<NetworkSimConfig>& configs = stats->configs;
  ScopedSpan round(tracer, "round", Tracer::kNoParent, stats->rounds);
  const Clock::time_point t0 = Clock::now();
  std::unique_ptr<SweepRunner> runner;
  {
    ScopedSpan setup(tracer, "setup", round.id());
    runner = StartRunner(tally);
  }
  stats->setup_s.push_back(SecondsSince(t0));

  const auto clock = std::make_shared<PointClock>(configs);
  runner->SetCache(clock);
  std::vector<NetworkSimResult> results;
  std::int64_t batch_id = Tracer::kNoParent;
  const Clock::time_point t1 = Clock::now();
  {
    ScopedSpan batch(tracer, "sim.batch", round.id());
    batch_id = batch.id();
    results = runner->Run(configs);
  }
  RecordBatch(configs, *clock, t1, SecondsSince(t1), "sim.point", tracer,
              batch_id, stats);
  NoteDigest(CheckBatch(results, RoundExpectation("saturated_sweep", env,
                                                  *stats),
                        tally),
             stats);
  stats->results = std::move(results);
}

void LowLoadRound(const Env& env, Tracer* tracer, RoundStats* stats,
                  Tally* tally) {
  const std::vector<NetworkSimConfig>& configs = stats->configs;
  ScopedSpan round(tracer, "round", Tracer::kNoParent, stats->rounds);
  const auto clock = std::make_shared<PointClock>(configs);
  const Clock::time_point t0 = Clock::now();
  std::unique_ptr<SweepCoordinator> coordinator;
  {
    ScopedSpan setup(tracer, "setup", round.id());
    coordinator = StartCoordinator(env, clock, tally);
  }
  stats->setup_s.push_back(SecondsSince(t0));

  SweepExecResult exec;
  std::int64_t batch_id = Tracer::kNoParent;
  const Clock::time_point t1 = Clock::now();
  {
    ScopedSpan batch(tracer, "exec.batch", round.id());
    batch_id = batch.id();
    exec = coordinator->Run(configs);
  }
  RecordBatch(configs, *clock, t1, SecondsSince(t1), "exec.point", tracer,
              batch_id, stats);
  stats->exec_retries += exec.retries;
  stats->exec_fallback_points += exec.fallback_points;
  NoteDigest(CheckBatch(exec.results, RoundExpectation("lowload_isolated_sweep",
                                                       env, *stats),
                        tally),
             stats);
  // The workload measures isolated execution: a point that quietly ran
  // in-process (or came from a cache) did not.
  for (const ExecStatus& point : exec.points) tally->Add(point.isolated);
  if (stats->rounds == 0) {
    const std::size_t pick = env.seed % configs.size();
    CrossCheck(configs[pick], exec.results[pick], "isolated", tally);
  }
  stats->results = std::move(exec.results);
}

struct ServedRequest {
  Clock::time_point start;
  Clock::time_point end;
  bool transport_ok = false;
  PointReply reply;
};

void ServiceRound(const Env& env, const ServiceInputs& in, Tracer* tracer,
                  RoundStats* stats, Tally* tally) {
  ScopedSpan round(tracer, "round", Tracer::kNoParent, stats->rounds);
  const Clock::time_point t0 = Clock::now();
  std::unique_ptr<DaemonProcess> daemon;
  {
    ScopedSpan setup(tracer, "setup", round.id());
    daemon = StartDaemon(env, "round" + std::to_string(stats->rounds));
  }
  stats->setup_s.push_back(SecondsSince(t0));

  // Closed loop: each client sends the stream's next request only after its
  // previous reply arrived.
  std::vector<ServedRequest> served(in.stream.size());
  std::atomic<std::size_t> next{0};
  const Clock::time_point t1 = Clock::now();
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        SimClient& client = daemon->client(c);
        for (;;) {
          const std::size_t j = next.fetch_add(1);
          if (j >= in.stream.size()) break;
          ServedRequest& s = served[j];
          s.start = Clock::now();
          try {
            s.reply = client.PointWithRetry(in.points[in.stream[j]]);
            s.transport_ok = true;
          } catch (const SimError& e) {
            std::fprintf(stderr, "perfbench: request %zu: %s\n", j, e.what());
          }
          s.end = Clock::now();
        }
      });
    }
    for (std::thread& t : clients) t.join();
  }
  const double wall = SecondsSince(t1);
  const DaemonStats ds = daemon->client(0).Stats();
  const bool clean_exit = daemon->Shutdown();
  daemon.reset();

  // Every reply for a point must be bit-identical to the reply that
  // computed it.
  const std::size_t k = in.points.size();
  std::vector<std::optional<std::uint64_t>> computed(k);
  std::vector<NetworkSimResult> results(k);
  std::uint64_t computed_cycles = 0;
  for (std::size_t j = 0; j < served.size(); ++j) {
    const ServedRequest& s = served[j];
    if (s.transport_ok && s.reply.status == ServeStatus::kOk &&
        s.reply.source == ServeSource::kComputed) {
      const std::uint32_t key = in.stream[j];
      if (!computed[key]) {
        computed[key] = ResultDigest(s.reply.result);
        results[key] = s.reply.result;
        computed_cycles += SimulatedCycles(in.points[key]);
      }
    }
  }
  bool all_computed = true;
  for (const auto& d : computed) all_computed &= d.has_value();
  const std::uint64_t digest = BatchDigest(results);
  const std::optional<std::uint64_t> expected =
      RoundExpectation("service_mixed", env, *stats);
  const bool round_ok =
      all_computed && clean_exit && (!expected || *expected == digest);
  if (!round_ok) {
    std::fprintf(stderr,
                 "perfbench: service round failed (every point computed: %d, "
                 "clean daemon exit: %d, digest %s)\n",
                 all_computed, clean_exit, Hex(digest).c_str());
  }
  for (std::size_t j = 0; j < served.size(); ++j) {
    const ServedRequest& s = served[j];
    const std::uint32_t key = in.stream[j];
    const bool ok = round_ok && s.transport_ok &&
                    s.reply.status == ServeStatus::kOk && computed[key] &&
                    ResultDigest(s.reply.result) == *computed[key];
    tally->Add(ok);
    const double latency = SecondsBetween(s.start, s.end);
    stats->latency_s.push_back(latency);
    if (s.reply.source == ServeSource::kStore) {
      stats->hit_latency_s.push_back(latency);
    } else if (s.reply.source == ServeSource::kComputed) {
      stats->miss_latency_s.push_back(latency);
    }
    if (tracer) {
      tracer->Add(std::string("server.request.") + ToString(s.reply.source),
                  s.start, s.end, round.id(), j);
    }
  }
  NoteDigest(digest, stats);
  stats->requests_per_s.push_back(static_cast<double>(served.size()) / wall);
  stats->cycles_per_s.push_back(static_cast<double>(computed_cycles) / wall);
  stats->daemon.store_hits += ds.store_hits;
  stats->daemon.computed_points += ds.computed_points;
  stats->daemon.coalesced_points += ds.coalesced_points;
  stats->daemon.retry_after_replies += ds.retry_after_replies;
  stats->daemon.error_replies += ds.error_replies;
  if (stats->rounds == 0 && all_computed) {
    const std::size_t pick = env.seed % k;
    CrossCheck(in.points[pick], results[pick], "service", tally);
  }
  stats->results = std::move(results);
}

}  // namespace

const std::vector<WorkloadShape>& Workloads() {
  static const std::vector<WorkloadShape> kWorkloads = {
      {"saturated_sweep", kSweepThreads, 0, 0},
      {"lowload_isolated_sweep", 0, kWorkers, 0},
      {"service_mixed", kDaemonThreads, 0, kClients},
  };
  return kWorkloads;
}

const WorkloadShape* FindWorkload(const std::string& name) {
  for (const WorkloadShape& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::uint64_t SimulatedCycles(const NetworkSimConfig& config) {
  return config.warmup + config.measure + config.drain;
}

namespace {

std::vector<NetworkSimConfig> SweepGrid(const std::vector<double>& rates,
                                        std::size_t variants,
                                        std::uint64_t seed) {
  // Topology-major order: the fbfly points cost about a third of a mesh
  // point, so submitting them last keeps the pool's tail short and the
  // batch wall time from hinging on which expensive point is picked last.
  std::vector<NetworkSimConfig> out;
  const auto add = [&](TopologyKind topology, AllocScheme scheme) {
    for (const double rate : rates) {
      for (std::size_t v = 0; v < variants; ++v) {
        out.push_back(
            SweepPoint(topology, scheme, rate, PointSeed(seed, out.size())));
      }
    }
  };
  for (const AllocScheme s : kMeshSchemes) add(TopologyKind::kMesh, s);
  for (const AllocScheme s : kFbflySchemes) add(TopologyKind::kFBfly, s);
  return out;
}

}  // namespace

// At or past every scheme's knee (IF ~0.100, VIX ~0.115 on the mesh).
std::vector<NetworkSimConfig> SaturatedGrid(std::uint64_t seed) {
  return SweepGrid({0.12, 0.14, 0.16}, kSaturatedVariants, seed);
}

// Below every knee: routers see at most about one request per port.
std::vector<NetworkSimConfig> LowLoadGrid(std::uint64_t seed) {
  return SweepGrid({0.01, 0.03}, kLowLoadVariants, seed);
}

ServiceInputs MakeServiceInputs(std::uint64_t seed) {
  ServiceInputs in;
  for (const double rate : {0.02, 0.04, 0.06}) {
    for (const AllocScheme s : kMeshSchemes) {
      for (std::size_t v = 0; v < kServiceVariants; ++v) {
        NetworkSimConfig c;
        c.topology = TopologyKind::kMesh;
        c.scheme = s;
        c.injection_rate = rate;
        c.seed = PointSeed(seed, in.points.size());
        c.warmup = kServiceWarmup;
        c.measure = kServiceMeasure;
        c.drain = kServiceDrain;
        in.points.push_back(c);
      }
    }
  }
  const std::size_t k = in.points.size();

  Rng rng(PointSeed(seed, 0x5e41ce));
  std::vector<std::uint32_t> order(k);
  for (std::size_t i = 0; i < k; ++i) order[i] = static_cast<std::uint32_t>(i);
  for (std::size_t i = k; i > 1; --i) {
    std::swap(order[i - 1], order[rng.NextBounded(i)]);
  }
  // Zipf(1) over first-touch rank: harmonic prefix sums.
  std::vector<double> prefix(k + 1, 0.0);
  for (std::size_t r = 0; r < k; ++r) prefix[r + 1] = prefix[r] + 1.0 / (r + 1);

  const std::size_t spacing = kServiceRequests / k;
  std::size_t touched = 0;
  while (in.stream.size() < kServiceRequests) {
    if (touched < k && in.stream.size() % spacing == 0) {
      const std::uint32_t key = order[touched++];
      in.stream.push_back(key);
      if (rng.NextBool(kServiceDuplicateFirstTouch)) in.stream.push_back(key);
      continue;
    }
    const double u = rng.NextDouble() * prefix[touched];
    const std::size_t rank =
        std::upper_bound(prefix.begin() + 1, prefix.begin() + touched + 1, u) -
        (prefix.begin() + 1);
    in.stream.push_back(order[std::min(rank, touched - 1)]);
  }
  while (touched < k) in.stream.push_back(order[touched++]);
  return in;
}

std::vector<NetworkSimConfig> PrimeConfigs(int count) {
  std::vector<NetworkSimConfig> out;
  for (int i = 0; i < count; ++i) {
    NetworkSimConfig c;
    c.warmup = 0;
    c.measure = 1;
    c.drain = 0;
    c.seed = static_cast<std::uint64_t>(i) + 1;  // distinct keys: no dedup
    out.push_back(c);
  }
  return out;
}

std::optional<std::uint64_t> ExpectedDigest(const std::string& workload,
                                            std::uint64_t seed) {
  if (seed != kDefaultSeed) return std::nullopt;
  // Recorded from the simulator as of this benchmark's introduction; a
  // change here means a simulated number changed.
  static const std::map<std::string, std::uint64_t> kExpected = {
      {"saturated_sweep", 0x9c434d55554d2a47ull},
      {"lowload_isolated_sweep", 0x28de246586500c0eull},
      {"service_mixed", 0x2c1c1185caf3894full},
  };
  const auto it = kExpected.find(workload);
  if (it == kExpected.end()) return std::nullopt;
  return it->second;
}

PointClock::PointClock(const std::vector<NetworkSimConfig>& batch)
    : loaded_(batch.size()) {
  for (std::size_t i = 0; i < batch.size(); ++i) {
    index_.emplace(NetworkSimResultKey(batch[i]), i);
  }
}

PointCacheStatus PointClock::Load(const NetworkSimConfig& config,
                                  NetworkSimResult*) {
  const Clock::time_point now = Clock::now();
  const auto it = index_.find(NetworkSimResultKey(config));
  if (it != index_.end()) {
    std::lock_guard<std::mutex> lock(mu_);
    loaded_[it->second] = now;
  }
  return PointCacheStatus::kMiss;
}

void PointClock::Put(const NetworkSimConfig& config,
                     const NetworkSimResult&) {
  const Clock::time_point now = Clock::now();
  const auto it = index_.find(NetworkSimResultKey(config));
  if (it == index_.end()) return;
  std::lock_guard<std::mutex> lock(mu_);
  Clock::time_point start = loaded_[it->second];
  const auto [prev, first] =
      last_put_.try_emplace(std::this_thread::get_id(), now);
  if (!first) {
    start = std::max(start, prev->second);
    prev->second = now;
  }
  spans_.push_back(Span{it->second, start, now});
}

std::vector<PointClock::Span> PointClock::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

ProbeBatch RunProbeBatch(const std::vector<NetworkSimConfig>& configs,
                         int threads, Tracer* tracer, std::int64_t parent) {
  SweepRunner runner(threads);
  const auto clock = std::make_shared<PointClock>(configs);
  runner.SetCache(clock);
  ProbeBatch out;
  const Clock::time_point t0 = Clock::now();
  out.results = runner.Run(configs);
  out.wall_s = SecondsSince(t0);
  out.points = clock->Spans();
  if (tracer) {
    for (const PointClock::Span& p : out.points) {
      tracer->Add("sim.point", p.start, p.end, parent, p.index);
    }
  }
  return out;
}

void RunWorkload(const std::string& workload, const Env& env, double seconds,
                 Tracer* tracer, RoundStats* stats, Tally* tally) {
  ExtraSetups(workload, env, stats, tally);
  const Clock::time_point t0 = Clock::now();
  // Host speed is sampled on as many threads as the workload has slots,
  // between rounds, so it sees the host the rounds saw without competing
  // with them.
  const int slots = FindWorkload(workload)->Total();
  const auto until = [&](int min_rounds, auto&& round) {
    do {
      stats->host_speed.push_back(HostSpeed(slots));
      round();
      ++stats->rounds;
    } while (stats->rounds < min_rounds || SecondsSince(t0) < seconds);
  };
  if (workload == "saturated_sweep") {
    stats->configs = SaturatedGrid(env.seed);
    until(kSaturatedMinRounds,
          [&] { SaturatedRound(env, tracer, stats, tally); });
  } else if (workload == "lowload_isolated_sweep") {
    stats->configs = LowLoadGrid(env.seed);
    until(kLowLoadMinRounds, [&] { LowLoadRound(env, tracer, stats, tally); });
  } else if (workload == "service_mixed") {
    const ServiceInputs in = MakeServiceInputs(env.seed);
    stats->configs = in.points;
    until(kServiceMinRounds,
          [&] { ServiceRound(env, in, tracer, stats, tally); });
  } else {
    throw SimError("unknown workload '" + workload + "'");
  }
}

// ---- DaemonProcess -----------------------------------------------------------

DaemonProcess::DaemonProcess(const Env& env, const std::string& tag,
                             int threads, int clients)
    : dir_(env.work_dir + "/" + tag) {
  fs::remove_all(dir_);
  fs::create_directories(dir_);
  const std::string socket = dir_ + "/d.sock";
  const std::string log = dir_ + "/vixnocd.log";
  std::vector<std::string> args = {env.daemon_path, "socket=" + socket,
                                   "store=" + dir_ + "/store",
                                   "threads=" + std::to_string(threads)};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
  pid_t pid = -1;
  const int rc = posix_spawn(&pid, env.daemon_path.c_str(), &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    throw SimError("cannot spawn '" + env.daemon_path +
                   "': " + std::strerror(rc));
  }
  pid_ = pid;

  // Connect as soon as the daemon listens (SimClient's own retry sleeps
  // 20 ms between attempts, which would quantize setup_s).
  const Clock::time_point deadline =
      Clock::now() + std::chrono::seconds(30);
  while (static_cast<int>(clients_.size()) < clients) {
    try {
      clients_.push_back(std::make_unique<SimClient>(socket, 0.0));
    } catch (const SimError&) {
      int status = 0;
      if (::waitpid(pid, &status, WNOHANG) == pid) {
        pid_ = -1;
        throw SimError("vixnocd exited during startup; see " + log);
      }
      if (Clock::now() > deadline) {
        throw SimError("vixnocd did not accept connections on " + socket);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
}

SimClient& DaemonProcess::client(int i) {
  return *clients_[static_cast<std::size_t>(i)];
}

bool DaemonProcess::Shutdown() {
  if (pid_ <= 0) return false;
  bool acknowledged = false;
  if (!clients_.empty()) {
    try {
      clients_.front()->Shutdown();
      acknowledged = true;
    } catch (const SimError& e) {
      std::fprintf(stderr, "perfbench: vixnocd shutdown: %s\n", e.what());
    }
  }
  clients_.clear();
  if (!acknowledged) ::kill(static_cast<pid_t>(pid_), SIGTERM);
  int status = 0;
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(30);
  pid_t got = 0;
  while ((got = ::waitpid(static_cast<pid_t>(pid_), &status, WNOHANG)) == 0 &&
         Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  if (got == 0) {
    ::kill(static_cast<pid_t>(pid_), SIGKILL);
    ::waitpid(static_cast<pid_t>(pid_), &status, 0);
  }
  pid_ = -1;
  return got > 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

DaemonProcess::~DaemonProcess() {
  Shutdown();
  std::error_code ec;
  fs::remove_all(dir_, ec);
}

}  // namespace vixnoc::perfbench
