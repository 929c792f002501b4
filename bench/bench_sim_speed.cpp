// Measurement of the simulator itself, for anyone planning larger
// parameter sweeps on this code base.
//
// Two sections:
//  * google-benchmark micro section: router-cycles per second of host time
//    per topology and allocator (single-threaded hot-loop speed);
//  * sweep section: a Fig-8-shaped batch of independent simulation points
//    run through SweepRunner at 1 and N threads, then through the
//    crash-isolated SweepCoordinator subprocess pool — end-to-end sweep
//    throughput, parallel speedup, subprocess-isolation overhead, and a
//    determinism cross-check across all three execution modes.
//
// Emits bench_results.json (json=PATH to override, json= to disable) with
// both sections' numbers, seeding the repo's performance trajectory.
// Flags: threads=N (sweep worker cap, default all cores), plus the usual
// --benchmark_* flags for the micro section.
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "alloc/switch_allocator.hpp"
#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/rng.hpp"
#include "exec/coordinator.hpp"
#include "network/network.hpp"
#include "routing/registry.hpp"
#include "server/client.hpp"
#include "server/daemon.hpp"
#include "sim/sweep.hpp"
#include "topology/topology.hpp"

namespace vixnoc {
namespace {

void RunNetwork(benchmark::State& state, TopologyKind kind,
                AllocScheme scheme, const char* routing = nullptr,
                double rate = 0.08) {
  std::shared_ptr<Topology> topo = MakeTopology64(kind);
  std::unique_ptr<RoutingAlgorithm> routing_algo;
  NetworkParams params;
  params.router.radix = topo->Radix();
  params.router.num_vcs = 6;
  params.router.buffer_depth = 5;
  params.router.scheme = scheme;
  params.router.vc_policy = RouterConfig::DefaultPolicyFor(scheme);
  if (routing != nullptr) {
    routing_algo = MakeRoutingAlgorithm(routing, *topo);
    params.routing = routing_algo.get();
  }
  Network net(topo, params);
  const int num_routers = net.NumRouters();

  Rng rng(1);
  // Pre-load to a realistic operating point.
  for (Cycle t = 0; t < 2'000; ++t) {
    for (NodeId n = 0; n < net.NumNodes(); ++n) {
      if (rng.NextBool(rate)) {
        net.EnqueuePacket(n, static_cast<NodeId>(
                                 rng.NextBounded(net.NumNodes())), 4);
      }
    }
    net.Step();
  }

  for (auto _ : state) {
    for (NodeId n = 0; n < net.NumNodes(); ++n) {
      if (rng.NextBool(rate)) {
        net.EnqueuePacket(n, static_cast<NodeId>(
                                 rng.NextBounded(net.NumNodes())), 4);
      }
    }
    net.Step();
  }
  state.SetItemsProcessed(state.iterations() * num_routers);
  state.counters["router_cycles/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * num_routers,
      benchmark::Counter::kIsRate);
}

void BM_Mesh_IF(benchmark::State& s) {
  RunNetwork(s, TopologyKind::kMesh, AllocScheme::kInputFirst);
}
void BM_Mesh_VIX(benchmark::State& s) {
  RunNetwork(s, TopologyKind::kMesh, AllocScheme::kVix);
}
void BM_Mesh_WF(benchmark::State& s) {
  RunNetwork(s, TopologyKind::kMesh, AllocScheme::kWavefront);
}
void BM_Mesh_AP(benchmark::State& s) {
  RunNetwork(s, TopologyKind::kMesh, AllocScheme::kAugmentingPath);
}
void BM_CMesh_VIX(benchmark::State& s) {
  RunNetwork(s, TopologyKind::kCMesh, AllocScheme::kVix);
}
void BM_FBfly_VIX(benchmark::State& s) {
  RunNetwork(s, TopologyKind::kFBfly, AllocScheme::kVix);
}
// Adaptive routing costs an extra candidate-scoring pass in VA; this arm
// pins that overhead on the trajectory next to the default-DOR mesh arm.
void BM_Mesh_VIX_AdaptiveMin(benchmark::State& s) {
  RunNetwork(s, TopologyKind::kMesh, AllocScheme::kVix, "adaptive_min");
}

// Below every knee most routers are idle and sleep; this arm pins the
// cost of the event wheel, NIs and wake-ups that dominate there.
void BM_Mesh_VIX_LowLoad(benchmark::State& s) {
  RunNetwork(s, TopologyKind::kMesh, AllocScheme::kVix, nullptr, 0.01);
}

// Past the mesh knee most router-cycles allocate and many VCs wait on
// credits; this arm pins the switch-allocation path (one-word allocator
// rows, the SA stage's credit-stall skip) that dominates there.
void BM_Mesh_VIX_Saturated(benchmark::State& s) {
  RunNetwork(s, TopologyKind::kMesh, AllocScheme::kVix, nullptr, 0.14);
}

// SERENADE on the 64-node mesh; the single-router arm below is opt-in.
void BM_Mesh_Serenade(benchmark::State& s) {
  RunNetwork(s, TopologyKind::kMesh, AllocScheme::kSerenade);
}

BENCHMARK(BM_Mesh_IF);
BENCHMARK(BM_Mesh_VIX);
BENCHMARK(BM_Mesh_WF);
BENCHMARK(BM_Mesh_AP);
BENCHMARK(BM_CMesh_VIX);
BENCHMARK(BM_FBfly_VIX);
BENCHMARK(BM_Mesh_VIX_AdaptiveMin);
BENCHMARK(BM_Mesh_VIX_LowLoad);
BENCHMARK(BM_Mesh_VIX_Saturated);
BENCHMARK(BM_Mesh_Serenade);

// Gated arm (pass serenade=1): a saturated radix-64 single-router hot loop
// over the SERENADE allocator — one Allocate() per state iteration is one
// router cycle. Large-radix points are well off the 64-node mesh arms'
// operating point, so this arm is opt-in; the trajectory check
// (scripts/bench_trajectory.py) treats its absence as a skipped gated arm,
// not a regression.
void BM_SingleRouter_Serenade(benchmark::State& state) {
  constexpr int kRadix = 64;
  constexpr int kVcs = 4;
  SwitchGeometry geom;
  geom.num_inports = kRadix;
  geom.num_outports = kRadix;
  geom.num_vcs = kVcs;
  geom.num_vins = VirtualInputsForScheme(AllocScheme::kSerenade, kVcs);
  auto alloc = MakeSwitchAllocator(AllocScheme::kSerenade, geom,
                                   ArbiterKind::kRoundRobin, 7);
  Rng rng(17);
  constexpr int kPool = 64;
  std::vector<std::vector<SaRequest>> pool(kPool);
  for (auto& reqs : pool) {
    for (PortId in = 0; in < kRadix; ++in) {
      for (VcId vc = 0; vc < kVcs; ++vc) {
        if (rng.NextBool(0.7)) {
          reqs.push_back(
              {in, vc, static_cast<PortId>(rng.NextBounded(kRadix))});
        }
      }
    }
  }
  std::vector<SaGrant> grants;
  std::size_t i = 0;
  for (auto _ : state) {
    alloc->Allocate(pool[i++ % kPool], &grants);
    benchmark::DoNotOptimize(grants.data());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["router_cycles/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}

/// Tees the console output while keeping every finished run for the JSON
/// report.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  struct MicroResult {
    std::string name;
    double router_cycles_per_second = 0.0;
    double real_ns_per_cycle = 0.0;
  };

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      MicroResult r;
      r.name = run.benchmark_name();
      r.real_ns_per_cycle = run.GetAdjustedRealTime();
      const auto it = run.counters.find("router_cycles/s");
      if (it != run.counters.end()) {
        r.router_cycles_per_second = it->second.value;
      }
      results.push_back(std::move(r));
    }
    ConsoleReporter::ReportRuns(runs);
  }

  std::vector<MicroResult> results;
};

struct SweepTiming {
  int threads = 0;
  bool process_isolated = false;
  double wall_seconds = 0.0;
};

using bench::Num;

}  // namespace
}  // namespace vixnoc

int main(int argc, char** argv) {
  using namespace vixnoc;

  benchmark::Initialize(&argc, argv);
  ArgMap args = ArgMap::Parse(argc, argv);
  const int max_threads =
      ResolveThreadCount(static_cast<int>(args.GetInt("threads", 0)));
  const std::string json_path = args.GetString("json", "bench_results.json");
  const bool serenade_arm = args.GetBool("serenade", false);
  const bool service_arm = args.GetBool("service", false);
  args.CheckAllConsumed();

  if (serenade_arm) {
    benchmark::RegisterBenchmark("BM_SingleRouter_Serenade",
                                 BM_SingleRouter_Serenade);
  }

  bench::WarnIfDebugBuild("sim_speed");
  CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);

  // Sweep section: a Fig-8-shaped batch (4 schemes x 2 rates), sized to a
  // few seconds of serial work.
  std::vector<NetworkSimConfig> points;
  for (AllocScheme scheme :
       {AllocScheme::kInputFirst, AllocScheme::kWavefront,
        AllocScheme::kAugmentingPath, AllocScheme::kVix}) {
    for (double rate : {0.08, 0.12}) {
      NetworkSimConfig c;
      c.scheme = scheme;
      c.injection_rate = rate;
      c.warmup = 2'000;
      c.measure = 6'000;
      c.drain = 1'000;
      points.push_back(c);
    }
  }
  std::uint64_t network_cycles = 0;
  for (const NetworkSimConfig& c : points) {
    network_cycles += static_cast<std::uint64_t>(c.warmup) + c.measure +
                      c.drain;
  }

  std::printf("\nsweep section: %zu Fig-8-shaped points, %llu network "
              "cycles total\n",
              points.size(),
              static_cast<unsigned long long>(network_cycles));
  std::vector<SweepTiming> timings;
  std::vector<NetworkSimResult> serial_results;
  bool deterministic = true;
  for (const int threads :
       std::vector<int>{1, max_threads > 1 ? max_threads : 0}) {
    if (threads == 0) break;  // single-core host: nothing to compare
    const auto start = std::chrono::steady_clock::now();
    const std::vector<NetworkSimResult> results = RunSweep(points, threads);
    SweepTiming t;
    t.threads = threads;
    t.wall_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    timings.push_back(t);
    std::printf("  threads=%-3d wall=%6.2fs  %12.0f network-cycles/s\n",
                threads, t.wall_seconds,
                static_cast<double>(network_cycles) / t.wall_seconds);
    if (threads == 1) {
      serial_results = results;
    } else {
      for (std::size_t i = 0; i < results.size(); ++i) {
        deterministic = deterministic &&
                        results[i].accepted_ppc ==
                            serial_results[i].accepted_ppc &&
                        results[i].avg_latency ==
                            serial_results[i].avg_latency;
      }
      std::printf("  determinism vs threads=1: %s\n",
                  deterministic ? "bitwise-identical" : "MISMATCH");
    }
  }
  if (timings.size() == 2) {
    std::printf("  parallel speedup: %.2fx on %d threads\n",
                timings[0].wall_seconds / timings[1].wall_seconds,
                timings[1].threads);
  }

  // Crash-isolated subprocess pool (isolate=process): same batch, same
  // determinism contract, across a process boundary. The throughput
  // ratio vs the in-process pool is the cost of isolation — the
  // trajectory gate (scripts/bench_trajectory.py) tracks it as the
  // "sweep_process" arm.
  {
    ExecPolicy policy;
    policy.num_workers = max_threads;
    SweepCoordinator coordinator(policy);
    const auto start = std::chrono::steady_clock::now();
    const SweepExecResult exec = coordinator.Run(points);
    SweepTiming t;
    t.threads = coordinator.policy().num_workers;
    t.process_isolated = true;
    t.wall_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    if (exec.fallback_points == points.size()) {
      std::printf("  isolate=process: no worker binary; all points ran "
                  "in-process (not recorded)\n");
    } else {
      timings.push_back(t);
      for (std::size_t i = 0; i < exec.results.size(); ++i) {
        deterministic = deterministic &&
                        exec.results[i].accepted_ppc ==
                            serial_results[i].accepted_ppc &&
                        exec.results[i].avg_latency ==
                            serial_results[i].avg_latency;
      }
      std::printf("  workers=%-3d wall=%6.2fs  %12.0f network-cycles/s "
                  "(isolate=process)\n  determinism vs threads=1: %s\n",
                  t.threads, t.wall_seconds,
                  static_cast<double>(network_cycles) / t.wall_seconds,
                  deterministic ? "bitwise-identical" : "MISMATCH");
    }
  }

  // Gated service arm (pass service=1): the same batch served by an
  // in-process vixnocd daemon over its Unix socket. The first batch is
  // cold (every point computed and stored); the following per-point
  // requests are pure store hits, so their request rate isolates the
  // service-path overhead — frame encode/decode, socket round-trip, store
  // probe — with zero simulation in it. The trajectory gate tracks the
  // hit rate as the "service_hits" arm.
  double service_cold_wall = 0.0;
  double service_hit_rps = 0.0;
  std::uint64_t service_hit_requests = 0;
  bool service_all_hits = false;
  if (service_arm) {
    const std::string tmp = "/tmp/vixnoc_sim_speed_service." +
                            std::to_string(static_cast<long>(::getpid()));
    std::filesystem::create_directories(tmp);
    DaemonConfig dc;
    dc.socket_path = tmp + "/vixd.sock";
    dc.store_dir = tmp + "/store";
    dc.threads = max_threads;
    SimDaemon daemon(dc);
    daemon.Start();
    {
      SimClient client(dc.socket_path, 10.0);
      auto start = std::chrono::steady_clock::now();
      client.Batch(points);
      service_cold_wall = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
      service_all_hits = true;
      start = std::chrono::steady_clock::now();
      double warm_wall = 0.0;
      while (warm_wall < 0.5) {  // enough hit round-trips to smooth timing
        for (const NetworkSimConfig& c : points) {
          const PointReply reply = client.Point(c);
          service_all_hits = service_all_hits &&
                             reply.status == ServeStatus::kOk &&
                             reply.source == ServeSource::kStore;
          ++service_hit_requests;
        }
        warm_wall = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count();
      }
      service_hit_rps = static_cast<double>(service_hit_requests) / warm_wall;
      std::printf(
          "  service: cold batch %.2fs, %llu hit requests at %.0f req/s "
          "(%s)\n",
          service_cold_wall,
          static_cast<unsigned long long>(service_hit_requests),
          service_hit_rps,
          service_all_hits ? "all store hits" : "NOT ALL STORE HITS");
    }
    daemon.Stop();
    std::filesystem::remove_all(tmp);
  }

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"sim_speed\",\n  \"build\": %s,\n  \"micro\": [\n",
                 bench::BuildFlagsJson().c_str());
    for (std::size_t i = 0; i < reporter.results.size(); ++i) {
      const auto& r = reporter.results[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"router_cycles_per_second\": %s, "
                   "\"ns_per_network_cycle\": %s}%s\n",
                   r.name.c_str(), Num(r.router_cycles_per_second).c_str(),
                   Num(r.real_ns_per_cycle).c_str(),
                   i + 1 < reporter.results.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    if (service_arm) {
      std::fprintf(f,
                   "  \"service\": {\"points\": %zu, "
                   "\"cold_wall_seconds\": %s, \"hit_requests\": %llu, "
                   "\"hit_requests_per_second\": %s, "
                   "\"all_store_hits\": %s},\n",
                   points.size(), Num(service_cold_wall).c_str(),
                   static_cast<unsigned long long>(service_hit_requests),
                   Num(service_hit_rps).c_str(),
                   service_all_hits ? "true" : "false");
    }
    std::fprintf(f,
                 "  \"sweep\": {\n"
                 "    \"points\": %zu,\n"
                 "    \"network_cycles\": %llu,\n"
                 "    \"deterministic_across_threads\": %s,\n"
                 "    \"runs\": [\n",
                 points.size(),
                 static_cast<unsigned long long>(network_cycles),
                 deterministic ? "true" : "false");
    for (std::size_t i = 0; i < timings.size(); ++i) {
      std::fprintf(
          f,
          "      {\"threads\": %d, \"isolate\": \"%s\", "
          "\"wall_seconds\": %s, "
          "\"network_cycles_per_second\": %s}%s\n",
          timings[i].threads,
          timings[i].process_isolated ? "process" : "thread",
          Num(timings[i].wall_seconds).c_str(),
          Num(static_cast<double>(network_cycles) / timings[i].wall_seconds)
              .c_str(),
          i + 1 < timings.size() ? "," : "");
    }
    std::fprintf(f, "    ],\n    \"results\": [\n");
    for (std::size_t i = 0; i < points.size(); ++i) {
      const NetworkSimConfig& c = points[i];
      const NetworkSimResult& r = serial_results[i];  // threads=1 always ran
      std::fprintf(f,
                   "      {\"scheme\": \"%s\", \"injection_rate\": %s, "
                   "\"accepted_ppc\": %s, \"avg_latency\": %s}%s\n",
                   ToString(c.scheme).c_str(), Num(c.injection_rate).c_str(),
                   Num(r.accepted_ppc).c_str(), Num(r.avg_latency).c_str(),
                   i + 1 < points.size() ? "," : "");
    }
    std::fprintf(f, "    ]\n  }\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }

  benchmark::Shutdown();
  return 0;
}
