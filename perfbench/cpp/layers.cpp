#include "layers.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>

#include "alloc/switch_allocator.hpp"
#include "common/check.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "exec/coordinator.hpp"
#include "exec/exec_protocol.hpp"
#include "routing/registry.hpp"
#include "snapshot/snapshot.hpp"
#include "store/result_store.hpp"
#include "topology/topology.hpp"
#include "traffic/injection.hpp"
#include "traffic/patterns.hpp"

namespace vixnoc::perfbench {

namespace fs = std::filesystem;

namespace {

using Ns = std::chrono::nanoseconds;

std::uint64_t NsBetween(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<Ns>(b - a).count());
}

// RunNetworkSim's NetworkParams for a fault-free, telemetry-free config.
NetworkParams ParamsFor(const NetworkSimConfig& config, const Topology& topo,
                        const RoutingAlgorithm* routing) {
  NetworkParams params;
  params.router.radix = topo.Radix();
  params.router.num_vcs = config.num_vcs;
  params.router.buffer_depth = config.buffer_depth;
  params.router.scheme = config.scheme;
  params.router.arbiter_kind = config.arbiter;
  params.router.vc_policy =
      config.vc_policy.value_or(RouterConfig::DefaultPolicyFor(config.scheme));
  params.router.ap_rotate_vcs = config.ap_rotate_vcs;
  params.router.vix_virtual_inputs = config.vix_virtual_inputs;
  params.router.interleaved_vins = config.interleaved_vins;
  params.router.atomic_vc_alloc = config.atomic_vc_alloc;
  params.router.prioritize_nonspeculative = config.prioritize_nonspeculative;
  params.router.va_organization = config.va_organization;
  params.router.vc_rng_seed = config.seed;
  if (config.pipeline_stages == 5) {
    params.router.speculative_sa = false;
    params.flit_delay = 4;
  }
  params.routing = routing;
  return params;
}

void Put(std::vector<Metric>* out, const std::string& name, double value,
         const std::string& unit) {
  out->push_back(Metric{name, value, unit});
}

// Event counters are reported per round (or per probe batch), so a faster
// build that fits more rounds into its seconds does not read as more events.
void PutPerRound(std::vector<Metric>* out, const std::string& name,
                 std::uint64_t total, int rounds, const std::string& unit) {
  Put(out, name, static_cast<double>(total) / rounds, unit);
}

std::string SchemeKey(AllocScheme s) {
  switch (s) {
    case AllocScheme::kInputFirst: return "if";
    case AllocScheme::kWavefront: return "wf";
    case AllocScheme::kAugmentingPath: return "ap";
    case AllocScheme::kVix: return "vix";
    case AllocScheme::kSerenade: return "serenade";
    default: return ToString(s);
  }
}

// The workload's VIX config of `topology` at its highest rate; workloads
// without that topology (the mesh-only service) borrow the mesh one.
NetworkSimConfig Representative(const std::vector<NetworkSimConfig>& configs,
                                TopologyKind topology) {
  const NetworkSimConfig* best = nullptr;
  for (const TopologyKind t : {topology, TopologyKind::kMesh}) {
    for (const NetworkSimConfig& c : configs) {
      if (c.topology == t && c.scheme == AllocScheme::kVix &&
          (best == nullptr || c.injection_rate > best->injection_rate)) {
        best = &c;
      }
    }
    if (best != nullptr) break;
  }
  VIXNOC_CHECK(best != nullptr);
  NetworkSimConfig out = *best;
  out.topology = topology;
  return out;
}

void RouterProbe(const RoundStats& traced, std::vector<Metric>* out) {
  RouterActivity sum;
  for (const NetworkSimResult& r : traced.results) {
    sum.sa_requests += r.activity.sa_requests;
    sum.sa_grants += r.activity.sa_grants;
    sum.va_requests += r.activity.va_requests;
    sum.va_grants += r.activity.va_grants;
    sum.xbar_traversals += r.activity.xbar_traversals;
    sum.cycles += r.activity.cycles;
  }
  const auto ratio = [](std::uint64_t a, std::uint64_t b) {
    return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
  };
  Put(out, "router.sa_requests_per_cycle", ratio(sum.sa_requests, sum.cycles),
      "1/cycle");
  Put(out, "router.sa_grant_ratio", ratio(sum.sa_grants, sum.sa_requests),
      "ratio");
  Put(out, "router.va_grant_ratio", ratio(sum.va_grants, sum.va_requests),
      "ratio");
  Put(out, "router.xbar_flits_per_cycle",
      ratio(sum.xbar_traversals, sum.cycles), "1/cycle");
}

// ns per SwitchAllocator::Allocate, standalone on the mesh router's
// geometry, over request sets drawn at the request density (requests per
// router-cycle) the workload's mesh routers of that scheme saw.
std::map<AllocScheme, double> AllocProbe(const RoundStats& traced,
                                         std::uint64_t seed, Tracer& tracer,
                                         std::vector<Metric>* out) {
  constexpr int kRadix = 5;
  constexpr int kVcs = 6;
  constexpr std::size_t kSets = 512;
  constexpr std::uint64_t kCalls = 400'000;
  std::map<AllocScheme, double> ns_per_call;
  for (const AllocScheme scheme :
       {AllocScheme::kInputFirst, AllocScheme::kWavefront,
        AllocScheme::kAugmentingPath, AllocScheme::kVix,
        AllocScheme::kSerenade}) {
    std::uint64_t requests = 0;
    std::uint64_t router_cycles = 0;
    for (std::size_t i = 0; i < traced.configs.size(); ++i) {
      const NetworkSimConfig& c = traced.configs[i];
      if (c.topology != TopologyKind::kMesh || c.scheme != scheme) continue;
      requests += traced.results[i].activity.sa_requests;
      router_cycles += traced.results[i].activity.cycles;
    }
    const double density =
        router_cycles == 0 ? 0.0
                           : static_cast<double>(requests) /
                                 static_cast<double>(router_cycles);
    const double p = std::min(1.0, density / (kRadix * kVcs));

    Rng rng(seed ^ (0xa110c + static_cast<std::uint64_t>(scheme)));
    std::vector<std::vector<SaRequest>> sets(kSets);
    for (std::vector<SaRequest>& set : sets) {
      for (PortId in = 0; in < kRadix; ++in) {
        for (VcId vc = 0; vc < kVcs; ++vc) {
          if (!rng.NextBool(p)) continue;
          // Minimal routing never sends a flit back out of its input port.
          PortId o = static_cast<PortId>(rng.NextBounded(kRadix - 1));
          if (o >= in) ++o;
          set.push_back(SaRequest{in, vc, o});
        }
      }
    }
    SwitchGeometry geom;
    geom.num_inports = kRadix;
    geom.num_outports = kRadix;
    geom.num_vcs = kVcs;
    geom.num_vins = VirtualInputsForScheme(scheme, kVcs);
    const std::unique_ptr<SwitchAllocator> alloc =
        MakeSwitchAllocator(scheme, geom, ArbiterKind::kRoundRobin, seed);
    std::vector<SaGrant> grants;
    std::uint64_t granted = 0;
    const Clock::time_point t0 = Clock::now();
    for (std::uint64_t call = 0; call < kCalls; ++call) {
      alloc->Allocate(sets[call % kSets], &grants);
      granted += grants.size();
    }
    const std::uint64_t ns = NsBetween(t0, Clock::now());
    tracer.Count("alloc.allocate." + SchemeKey(scheme), kCalls, ns);
    VIXNOC_CHECK(granted > 0 || p == 0.0);
    ns_per_call[scheme] = static_cast<double>(ns) / kCalls;
    Put(out, "alloc.allocate_ns." + SchemeKey(scheme), ns_per_call[scheme],
        "ns");
  }
  return ns_per_call;
}

template <typename F>
std::vector<double> TimeReps(int reps, F&& f) {
  std::vector<double> s;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point t0 = Clock::now();
    f();
    s.push_back(SecondsSince(t0));
  }
  return s;
}

// A layer figure that is the difference of two separately timed runs takes
// the fastest run of each side: the host's speed drifts by tens of percent
// from second to second, more than some differences are worth, and the
// fastest run is the one it slowed least.
double Fastest(const std::vector<double>& samples) {
  return *std::min_element(samples.begin(), samples.end());
}

void NetworkProbe(const RoundStats& traced,
                  const std::map<AllocScheme, double>& alloc_ns,
                  Tracer& tracer, Tally* tally, std::vector<Metric>* out) {
  constexpr int kReps = 5;
  for (const TopologyKind topo : {TopologyKind::kMesh, TopologyKind::kFBfly}) {
    const NetworkSimConfig config = Representative(traced.configs, topo);
    const std::string tag = topo == TopologyKind::kMesh ? "mesh" : "fbfly";
    // Per simulated cycle: Network::Step, injection, the replica's loop
    // (both), and RunNetworkSim as a whole.
    std::vector<double> step_ns, inject_ns, loop_ns, sim_ns;
    ReplicaRun replica;
    for (int rep = 0; rep < kReps; ++rep) {
      NetworkSimResult reference;
      const Clock::time_point t0 = Clock::now();
      {
        ScopedSpan span(&tracer, "sim.run_network_sim." + tag);
        reference = RunNetworkSim(config);
      }
      const double sim_s = SecondsSince(t0);
      {
        ScopedSpan span(&tracer, "network.replica." + tag);
        replica = RunReplica(config);
      }
      const bool same = ReplicaMatches(replica, reference);
      if (!same) {
        std::fprintf(stderr,
                     "perfbench: replica loop differs from RunNetworkSim on "
                     "%s; layer numbers refused\n",
                     tag.c_str());
      }
      tally->Add(same);
      const double cycles = static_cast<double>(replica.cycles);
      step_ns.push_back(static_cast<double>(replica.step_ns) / cycles);
      inject_ns.push_back(static_cast<double>(replica.inject_ns) / cycles);
      loop_ns.push_back(step_ns.back() + inject_ns.back());
      sim_ns.push_back(sim_s * 1e9 / cycles);
      tracer.Count("network.step." + tag, replica.cycles, replica.step_ns);
      tracer.Count("traffic.inject." + tag, replica.cycles, replica.inject_ns);
    }
    Put(out, "network.step_ns." + tag, Median(step_ns), "ns");
    if (topo == TopologyKind::kMesh) {
      Put(out, "network.step_minus_alloc_ns",
          Median(step_ns) - replica.routers * alloc_ns.at(config.scheme),
          "ns");
      Put(out, "traffic.inject_ns", Median(inject_ns), "ns");
      Put(out, "sim.driver_ns", Fastest(sim_ns) - Fastest(loop_ns), "ns");

      constexpr int kBuilds = 10;
      std::shared_ptr<Topology> topology = MakeTopology64(config.topology);
      std::vector<std::unique_ptr<RoutingAlgorithm>> routings;
      const double routing_s = Median(TimeReps(kBuilds, [&] {
        ScopedSpan span(&tracer, "routing.build");
        routings.push_back(MakeRoutingAlgorithm(config.routing, *topology));
      }));
      const NetworkParams params =
          ParamsFor(config, *topology, routings.back().get());
      std::vector<std::unique_ptr<Network>> built;  // destroyed untimed
      const double network_s = Median(TimeReps(kBuilds, [&] {
        ScopedSpan span(&tracer, "network.build");
        built.push_back(std::make_unique<Network>(topology, params));
      }));
      Put(out, "network.build_ms", network_s * 1e3, "ms");
      Put(out, "routing.build_ms", routing_s * 1e3, "ms");
    }
  }
}

// Per-point RunNetworkSim on the in-process pool: one batch of the
// workload's points, on as many threads as the workload has compute slots,
// so the figures always cover the same fixed set of points.
void SimProbe(const std::string& workload, const RoundStats& traced,
              Tracer& tracer, Tally* tally, std::vector<Metric>* out) {
  const WorkloadShape& shape = *FindWorkload(workload);
  const int threads = shape.threads + shape.workers;
  ScopedSpan span(&tracer, "sim.probe_batch");
  const ProbeBatch probe =
      RunProbeBatch(traced.configs, threads, &tracer, span.id());
  CheckBatch(probe.results, BatchDigest(traced.results), tally);
  std::vector<double> point_s;
  double busy_s = 0.0;
  for (const PointClock::Span& p : probe.points) {
    point_s.push_back(SecondsBetween(p.start, p.end));
    busy_s += point_s.back();
  }
  Put(out, "sim.point_s.p50", Median(point_s), "s");
  Put(out, "sim.point_s.max", *std::max_element(point_s.begin(), point_s.end()),
      "s");
  Put(out, "sim.pool_efficiency", busy_s / (probe.wall_s * threads), "ratio");
}

void ExecProbe(const std::string& workload, const Env& env,
               const RoundStats& traced, Tracer& tracer, Tally* tally,
               std::vector<Metric>* out) {
  constexpr int kReps = 5;
  ExecPolicy policy;
  policy.num_workers = 1;
  policy.worker_path = env.worker_path;
  policy.point_timeout_seconds = 120.0;
  SweepCoordinator coordinator(policy);
  std::uint64_t retries = 0;
  std::uint64_t fallback = 0;
  int batches = 0;
  const auto isolated_s = [&](const NetworkSimConfig& c) {
    const std::uint64_t want = ResultDigest(RunNetworkSim(c));
    std::vector<SweepExecResult> runs;
    const double s = Fastest(TimeReps(kReps, [&] {
      ScopedSpan span(&tracer, "exec.isolated_point");
      runs.push_back(coordinator.Run({c}));
    }));
    for (const SweepExecResult& r : runs) {
      ++batches;
      retries += r.retries;
      fallback += r.fallback_points;
      tally->Add(r.points[0].isolated && ResultDigest(r.results[0]) == want);
    }
    return s;
  };
  const auto in_process_s = [&](const NetworkSimConfig& c) {
    return Fastest(TimeReps(kReps, [&] {
      ScopedSpan span(&tracer, "sim.run_network_sim");
      RunNetworkSim(c);
    }));
  };
  const NetworkSimConfig tiny = PrimeConfigs(1).front();
  Put(out, "exec.spawn_s", isolated_s(tiny) - in_process_s(tiny), "s");

  const NetworkSimConfig cheapest = *std::min_element(
      traced.configs.begin(), traced.configs.end(),
      [](const NetworkSimConfig& a, const NetworkSimConfig& b) {
        return SimulatedCycles(a) * a.injection_rate <
               SimulatedCycles(b) * b.injection_rate;
      });
  Put(out, "exec.point_overhead_ms",
      (isolated_s(cheapest) - in_process_s(cheapest)) * 1e3, "ms");

  // Frame codec per point: the point frame out and the result frame back.
  constexpr std::size_t kMinCalls = 2000;
  std::uint64_t encode_ns = 0;
  std::uint64_t decode_ns = 0;
  std::uint64_t frames = 0;
  while (frames < kMinCalls) {
    for (std::size_t i = 0; i < traced.configs.size(); ++i) {
      PointFrame frame;
      frame.index = i;
      frame.config = traced.configs[i];
      const std::uint64_t fp = NetworkSimConfigFingerprint(frame.config);
      const Clock::time_point t0 = Clock::now();
      const std::string point_bytes = EncodePointFrame(frame);
      const std::string result_bytes =
          EncodeResultFrame(i, fp, traced.results[i]);
      const Clock::time_point t1 = Clock::now();
      const PointFrame back = DecodePointFrame(point_bytes);
      const ResultFrame result = DecodeResultFrame(result_bytes);
      const Clock::time_point t2 = Clock::now();
      tracer.Add("exec.frame_encode", t0, t1, Tracer::kNoParent, i);
      tracer.Add("exec.frame_decode", t1, t2, Tracer::kNoParent, i);
      tally->Add(back.index == i && result.config_fingerprint == fp &&
                 ResultDigest(result.result) ==
                     ResultDigest(traced.results[i]));
      encode_ns += NsBetween(t0, t1);
      decode_ns += NsBetween(t1, t2);
      ++frames;
    }
  }
  Put(out, "exec.frame_encode_us", encode_ns * 1e-3 / frames, "us");
  Put(out, "exec.frame_decode_us", decode_ns * 1e-3 / frames, "us");
  if (workload == "lowload_isolated_sweep") {
    retries = traced.exec_retries;
    fallback = traced.exec_fallback_points;
    batches = traced.rounds;
  }
  PutPerRound(out, "exec.retries", retries, batches, "1/batch");
  PutPerRound(out, "exec.fallback_points", fallback, batches, "1/batch");
}

// Result codec and store I/O on a ResultStore holding the workload's
// results. Each pass files every result under a fresh key (the seed moves
// the key, not the payload), then loads it back and probes a missing key.
void StoreProbe(const Env& env, const RoundStats& traced, Tracer& tracer,
                Tally* tally, std::vector<Metric>* out) {
  constexpr int kPasses = 5;
  const std::string dir = env.work_dir + "/probe-store";
  fs::remove_all(dir);
  std::vector<double> encode, decode, put, hit, miss, bytes;
  {
    ResultStore store(dir);
    for (int pass = 0; pass < kPasses; ++pass) {
      for (std::size_t i = 0; i < traced.configs.size(); ++i) {
        const NetworkSimResult& result = traced.results[i];
        NetworkSimConfig stored = traced.configs[i];
        stored.seed += 0x100000ull * (pass + 1);
        NetworkSimConfig absent = stored;
        absent.seed += 0x80000ull;

        Clock::time_point t0 = Clock::now();
        SnapshotWriter w;
        w.BeginSection("result");
        SaveNetworkSimResult(w, result);
        w.EndSection();
        const std::string blob = w.Finish(0);
        Clock::time_point t1 = Clock::now();
        SnapshotReader r(blob);
        r.OpenSection("result");
        const NetworkSimResult decoded = LoadNetworkSimResult(r);
        r.CloseSection();
        Clock::time_point t2 = Clock::now();
        tracer.Add("snapshot.encode", t0, t1, Tracer::kNoParent, i);
        tracer.Add("snapshot.decode", t1, t2, Tracer::kNoParent, i);
        encode.push_back(SecondsBetween(t0, t1));
        decode.push_back(SecondsBetween(t1, t2));

        t0 = Clock::now();
        store.Put(stored, result);
        t1 = Clock::now();
        NetworkSimResult loaded;
        const PointCacheStatus h = store.Load(stored, &loaded);
        t2 = Clock::now();
        NetworkSimResult unused;
        const PointCacheStatus m = store.Load(absent, &unused);
        const Clock::time_point t3 = Clock::now();
        tracer.Add("store.put", t0, t1, Tracer::kNoParent, i);
        tracer.Add("store.load_hit", t1, t2, Tracer::kNoParent, i);
        tracer.Add("store.load_miss", t2, t3, Tracer::kNoParent, i);
        put.push_back(SecondsBetween(t0, t1));
        hit.push_back(SecondsBetween(t1, t2));
        miss.push_back(SecondsBetween(t2, t3));
        bytes.push_back(static_cast<double>(fs::file_size(store.EntryPath(stored))));
        const std::uint64_t want = ResultDigest(result);
        tally->Add(h == PointCacheStatus::kHit &&
                   m == PointCacheStatus::kMiss &&
                   ResultDigest(loaded) == want &&
                   ResultDigest(decoded) == want);
      }
    }
  }
  fs::remove_all(dir);
  Put(out, "snapshot.result_encode_us", Median(encode) * 1e6, "us");
  Put(out, "snapshot.result_decode_us", Median(decode) * 1e6, "us");
  Put(out, "store.load_hit_us", Median(hit) * 1e6, "us");
  Put(out, "store.load_miss_us", Median(miss) * 1e6, "us");
  Put(out, "store.put_us", Median(put) * 1e6, "us");
  Put(out, "store.entry_bytes", Median(bytes), "bytes");
}

void ServerProbe(const std::string& workload, const Env& env,
                 const RoundStats& traced, Tracer& tracer, Tally* tally,
                 std::vector<Metric>* out) {
  constexpr int kStatsCalls = 300;
  DaemonProcess daemon(env, "probe-daemon", 2, 1);
  SimClient& client = daemon.client(0);
  std::vector<double> rtt;
  for (int i = 0; i < kStatsCalls; ++i) {
    const Clock::time_point t0 = Clock::now();
    client.Stats();
    const Clock::time_point t1 = Clock::now();
    tracer.Add("server.stats", t0, t1, Tracer::kNoParent, i);
    rtt.push_back(SecondsBetween(t0, t1));
  }
  Put(out, "server.stats_rtt_us", Median(rtt) * 1e6, "us");

  DaemonStats ds = traced.daemon;
  int rounds = traced.rounds;
  if (workload != "service_mixed") {
    // The sweeps never touch the daemon; serve two of their points, each
    // twice, so the counters below describe a miss and a hit path.
    for (std::size_t i = 0; i < 2 && i < traced.configs.size(); ++i) {
      for (int attempt = 0; attempt < 2; ++attempt) {
        ScopedSpan span(&tracer, "server.request", Tracer::kNoParent, i);
        const PointReply reply = client.PointWithRetry(traced.configs[i]);
        tally->Add(reply.status == ServeStatus::kOk &&
                   ResultDigest(reply.result) ==
                       ResultDigest(traced.results[i]));
      }
    }
    ds = client.Stats();
    rounds = 1;
  }
  tally->Add(daemon.Shutdown());
  PutPerRound(out, "server.store_hits", ds.store_hits, rounds, "1/round");
  PutPerRound(out, "server.computed_points", ds.computed_points, rounds,
              "1/round");
  PutPerRound(out, "server.coalesced_points", ds.coalesced_points, rounds,
              "1/round");
  PutPerRound(out, "server.retry_after_replies", ds.retry_after_replies,
              rounds, "1/round");
  PutPerRound(out, "server.error_replies", ds.error_replies, rounds,
              "1/round");
}

}  // namespace

ReplicaRun RunReplica(const NetworkSimConfig& config) {
  VIXNOC_REQUIRE(!config.faults.Enabled() && !config.telemetry.enabled &&
                     !config.bursty && !config.topology_factory &&
                     !config.routing_factory && config.sample_interval == 0,
                 "the replica loop covers plain Bernoulli configs only");
  ValidateNetworkSimConfig(config);
  std::shared_ptr<Topology> topology = MakeTopology64(config.topology);
  const std::unique_ptr<RoutingAlgorithm> routing =
      MakeRoutingAlgorithm(config.routing, *topology);
  Network net(topology, ParamsFor(config, *topology, routing.get()));
  const int num_nodes = net.NumNodes();
  PatternOptions pattern_opts;
  pattern_opts.hotspot_node = config.hotspot_node;
  pattern_opts.incast_fanin = config.incast_fanin;
  const std::unique_ptr<TrafficPattern> pattern =
      MakePattern(config.pattern, pattern_opts);
  Rng rng(config.seed);
  BernoulliInjection injector(config.injection_rate);

  const Cycle measure_start = config.warmup;
  const Cycle measure_end = config.warmup + config.measure;
  const Cycle sim_end = measure_end + config.drain;
  ReplicaRun out;
  out.routers = net.NumRouters();
  net.SetEjectCallback([&](const PacketRecord& rec) {
    if (rec.created >= measure_start && rec.created < measure_end) {
      ++out.packets_measured;
    }
  });
  for (Cycle t = 0; t < sim_end; ++t) {
    if (t == measure_start) net.ClearActivity();
    if (t == measure_end) out.activity = net.TotalActivity();
    const Clock::time_point t0 = Clock::now();
    for (NodeId n = 0; n < num_nodes; ++n) {
      if (injector.ShouldInject(n, rng)) {
        net.EnqueuePacket(n, pattern->Dest(n, num_nodes, rng),
                          config.packet_size);
      }
    }
    const Clock::time_point t1 = Clock::now();
    net.Step();
    const Clock::time_point t2 = Clock::now();
    out.inject_ns += NsBetween(t0, t1);
    out.step_ns += NsBetween(t1, t2);
    ++out.cycles;
    if (config.watchdog_cycles > 0 &&
        net.SuspectedDeadlock(config.watchdog_cycles)) {
      break;
    }
  }
  return out;
}

bool ReplicaMatches(const ReplicaRun& replica,
                    const NetworkSimResult& reference) {
  const RouterActivity& a = replica.activity;
  const RouterActivity& b = reference.activity;
  return reference.outcome.ok() &&
         replica.packets_measured == reference.packets_measured &&
         a.buffer_writes == b.buffer_writes &&
         a.buffer_reads == b.buffer_reads &&
         a.xbar_traversals == b.xbar_traversals &&
         a.link_flits == b.link_flits && a.sa_requests == b.sa_requests &&
         a.sa_grants == b.sa_grants && a.va_requests == b.va_requests &&
         a.va_grants == b.va_grants && a.cycles == b.cycles &&
         a.cycles_with_requests == b.cycles_with_requests;
}

std::vector<Metric> ProbeLayers(const std::string& workload, const Env& env,
                                const RoundStats& traced, Tracer& tracer,
                                Tally* tally) {
  std::vector<Metric> out;
  const std::map<AllocScheme, double> alloc_ns =
      AllocProbe(traced, env.seed, tracer, &out);
  RouterProbe(traced, &out);
  NetworkProbe(traced, alloc_ns, tracer, tally, &out);
  SimProbe(workload, traced, tracer, tally, &out);
  ExecProbe(workload, env, traced, tracer, tally, &out);
  StoreProbe(env, traced, tracer, tally, &out);
  ServerProbe(workload, env, traced, tracer, tally, &out);
  return out;
}

}  // namespace vixnoc::perfbench
