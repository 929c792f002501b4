#include "sim/network_sim.hpp"

#include <algorithm>
#include <bit>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/error.hpp"
#include "routing/registry.hpp"
#include "sim/config_fields.hpp"
#include "snapshot/snapshot.hpp"
#include "snapshot/state_archive.hpp"
#include "traffic/injection.hpp"

namespace vixnoc {

namespace {

/// Stored IntervalSample: start u64, accepted_ppc f64, avg_latency f64,
/// packets u64.
constexpr std::size_t kIntervalSampleBytes = 4 * 8;

/// Scalar aggregates of a TelemetrySummary (windows and trace are handled
/// by the callers: the checkpoint stores the collector's live state, the
/// result stores them verbatim).
void VisitTelemetryScalars(StateArchive& ar, TelemetrySummary& s) {
  ar.B(s.enabled);
  ar.U64(s.cycles);
  ar.U64(s.sa_requests);
  ar.U64(s.sa_grants);
  ar.U64(s.input_arbiter_requests);
  ar.U64(s.input_arbiter_grants);
  ar.U64(s.output_arbiter_requests);
  ar.U64(s.output_arbiter_grants);
  ar.U64(s.output_conflict_cycles);
  ar.U64(s.port_multi_request_cycles);
  ar.U64(s.vin_conflict_distinct_output);
  ar.U64(s.vin_conflict_same_output);
  ar.U64(s.single_vin_serialized);
  ar.U64(s.stall_empty);
  ar.U64(s.stall_va);
  ar.U64(s.stall_credit);
  ar.U64(s.stall_sa);
  ar.U64(s.vc_moving);
  ar.F64(s.crossbar_utilization);
  ar.F64(s.same_output_conflict_rate);
  ar.F64(s.distinct_output_conflict_rate);
  ar.F64(s.mean_port_occupancy);
  ar.F64(s.p99_port_occupancy);
}

// Per-type rules for the config field table walks. A scalar field is one
// u64 word, in the fingerprint and in frames alike: its value (signed
// values sign-extend) or a double's bits. A string folds into the
// fingerprint as its hash, a factory as its presence (it cannot be hashed
// or sent), and an optional as its presence then its value.
template <class T>
std::uint64_t Word(T v) {
  if constexpr (std::is_floating_point_v<T>) {
    return std::bit_cast<std::uint64_t>(v);
  } else {
    return static_cast<std::uint64_t>(v);
  }
}

/// Highest valid value of each enum; decoding refuses larger words.
constexpr auto LastValue(TopologyKind) { return TopologyKind::kTorus; }
constexpr auto LastValue(AllocScheme) { return AllocScheme::kSerenade; }
constexpr auto LastValue(PatternKind) { return PatternKind::kIncast; }
constexpr auto LastValue(ArbiterKind) { return ArbiterKind::kMatrix; }
constexpr auto LastValue(VcAssignPolicy) { return VcAssignPolicy::kRandomFree; }
constexpr auto LastValue(VaOrganization) {
  return VaOrganization::kSeparableArbitrated;
}

using Words = std::vector<std::uint64_t>;
using Links = std::vector<std::pair<RouterId, PortId>>;

template <class T>
void FoldField(Words& out, T v) { out.push_back(Word(v)); }
void FoldField(Words& out, const std::string& s) {
  out.push_back(Fnv1a64(s.data(), s.size()));
}
template <class S>
void FoldField(Words& out, const std::function<S>& f) {
  FoldField(out, static_cast<bool>(f));
}
template <class T>
void FoldField(Words& out, const std::optional<T>& v) {
  FoldField(out, v.has_value());
  FoldField(out, v.value_or(T{}));
}
void FoldField(Words& out, const Links& links) {
  for (const auto& [router, port] : links) {
    FoldField(out, router);
    FoldField(out, port);
  }
}

std::uint64_t HashFields(const NetworkSimConfig& c, FieldClass kind,
                         Words words) {
  VisitNetworkSimConfig(c, [&](const ConfigField& f, const auto& v) {
    if (f.kind == kind) FoldField(words, v);
  });
  return Fnv1a64(words.data(), words.size() * sizeof(std::uint64_t));
}

template <class T>
void SaveField(SnapshotWriter& w, const ConfigField&, T v) { w.U64(Word(v)); }
void SaveField(SnapshotWriter& w, const ConfigField&, const std::string& s) {
  w.Str(s);
}
template <class S>
void SaveField(SnapshotWriter&, const ConfigField& f,
               const std::function<S>& v) {
  VIXNOC_REQUIRE(!v,
                 "a config with a %s cannot cross a process boundary "
                 "(std::function has no serialized form); run such points "
                 "in-process",
                 f.name);
}
template <class T>
void SaveField(SnapshotWriter& w, const ConfigField& f,
               const std::optional<T>& v) {
  SaveField(w, f, v.has_value());
  SaveField(w, f, v.value_or(T{}));
}
void SaveField(SnapshotWriter& w, const ConfigField&, const Links& links) {
  w.U32(static_cast<std::uint32_t>(links.size()));
  for (const auto& [router, port] : links) {
    w.I32(router);
    w.I32(port);
  }
}

template <class T>
void LoadField(SnapshotReader& r, const ConfigField& f, T* v) {
  const std::uint64_t word = r.U64();
  if constexpr (std::is_floating_point_v<T>) {
    *v = std::bit_cast<T>(word);
  } else {
    *v = static_cast<T>(word);
    // Only canonical words: no integer out of range, no bool but 0 or 1.
    bool valid = Word(*v) == word;
    if constexpr (std::is_enum_v<T>) {
      valid = valid && word <= Word(LastValue(T{}));
    }
    VIXNOC_REQUIRE(valid, "config frame has invalid %s value %llu", f.name,
                   static_cast<unsigned long long>(word));
  }
}
void LoadField(SnapshotReader& r, const ConfigField&, std::string* v) {
  *v = r.Str();
}
template <class S>
void LoadField(SnapshotReader&, const ConfigField&, std::function<S>*) {}
template <class T>
void LoadField(SnapshotReader& r, const ConfigField& f, std::optional<T>* v) {
  bool has = false;
  T value{};
  LoadField(r, f, &has);
  LoadField(r, f, &value);
  *v = has ? std::optional<T>(value) : std::nullopt;
}
void LoadField(SnapshotReader& r, const ConfigField&, Links* links) {
  const std::uint32_t n = r.CountU32(2 * 4);  // (router, port) i32s
  links->reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const RouterId router = r.I32();
    links->emplace_back(router, r.I32());
  }
}

}  // namespace

std::string ToString(SimStatus status) {
  switch (status) {
    case SimStatus::kOk:
      return "ok";
    case SimStatus::kDeadlock:
      return "deadlock";
    case SimStatus::kUndeliverable:
      return "undeliverable";
    case SimStatus::kInvariantViolation:
      return "invariant-violation";
    case SimStatus::kExecFailure:
      return "exec-failure";
  }
  return "unknown";
}

void ValidateNetworkSimConfig(const NetworkSimConfig& config) {
  VIXNOC_REQUIRE(
      config.injection_rate >= 0.0 && config.injection_rate <= 1.0,
      "injection_rate must be in [0, 1], got %g", config.injection_rate);
  VIXNOC_REQUIRE(config.num_vcs >= 1, "num_vcs must be >= 1, got %d",
                 config.num_vcs);
  VIXNOC_REQUIRE(config.buffer_depth >= 1, "buffer_depth must be >= 1, got %d",
                 config.buffer_depth);
  VIXNOC_REQUIRE(config.packet_size >= 1, "packet_size must be >= 1, got %d",
                 config.packet_size);
  VIXNOC_REQUIRE(config.pipeline_stages == 3 || config.pipeline_stages == 5,
                 "pipeline_stages must be 3 or 5, got %d",
                 config.pipeline_stages);
  VIXNOC_REQUIRE(config.hotspot_node >= kInvalidNode,
                 "hotspot_node must be a node index or kInvalidNode, got %d",
                 config.hotspot_node);
  if (config.hotspot_node != kInvalidNode) {
    VIXNOC_REQUIRE(config.pattern == PatternKind::kHotspot ||
                       config.pattern == PatternKind::kIncast,
                   "hotspot_node is only meaningful for pattern=hotspot or "
                   "pattern=incast");
  }
  if (config.incast_fanin > 0) {
    VIXNOC_REQUIRE(config.pattern == PatternKind::kIncast,
                   "incast_fanin is only meaningful for pattern=incast");
  }
  if (config.scheme == AllocScheme::kVix) {
    const int vins =
        config.vix_virtual_inputs > 0 ? config.vix_virtual_inputs : 2;
    VIXNOC_REQUIRE(vins >= 2 && vins <= config.num_vcs,
                   "VIX virtual inputs must be in [2, num_vcs=%d], got %d",
                   config.num_vcs, vins);
    VIXNOC_REQUIRE(config.num_vcs % vins == 0,
                   "num_vcs (%d) must be divisible by VIX virtual inputs (%d)",
                   config.num_vcs, vins);
  }
  if (config.bursty) {
    VIXNOC_REQUIRE(config.burst_on_rate > 0.0 && config.burst_on_rate <= 1.0,
                   "burst_on_rate must be in (0, 1], got %g",
                   config.burst_on_rate);
    VIXNOC_REQUIRE(
        config.burst_on_rate >= config.injection_rate,
        "burst_on_rate (%g) must be >= the average injection_rate (%g)",
        config.burst_on_rate, config.injection_rate);
    VIXNOC_REQUIRE(config.mean_burst_cycles >= 1.0,
                   "mean_burst_cycles must be >= 1, got %g",
                   config.mean_burst_cycles);
  }

  const FaultConfig& f = config.faults;
  VIXNOC_REQUIRE(f.link_down_rate >= 0.0 && f.link_down_rate <= 1.0,
                 "faults.link_down_rate must be in [0, 1], got %g",
                 f.link_down_rate);
  VIXNOC_REQUIRE(f.transient_rate >= 0.0 && f.transient_rate <= 1.0,
                 "faults.transient_rate must be in [0, 1], got %g",
                 f.transient_rate);
  VIXNOC_REQUIRE(f.router_stall_rate >= 0.0 && f.router_stall_rate <= 1.0,
                 "faults.router_stall_rate must be in [0, 1], got %g",
                 f.router_stall_rate);
  VIXNOC_REQUIRE(f.corruption_rate >= 0.0 && f.corruption_rate <= 1.0,
                 "faults.corruption_rate must be in [0, 1], got %g",
                 f.corruption_rate);
  const bool permanent_faults =
      f.link_down_rate > 0.0 || !f.forced_link_down.empty();
  if (permanent_faults && !config.topology_factory) {
    VIXNOC_REQUIRE(config.topology != TopologyKind::kTorus,
                   "permanent link faults are unsupported on the torus: "
                   "detour routing breaks the dateline VC deadlock-freedom "
                   "argument");
  }
  if (!config.routing_factory) {
    VIXNOC_REQUIRE(IsRegisteredRouting(config.routing),
                   "unknown routing algorithm '%s' (registered: %s)",
                   config.routing.c_str(),
                   RegisteredRoutingNamesJoined().c_str());
    if (config.routing == "adaptive_min") {
      VIXNOC_REQUIRE(!permanent_faults,
                     "routing=adaptive_min does not support permanent link "
                     "faults (the DOR escape path could be severed); use "
                     "routing=fault_aware");
      const bool torus = !config.topology_factory &&
                         config.topology == TopologyKind::kTorus;
      // One escape VC (two on the torus: the dateline pair) plus at least
      // one adaptively shared VC per message class.
      const int min_vcs = torus ? 3 : 2;
      VIXNOC_REQUIRE(config.num_vcs >= min_vcs,
                     "routing=adaptive_min needs num_vcs >= %d on this "
                     "topology (escape VCs + one adaptive VC), got %d",
                     min_vcs, config.num_vcs);
    }
  }
  if (config.telemetry.enabled) {
    VIXNOC_REQUIRE(config.telemetry.window_cycles >= 1,
                   "telemetry.window_cycles must be >= 1, got %llu",
                   static_cast<unsigned long long>(
                       config.telemetry.window_cycles));
    VIXNOC_REQUIRE(config.telemetry.max_windows >= 2,
                   "telemetry.max_windows must be >= 2, got %zu",
                   config.telemetry.max_windows);
    if (config.telemetry.trace_sample_period > 0) {
      VIXNOC_REQUIRE(config.telemetry.max_trace_events >= 1,
                     "telemetry.max_trace_events must be >= 1 when tracing, "
                     "got %zu",
                     config.telemetry.max_trace_events);
    }
  }

  VIXNOC_REQUIRE(config.checkpoint_every == 0 ||
                     !config.checkpoint_path.empty(),
                 "checkpoint_every=%llu needs a checkpoint_path",
                 static_cast<unsigned long long>(config.checkpoint_every));
  VIXNOC_REQUIRE(config.deadlock_checkpoint_path.empty() ||
                     config.watchdog_cycles > 0,
                 "deadlock_checkpoint_path needs the watchdog enabled "
                 "(watchdog_cycles > 0)");

  // A transient outage or stall window parks all affected traffic for its
  // whole duration; the watchdog must outlast it or a healthy run is
  // misreported as deadlocked.
  if (config.watchdog_cycles > 0) {
    if (f.transient_rate > 0.0) {
      VIXNOC_REQUIRE(config.watchdog_cycles > f.transient_duration,
                     "watchdog_cycles (%lld) must exceed "
                     "faults.transient_duration (%lld)",
                     static_cast<long long>(config.watchdog_cycles),
                     static_cast<long long>(f.transient_duration));
    }
    if (f.router_stall_rate > 0.0) {
      VIXNOC_REQUIRE(config.watchdog_cycles > f.stall_duration,
                     "watchdog_cycles (%lld) must exceed "
                     "faults.stall_duration (%lld)",
                     static_cast<long long>(config.watchdog_cycles),
                     static_cast<long long>(f.stall_duration));
    }
  }
}

NetworkSimResult RunNetworkSim(const NetworkSimConfig& config) {
  // Attributes any abort or SimError below to the offending sim point.
  ScopedSimContext sim_ctx(
      "scheme=%s topology=%s rate=%g seed=%llu",
      ToString(config.scheme).c_str(), ToString(config.topology).c_str(),
      config.injection_rate,
      static_cast<unsigned long long>(config.seed));
  ValidateNetworkSimConfig(config);

  std::shared_ptr<Topology> topology =
      config.topology_factory ? config.topology_factory()
                              : MakeTopology64(config.topology);
  NetworkParams params;
  params.router.radix = topology->Radix();
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
  // Only kRandomFree ever draws from the VA RNG, so seeding it is free for
  // every deterministic policy.
  params.router.vc_rng_seed = config.seed;
  if (config.pipeline_stages == 5) {
    params.router.speculative_sa = false;  // VA and SA in separate stages
    params.flit_delay = 4;                 // ST + LT + RC at the next hop
  }

  // Fault schedule and the routing plugin are pure functions of the config,
  // so results are identical regardless of how a sweep is threaded. The
  // routing algorithm must outlive the network (raw pointer in params).
  RoutingBuildContext routing_ctx;
  if (config.faults.Enabled()) {
    const std::uint64_t fault_seed =
        config.faults.seed != 0 ? config.faults.seed : config.seed;
    auto faults =
        std::make_shared<const FaultModel>(*topology, config.faults,
                                           fault_seed);
    routing_ctx.dead_links = faults->permanent_down();
    params.faults = std::move(faults);
  }
  std::string routing_name = config.routing;
  if (routing_name == "dor" && !routing_ctx.dead_links.empty()) {
    // The default routing detours around permanent faults (legacy
    // behavior); an *explicit* non-default plugin must be fault-compatible
    // or the registry rejects it.
    routing_name = "fault_aware";
  }
  const std::unique_ptr<RoutingAlgorithm> routing_algo =
      config.routing_factory
          ? config.routing_factory(*topology)
          : MakeRoutingAlgorithm(routing_name, *topology, routing_ctx);
  VIXNOC_CHECK(routing_algo != nullptr);
  params.routing = routing_algo.get();

  std::unique_ptr<TelemetryCollector> telemetry;
  if (config.telemetry.enabled) {
    telemetry = std::make_unique<TelemetryCollector>(config.telemetry);
    params.telemetry = telemetry.get();
  }

  Network net(topology, params);
  const int num_nodes = net.NumNodes();

  PatternOptions pattern_opts;
  pattern_opts.hotspot_node = config.hotspot_node;
  pattern_opts.incast_fanin = config.incast_fanin;
  auto pattern = MakePattern(config.pattern, pattern_opts);
  Rng rng(config.seed);
  std::unique_ptr<InjectionProcess> injector;
  if (config.bursty) {
    injector = std::make_unique<OnOffInjection>(
        num_nodes, config.injection_rate, config.burst_on_rate,
        config.mean_burst_cycles);
  } else {
    injector = std::make_unique<BernoulliInjection>(config.injection_rate);
  }

  const Cycle measure_start = config.warmup;
  const Cycle measure_end = config.warmup + config.measure;
  const Cycle sim_end = measure_end + config.drain;

  RunningStat latency;
  RunningStat net_latency;
  Histogram latency_hist(/*bucket_width=*/4.0, /*num_buckets=*/4096);
  RunningStat interval_latency;  // latency of packets ejected this interval
  std::uint64_t interval_packets = 0;
  std::uint64_t packets_corrupted = 0;
  Cycle last_delivery = 0;
  net.SetEjectCallback([&](const PacketRecord& rec) {
    last_delivery = rec.ejected;
    if (rec.corrupted) ++packets_corrupted;
    if (rec.created >= measure_start && rec.created < measure_end) {
      latency.Add(static_cast<double>(rec.ejected - rec.created));
      net_latency.Add(static_cast<double>(rec.ejected - rec.injected));
      latency_hist.Add(static_cast<double>(rec.ejected - rec.created));
    }
    if (config.sample_interval > 0) {
      interval_latency.Add(static_cast<double>(rec.ejected - rec.created));
      ++interval_packets;
    }
  });

  std::vector<NodeCounters> at_measure_start(num_nodes);
  std::vector<NodeCounters> at_measure_end(num_nodes);
  bool measure_window_closed = false;
  RouterActivity activity_snapshot;
  std::uint64_t offered_packets = 0;

  NetworkSimResult result;
  SimOutcome outcome;

  // --- Checkpoint/restore (snapshot/) ------------------------------------
  // A checkpoint captures the state *before* any work of cycle `next`, so
  // a restored run re-executes iteration `next` in full and every
  // downstream decision — sampling, measurement snapshots, injection draws,
  // router arbitration — replays bitwise identically. Serialization only
  // reads state (no RNG draws), so saving never perturbs the run.
  const std::uint64_t config_fp = NetworkSimConfigFingerprint(config);
  const auto visit_sim = [&](StateArchive& ar, Cycle& next) {
    ar.U64(next, sim_end + 1, "resume cycle");
    ar.Object(rng);
    std::string injector_name = injector->Name();
    ar.Str(injector_name);
    ar.Require(injector_name == injector->Name(),
               "checkpoint used injection process '%s', this config builds "
               "'%s'",
               injector_name.c_str(), injector->Name().c_str());
    injector->Visit(ar);
    ar.Object(latency);
    ar.Object(net_latency);
    ar.Object(latency_hist);
    ar.Object(interval_latency);
    ar.U64(interval_packets);
    ar.U64(packets_corrupted);
    ar.U64(last_delivery);
    ar.U64(offered_packets);
    ar.B(measure_window_closed);
    for (NodeCounters& c : at_measure_start) ar.Object(c);
    for (NodeCounters& c : at_measure_end) ar.Object(c);
    ar.Object(activity_snapshot);
    ar.List(result.timeline, kIntervalSampleBytes);
    ar.U64(outcome.unreachable_packets);
    // The counter aggregates frozen at measure_end (windows and trace are
    // re-read from the collector after the loop).
    bool frozen = measure_window_closed && telemetry != nullptr;
    ar.B(frozen);
    if (frozen) VisitTelemetryScalars(ar, result.telemetry);
  };
  const auto serialize_sim = [&](Cycle next) {
    SnapshotWriter w;
    w.BeginSection("sim");
    StateArchive ar(w);
    visit_sim(ar, next);
    w.EndSection();
    w.BeginSection("network");
    net.SaveState(w);
    w.EndSection();
    if (telemetry != nullptr) {
      w.BeginSection("telemetry");
      StateArchive::Save(w, *telemetry);
      w.EndSection();
    }
    return w.Finish(config_fp);
  };

  Cycle start_cycle = 0;
  if (!config.restore_path.empty()) {
    SnapshotReader r(ReadSnapshotFile(config.restore_path));
    VIXNOC_REQUIRE(r.fingerprint() == config_fp,
                   "checkpoint '%s' was taken under a different simulation "
                   "config (fingerprint %016llx, this config is %016llx)",
                   config.restore_path.c_str(),
                   static_cast<unsigned long long>(r.fingerprint()),
                   static_cast<unsigned long long>(config_fp));
    r.OpenSection("sim");
    StateArchive ar(r);
    visit_sim(ar, start_cycle);
    r.CloseSection();
    r.OpenSection("network");
    net.LoadState(r);
    r.CloseSection();
    if (telemetry != nullptr && r.HasSection("telemetry")) {
      r.OpenSection("telemetry");
      StateArchive::Load(r, *telemetry);
      r.CloseSection();
    }
  }

  // Rolling pre-deadlock snapshots: two alternating in-memory blobs, so
  // that when the watchdog fires the older one is guaranteed to predate
  // the detection point by at least one full watchdog window.
  const bool rolling_enabled = config.watchdog_cycles > 0 &&
                               !config.deadlock_checkpoint_path.empty();
  std::string rolling_prev;
  std::string rolling_cur;

  for (Cycle t = start_cycle; t < sim_end; ++t) {
    if (config.checkpoint_every > 0 && t > 0 && t != start_cycle &&
        t % config.checkpoint_every == 0) {
      WriteSnapshotFile(config.checkpoint_path, serialize_sim(t));
    }
    if (rolling_enabled && t % config.watchdog_cycles == 0) {
      rolling_prev = std::move(rolling_cur);
      rolling_cur = serialize_sim(t);
    }
    if (config.sample_interval > 0 && t > 0 &&
        t % config.sample_interval == 0) {
      IntervalSample sample;
      sample.start = t - config.sample_interval;
      sample.packets = interval_packets;
      sample.accepted_ppc =
          static_cast<double>(interval_packets) /
          (static_cast<double>(config.sample_interval) * num_nodes);
      sample.avg_latency = interval_latency.Mean();
      result.timeline.push_back(sample);
      interval_latency.Reset();
      interval_packets = 0;
    }
    if (t == measure_start) {
      for (NodeId n = 0; n < num_nodes; ++n) {
        at_measure_start[n] = net.counters(n);
      }
      net.ClearActivity();
      if (telemetry != nullptr) telemetry->ResetCounters();
    }
    if (t == measure_end) {
      for (NodeId n = 0; n < num_nodes; ++n) {
        at_measure_end[n] = net.counters(n);
      }
      activity_snapshot = net.TotalActivity();
      measure_window_closed = true;
      // Counter aggregates are frozen here; windows and trace (snapshotted
      // again after the loop) keep running through the drain.
      if (telemetry != nullptr) result.telemetry = telemetry->Summarize();
    }
    // Injection at every node, including during drain (holding the load
    // keeps measured packets under realistic contention).
    for (NodeId n = 0; n < num_nodes; ++n) {
      if (injector->ShouldInject(n, rng)) {
        // Draw the destination before the reachability gate so the RNG
        // stream — and therefore every reachable packet — is identical to
        // the fault-free run.
        const NodeId dst = pattern->Dest(n, num_nodes, rng);
        if (routing_algo->MayBeUnreachable() &&
            !routing_algo->Reachable(net.topology().RouterOfNode(n), dst)) {
          ++outcome.unreachable_packets;
          continue;
        }
        net.EnqueuePacket(n, dst, config.packet_size);
        if (t >= measure_start && t < measure_end) ++offered_packets;
      }
    }
    net.Step();
    if (config.watchdog_cycles > 0 &&
        net.SuspectedDeadlock(config.watchdog_cycles)) {
      outcome.status = SimStatus::kDeadlock;
      outcome.cycle = net.now();
      outcome.router_occupancy = net.OccupancySnapshot();
      outcome.message = "no flit movement for " +
                        std::to_string(config.watchdog_cycles) +
                        " cycles with flits in flight (detected at cycle " +
                        std::to_string(net.now()) + ")";
      if (rolling_enabled) {
        // Persist the pre-deadlock state for post-mortem replay (restore it
        // with tracing enabled to watch the final cycles wedge).
        const std::string& blob =
            rolling_prev.empty() ? rolling_cur : rolling_prev;
        if (!blob.empty()) {
          WriteSnapshotFile(config.deadlock_checkpoint_path, blob);
          outcome.checkpoint_path = config.deadlock_checkpoint_path;
        }
      }
      break;
    }
  }

  result.num_nodes = num_nodes;
  result.measure_cycles = config.measure;
  result.offered_ppc = config.injection_rate;
  result.packets_corrupted = packets_corrupted;

  if (telemetry != nullptr) {
    // A run that ended before measure_end has no frozen counter snapshot;
    // fall back to end-of-run aggregates so the telemetry is never silently
    // empty (outcome.status already marks the metrics untrustworthy).
    if (!measure_window_closed) result.telemetry = telemetry->Summarize();
    result.telemetry.windows = telemetry->windows();
    result.telemetry.trace = telemetry->trace_events();
  }

  // A deadlock before the measurement window closes leaves the end-of-window
  // snapshot unset; report the structured outcome and keep the metrics zero
  // rather than publishing garbage.
  if (measure_window_closed) {
    std::uint64_t delivered_total = 0;
    std::uint64_t flits_total = 0;
    double min_node = 1e300, max_node = 0.0;
    for (NodeId n = 0; n < num_nodes; ++n) {
      const std::uint64_t delivered = at_measure_end[n].packets_delivered -
                                      at_measure_start[n].packets_delivered;
      const std::uint64_t flits =
          at_measure_end[n].flits_ejected - at_measure_start[n].flits_ejected;
      delivered_total += delivered;
      flits_total += flits;
      const double node_ppc =
          static_cast<double>(delivered) / static_cast<double>(config.measure);
      min_node = std::min(min_node, node_ppc);
      max_node = std::max(max_node, node_ppc);
    }
    result.accepted_ppc =
        static_cast<double>(delivered_total) /
        (static_cast<double>(config.measure) * num_nodes);
    result.accepted_fpc =
        static_cast<double>(flits_total) / static_cast<double>(config.measure);
    result.min_node_ppc = min_node;
    result.max_node_ppc = max_node;
    result.max_min_ratio = min_node > 0.0 ? max_node / min_node : 0.0;
    result.avg_latency = latency.Mean();
    result.avg_net_latency = net_latency.Mean();
    result.p99_latency = latency_hist.Quantile(0.99);
    result.packets_measured = latency.Count();
    const double offered_meas =
        static_cast<double>(offered_packets) /
        (static_cast<double>(config.measure) * num_nodes);
    result.saturated = result.accepted_ppc < 0.95 * offered_meas;
    result.activity = activity_snapshot;
  }

  if (outcome.status == SimStatus::kOk && config.faults.Enabled()) {
    if (outcome.unreachable_packets > 0) {
      outcome.status = SimStatus::kUndeliverable;
      outcome.cycle = net.now();
      outcome.router_occupancy = net.OccupancySnapshot();
      outcome.message = std::to_string(outcome.unreachable_packets) +
                        " packets had no surviving path to their destination";
    } else if (config.watchdog_cycles > 0 && !net.Quiescent() &&
               !result.saturated &&
               net.now() - last_delivery > config.watchdog_cycles) {
      // Flits are in flight but nothing has been *delivered* for a whole
      // watchdog window — livelock, or traffic wedged short of the full
      // no-movement deadlock criterion. (Injection continues through the
      // drain by design, so mere non-quiescence at the end is normal.)
      outcome.status = SimStatus::kUndeliverable;
      outcome.cycle = net.now();
      outcome.router_occupancy = net.OccupancySnapshot();
      outcome.message = "no packet delivered since cycle " +
                        std::to_string(last_delivery) +
                        " with flits still in flight at end of drain";
    }
  }
  result.outcome = std::move(outcome);
  return result;
}

std::uint64_t NetworkSimConfigFingerprint(const NetworkSimConfig& c) {
  return HashFields(c, FieldClass::kEvolution, {});
}

std::uint64_t NetworkSimResultKey(const NetworkSimConfig& c) {
  return HashFields(c, FieldClass::kObservation,
                    {NetworkSimConfigFingerprint(c)});
}

void SaveNetworkSimConfig(SnapshotWriter& w, const NetworkSimConfig& c) {
  VisitNetworkSimConfig(c, [&](const ConfigField& f, const auto& v) {
    SaveField(w, f, v);
  });
}

NetworkSimConfig LoadNetworkSimConfig(SnapshotReader& r) {
  NetworkSimConfig c;
  VisitNetworkSimConfig(c, [&](const ConfigField& f, auto& v) {
    LoadField(r, f, &v);
  });
  return c;
}

std::string NetworkSimKeyBytes(const NetworkSimConfig& c) {
  SnapshotWriter w;
  w.BeginSection("key");
  VisitNetworkSimConfig(c, [&](const ConfigField& f, const auto& v) {
    if (f.kind != FieldClass::kOperational) SaveField(w, f, v);
  });
  w.EndSection();
  return w.Finish(0);
}

void Visit(StateArchive& ar, SimOutcome& o) {
  ar.Enum8(o.status, SimStatus::kExecFailure, "outcome status");
  ar.Str(o.message);
  ar.U64(o.cycle);
  ar.VecU32(o.router_occupancy);
  ar.U64(o.unreachable_packets);
  ar.Str(o.checkpoint_path);
}

void Visit(StateArchive& ar, IntervalSample& s) {
  ar.U64(s.start);
  ar.F64(s.accepted_ppc);
  ar.F64(s.avg_latency);
  ar.U64(s.packets);
}

void Visit(StateArchive& ar, NetworkSimResult& r) {
  ar.F64(r.offered_ppc);
  ar.F64(r.accepted_ppc);
  ar.F64(r.accepted_fpc);
  ar.F64(r.avg_latency);
  ar.F64(r.avg_net_latency);
  ar.F64(r.p99_latency);
  ar.F64(r.min_node_ppc);
  ar.F64(r.max_node_ppc);
  ar.F64(r.max_min_ratio);
  ar.U64(r.packets_measured);
  ar.B(r.saturated);
  ar.Object(r.activity);
  ar.U64(r.measure_cycles);
  ar.I32(r.num_nodes);
  ar.U64(r.packets_corrupted);
  ar.Object(r.outcome);
  ar.List(r.timeline, kIntervalSampleBytes);
  VisitTelemetryScalars(ar, r.telemetry);
  ar.List(r.telemetry.windows, kTelemetryWindowBytes);
  ar.List(r.telemetry.trace, kPacketTraceEventBytes);
}

void SaveNetworkSimResult(SnapshotWriter& w, const NetworkSimResult& r) {
  StateArchive::Save(w, r);
}

NetworkSimResult LoadNetworkSimResult(SnapshotReader& r) {
  NetworkSimResult out;
  StateArchive::Load(r, out);
  return out;
}

}  // namespace vixnoc
