#include "sim/network_sim.hpp"

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
#include "sim/sim_driver.hpp"
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

/// Open-loop statistical traffic: one injection trial per node per cycle,
/// destinations from the pattern, all draws from one RNG.
class SyntheticSource final : public TrafficSource {
 public:
  SyntheticSource(const NetworkSimConfig& config, SimDriver& driver)
      : TrafficSource(config.warmup + config.measure + config.drain,
                      NetworkSimConfigFingerprint(config), "sim"),
        config_(config),
        driver_(driver),
        num_nodes_(driver.net().NumNodes()),
        pattern_(MakePattern(config.pattern,
                             PatternOptions{config.hotspot_node,
                                            config.incast_fanin})),
        rng_(config.seed) {
    if (config.bursty) {
      injector_ = std::make_unique<OnOffInjection>(
          num_nodes_, config.injection_rate, config.burst_on_rate,
          config.mean_burst_cycles);
    } else {
      injector_ = std::make_unique<BernoulliInjection>(config.injection_rate);
    }
  }

  // Injection at every node, including during drain (holding the load
  // keeps measured packets under realistic contention).
  bool Inject(Cycle) override {
    for (NodeId n = 0; n < num_nodes_; ++n) {
      if (!injector_->ShouldInject(n, rng_)) continue;
      // The destination is drawn before the driver's reachability gate, so
      // the RNG stream (and every reachable packet) matches the fault-free
      // run.
      driver_.Enqueue(n, pattern_->Dest(n, num_nodes_, rng_),
                      config_.packet_size);
    }
    return false;
  }

  void Visit(StateArchive& ar, Cycle& next, SimDriver::State& s) override {
    ar.U64(next, end + 1, "resume cycle");
    ar.Object(rng_);
    std::string injector_name = injector_->Name();
    ar.Str(injector_name);
    ar.Require(injector_name == injector_->Name(),
               "checkpoint used injection process '%s', this config builds "
               "'%s'",
               injector_name.c_str(), injector_->Name().c_str());
    injector_->Visit(ar);
    ar.Object(s.latency);
    ar.Object(s.net_latency);
    ar.Object(s.latency_hist);
    ar.Object(s.interval_latency);
    ar.U64(s.interval_packets);
    ar.U64(s.result.packets_corrupted);
    ar.U64(s.last_delivery);
    ar.U64(s.offered_packets);
    ar.B(s.window_closed);
    for (NodeCounters& c : s.at_start) ar.Object(c);
    for (NodeCounters& c : s.at_end) ar.Object(c);
    ar.Object(s.activity);
    ar.List(s.result.timeline, kIntervalSampleBytes);
    ar.U64(s.result.outcome.unreachable_packets);
    // The counter aggregates frozen at measure_end (windows and trace are
    // re-read from the collector when the run ends).
    bool frozen = s.window_closed && driver_.telemetry_enabled();
    ar.B(frozen);
    if (frozen) VisitTelemetryScalars(ar, s.result.telemetry);
  }

 private:
  const NetworkSimConfig& config_;
  SimDriver& driver_;
  const int num_nodes_;
  std::unique_ptr<TrafficPattern> pattern_;
  std::unique_ptr<InjectionProcess> injector_;
  Rng rng_;
};

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
  VIXNOC_REQUIRE(config.packet_size >= 1 &&
                     config.packet_size <= kMaxPacketFlits,
                 "packet_size must be in [1, %d], got %d", kMaxPacketFlits,
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

NetworkParams MakeNetworkParams(const NetworkSimConfig& config, int radix) {
  NetworkParams params;
  params.router.radix = radix;
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
  return params;
}

NetworkSimResult RunNetworkSim(const NetworkSimConfig& config) {
  // Attributes any abort or SimError below to the offending sim point.
  ScopedSimContext sim_ctx(
      "scheme=%s topology=%s rate=%g seed=%llu",
      ToString(config.scheme).c_str(), ToString(config.topology).c_str(),
      config.injection_rate,
      static_cast<unsigned long long>(config.seed));
  SimDriver driver(config);
  SyntheticSource source(config, driver);
  NetworkSimResult result = driver.Run(source);
  result.offered_ppc = config.injection_rate;
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
