// Experiment driver: open-loop statistical-traffic simulations with the
// standard warmup / measurement / drain methodology. This is the engine
// behind the paper's Figures 8, 9, 10 and 12.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "fault/fault_model.hpp"
#include "network/network.hpp"
#include "router/vc_assign.hpp"
#include "telemetry/telemetry.hpp"
#include "traffic/patterns.hpp"

namespace vixnoc {

class SnapshotReader;
class SnapshotWriter;
class StateArchive;

/// How a simulation point ended. Anything but kOk means the metric fields
/// of the result must not be trusted as steady-state measurements.
enum class SimStatus {
  kOk,
  /// The forward-progress watchdog fired: flits in flight but none moved
  /// for watchdog_cycles. SimOutcome carries the cycle and a per-router
  /// occupancy snapshot.
  kDeadlock,
  /// The run completed but traffic could not be delivered: destinations
  /// unreachable over the surviving (fault-degraded) link graph, or no
  /// packet delivered for a whole watchdog window at the end of the drain
  /// with flits still in flight (livelock).
  kUndeliverable,
  /// The point failed with a recoverable error (SimError): invalid
  /// configuration or a validation failure. Set by SweepRunner when a
  /// worker catches the exception.
  kInvariantViolation,
  /// The point could not be executed at the process level: its isolated
  /// worker subprocess kept failing (crash, hang past the deadline,
  /// malformed frames) until retries were exhausted. Set by
  /// SweepCoordinator (exec/coordinator.hpp); the per-point ExecStatus
  /// carries the failure classification and attempt history.
  kExecFailure,
};

std::string ToString(SimStatus status);

/// Structured verdict attached to every NetworkSimResult — the alternative
/// to silently reporting bogus throughput for a degraded or wedged run.
struct SimOutcome {
  SimStatus status = SimStatus::kOk;
  std::string message;  ///< empty for kOk
  /// Cycle at which the problem was detected (kDeadlock and kUndeliverable).
  Cycle cycle = 0;
  /// Flits buffered in each router when the problem was detected: the
  /// watchdog's snapshot for kDeadlock, the end-of-drain snapshot for
  /// kUndeliverable (a livelocked run's wedged traffic is visible here).
  std::vector<std::uint32_t> router_occupancy;
  /// Packets whose destination was unreachable over surviving links; they
  /// are counted, not injected (they could only hang forever).
  std::uint64_t unreachable_packets = 0;
  /// Path of the rolling pre-deadlock checkpoint written when the watchdog
  /// fired (kDeadlock with deadlock_checkpoint_path configured); empty
  /// otherwise. Restore from it with tracing enabled to replay the final
  /// cycles leading into the deadlock.
  std::string checkpoint_path;

  bool ok() const { return status == SimStatus::kOk; }
};

struct NetworkSimConfig {
  TopologyKind topology = TopologyKind::kMesh;
  AllocScheme scheme = AllocScheme::kInputFirst;
  int num_vcs = 6;        ///< paper §3: 6 VCs per port
  int buffer_depth = 5;   ///< paper §3: 5 flits per VC
  int packet_size = 4;    ///< paper §4.1: 512-bit packets on a 128-bit path
  double injection_rate = 0.05;  ///< packets/cycle/node (Bernoulli process)
  PatternKind pattern = PatternKind::kUniform;
  /// kHotspot: the hot node; kIncast: the receiver. kInvalidNode (the
  /// default) derives the off-center node from the topology — node 27 on
  /// the 64-node layouts, preserving the historical sequences.
  NodeId hotspot_node = kInvalidNode;
  /// kIncast only: sender count (<= 0 = every node but the receiver).
  int incast_fanin = 0;
  ArbiterKind arbiter = ArbiterKind::kRoundRobin;
  /// Overrides the scheme's default VC-assignment policy when set.
  std::optional<VcAssignPolicy> vc_policy;
  /// AP ablation: disable the allocator's VC round-robin (see RouterConfig).
  bool ap_rotate_vcs = true;
  /// Router pipeline depth (Fig 6): 3 = optimized (lookahead routing +
  /// speculative VA/SA in one stage); 5 = conservative (separate RC and VA
  /// stages, non-speculative SA). Affects per-hop latency, not throughput
  /// mechanics.
  int pipeline_stages = 3;
  /// kVix only: virtual inputs per port (0 = the default of 2).
  int vix_virtual_inputs = 0;
  /// Interleaved (vc % k) VC-to-virtual-input wiring (see RouterConfig).
  bool interleaved_vins = false;
  /// Becker-style masking of speculative SA requests (see RouterConfig).
  bool prioritize_nonspeculative = false;
  /// VA organization ablation (see VaOrganization).
  VaOrganization va_organization = VaOrganization::kGreedyRotating;
  /// Atomic VC reallocation ablation (see RouterConfig::atomic_vc_alloc).
  bool atomic_vc_alloc = false;
  /// Bursty (on-off Markov) injection instead of Bernoulli, keeping the
  /// same average rate: while ON a node injects at `burst_on_rate`, bursts
  /// last `mean_burst_cycles` on average.
  bool bursty = false;
  double burst_on_rate = 0.5;
  double mean_burst_cycles = 32.0;
  /// Overrides the 64-node topology when set (e.g. for scaling studies on
  /// other mesh sizes). Must agree with `topology`'s router conventions.
  std::function<std::unique_ptr<Topology>()> topology_factory;
  /// Routing plugin by registry name (routing/registry.hpp): "dor" (the
  /// default), "adaptive_min", or "fault_aware". Unknown names fail
  /// validation with a SimError listing the registered plugins. With
  /// permanent link faults, "dor" silently upgrades to "fault_aware"
  /// (the legacy behavior); other names must be fault-compatible.
  std::string routing = "dor";
  /// Overrides `routing` with an arbitrary algorithm built for the sim's
  /// topology — the test escape hatch mirroring topology_factory. Like it,
  /// the factory cannot be hashed: only its presence enters the
  /// fingerprint, and exec-frame serialization rejects it.
  std::function<std::unique_ptr<RoutingAlgorithm>(const Topology&)>
      routing_factory;
  /// When > 0, record a throughput/latency time series with one sample per
  /// `sample_interval` cycles over the whole run (including warmup) — for
  /// convergence checks and transient studies.
  Cycle sample_interval = 0;
  /// Fault-injection schedule (see fault/fault_model.hpp). Default-constructed
  /// = disabled, and the sim takes none of the fault code paths (results are
  /// bitwise identical to builds without the subsystem). The schedule is
  /// seeded from `faults.seed`, falling back to `seed` when zero, so it is
  /// a pure function of the config — independent of thread count.
  FaultConfig faults;
  /// Forward-progress watchdog: abort the run with SimStatus::kDeadlock when
  /// flits are in flight but none has moved for this many cycles. 0 disables.
  /// Keep this above faults.transient_period, or a transient outage that
  /// parks all traffic can masquerade as deadlock.
  Cycle watchdog_cycles = 5'000;
  /// Router/allocator observability (telemetry/telemetry.hpp). Disabled by
  /// default; enabling it never changes simulation results, only records
  /// them. Counter aggregates cover the measurement window; the time series
  /// and packet trace cover the whole run.
  TelemetryConfig telemetry;
  /// Checkpoint/restore (snapshot/snapshot.hpp). When `checkpoint_every`
  /// is > 0, the full simulation state is written to `checkpoint_path`
  /// (atomic overwrite) every `checkpoint_every` cycles. Setting
  /// `restore_path` resumes a run from such a checkpoint instead of
  /// starting at cycle 0; the resumed run is bitwise identical to one that
  /// never stopped. Checkpoints carry NetworkSimConfigFingerprint, so a
  /// restore under a config that would evolve differently throws SimError,
  /// while a post-mortem replay may still switch tracing on.
  std::string checkpoint_path;
  Cycle checkpoint_every = 0;
  std::string restore_path;
  /// When set (and the watchdog is enabled), keeps a rolling in-memory
  /// snapshot refreshed every watchdog_cycles; if the watchdog fires, the
  /// snapshot from at least one full watchdog window before detection is
  /// written here and recorded in SimOutcome::checkpoint_path. Zero cost
  /// when empty (the default).
  std::string deadlock_checkpoint_path;
  std::uint64_t seed = 1;
  Cycle warmup = 10'000;
  Cycle measure = 30'000;
  Cycle drain = 10'000;

  /// Injection rate that saturates the NI link for this packet size; used
  /// by benches as "maximum injection rate".
  double MaxInjectionRate() const { return 1.0 / packet_size; }
};

/// One point of the optional time series (see sample_interval).
struct IntervalSample {
  Cycle start = 0;             ///< first cycle of the interval
  double accepted_ppc = 0.0;   ///< packets delivered per node per cycle
  double avg_latency = 0.0;    ///< mean latency of packets ejected inside
  std::uint64_t packets = 0;   ///< deliveries in the interval
};

struct NetworkSimResult {
  double offered_ppc = 0.0;      ///< offered load, packets/cycle/node
  double accepted_ppc = 0.0;     ///< delivered throughput, packets/cycle/node
  double accepted_fpc = 0.0;     ///< delivered throughput, flits/cycle (whole network)
  double avg_latency = 0.0;      ///< packet latency incl. source queueing
  double avg_net_latency = 0.0;  ///< injection -> ejection latency
  double p99_latency = 0.0;
  double min_node_ppc = 0.0;     ///< slowest source's delivered throughput
  double max_node_ppc = 0.0;     ///< fastest source's delivered throughput
  double max_min_ratio = 0.0;    ///< fairness metric of Fig 9
  std::uint64_t packets_measured = 0;  ///< latency sample count
  bool saturated = false;        ///< accepted < 95% of offered
  RouterActivity activity;       ///< summed over measurement window
  Cycle measure_cycles = 0;
  int num_nodes = 0;
  /// Packets delivered (any time) with at least one payload-corrupted flit.
  std::uint64_t packets_corrupted = 0;
  /// How the run ended; check outcome.ok() before trusting the metrics.
  SimOutcome outcome;
  /// Populated when sample_interval > 0.
  std::vector<IntervalSample> timeline;
  /// Populated when config.telemetry.enabled (telemetry.enabled mirrors it).
  TelemetrySummary telemetry;
};

/// Throws SimError with an actionable message when the config cannot run:
/// rates outside [0,1], non-positive VC/buffer/packet sizes, unsupported
/// pipeline depth, VIX virtual inputs not dividing num_vcs, degenerate
/// bursty parameters, or permanent link faults on a torus (the dateline
/// VC-partitioning proof does not survive detours). SimDriver calls this
/// itself; it is exported so sweep builders can fail fast.
void ValidateNetworkSimConfig(const NetworkSimConfig& config);

/// The router and link parameters `config` asks for on a topology of
/// `radix` ports: every evolution field that shapes a router (scheme,
/// VCs, buffers, arbiter, VC policy, VIX virtual inputs and interleaving,
/// VA organization, atomic reallocation, speculation priority, pipeline
/// depth), with the VA RNG seeded from config.seed. SimDriver
/// (sim/sim_driver.hpp) builds every run's network from it and adds the
/// fault model, the routing plugin and telemetry.
NetworkParams MakeNetworkParams(const NetworkSimConfig& config, int radix);

NetworkSimResult RunNetworkSim(const NetworkSimConfig& config);

/// FNV-1a fingerprint over the config's evolution fields (the kEvolution
/// entries of sim/config_fields.hpp), stamped into checkpoint files and
/// checked on restore. A factory cannot be hashed, only its presence, so
/// factory users must ensure both sides build the same thing (the
/// network-level geometry checks catch most mismatches).
std::uint64_t NetworkSimConfigFingerprint(const NetworkSimConfig& config);

/// Content key of the *result* a config produces: the fingerprint folded
/// with the observation fields. Names ResultStore entries and drives
/// request dedup and coalescing. Same factory caveat as the fingerprint.
std::uint64_t NetworkSimResultKey(const NetworkSimConfig& config);

/// Canonical encoding of the keyed (evolution and observation) fields:
/// equal bytes mean equal keyed fields, with no hash in between. Throws
/// SimError for factory configs.
std::string NetworkSimKeyBytes(const NetworkSimConfig& config);

/// The frame codec: every table entry, in order. Save throws SimError for
/// a config with a factory (a live std::function has no serialized form;
/// such points run in-process); Load throws on truncation or a bad enum.
void SaveNetworkSimConfig(SnapshotWriter& w, const NetworkSimConfig& c);
NetworkSimConfig LoadNetworkSimConfig(SnapshotReader& r);

/// Full-fidelity (de)serialization of a finished result — metrics,
/// outcome, timeline and telemetry — used by SweepRunner's per-point
/// result cache to resume partially completed sweeps.
void SaveNetworkSimResult(SnapshotWriter& w, const NetworkSimResult& result);
NetworkSimResult LoadNetworkSimResult(SnapshotReader& r);

/// The stored forms behind them (snapshot/state_archive.hpp); checkpoints
/// share the outcome and interval-sample ones.
void Visit(StateArchive& ar, SimOutcome& o);
void Visit(StateArchive& ar, IntervalSample& s);
void Visit(StateArchive& ar, NetworkSimResult& r);

}  // namespace vixnoc
