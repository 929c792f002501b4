// The NetworkSimConfig field table: each field named once, with its class
// and, for the simulation-point CLI keys, its key=value name. The
// fingerprint, the result key, the frame codec and the CLI parser all walk
// it. The order is frozen: checkpoints stamp the fingerprint (the
// evolution entries in table order) and store files are named by the
// result key (the observation entries after it), so reordering or adding
// entries refuses old checkpoints and misses old store entries.
#pragma once

#include "sim/network_sim.hpp"

namespace vixnoc {

enum class FieldClass {
  /// Changes how the simulation evolves: in the fingerprint and the key.
  kEvolution,
  /// Changes only what the result records (telemetry, the deadlock
  /// checkpoint path): in the result key only. Observation never changes
  /// simulated state, as telemetry_test pins.
  kObservation,
  /// Changes neither: checkpoint plumbing, since a resumed run is bitwise
  /// identical to one that never stopped.
  kOperational,
};

struct ConfigField {
  const char* name;  ///< the member's path in NetworkSimConfig
  FieldClass kind;
  const char* cli_key = nullptr;  ///< see app/sim_config_args.hpp
};

/// Calls `v(field, c.member)` once per NetworkSimConfig member, in table
/// order. `C` is NetworkSimConfig or const NetworkSimConfig.
template <class C, class V>
void VisitNetworkSimConfig(C& c, V&& v) {
  using enum FieldClass;
  using F = ConfigField;
  auto& faults = c.faults;
  auto& telemetry = c.telemetry;
  v(F{"topology", kEvolution, "topology"}, c.topology);
  v(F{"scheme", kEvolution, "scheme"}, c.scheme);
  v(F{"num_vcs", kEvolution, "vcs"}, c.num_vcs);
  v(F{"buffer_depth", kEvolution, "depth"}, c.buffer_depth);
  v(F{"packet_size", kEvolution, "packet"}, c.packet_size);
  v(F{"injection_rate", kEvolution, "rate"}, c.injection_rate);
  v(F{"pattern", kEvolution, "pattern"}, c.pattern);
  v(F{"arbiter", kEvolution}, c.arbiter);
  v(F{"vc_policy", kEvolution}, c.vc_policy);
  v(F{"ap_rotate_vcs", kEvolution}, c.ap_rotate_vcs);
  v(F{"pipeline_stages", kEvolution, "pipeline"}, c.pipeline_stages);
  v(F{"vix_virtual_inputs", kEvolution}, c.vix_virtual_inputs);
  v(F{"interleaved_vins", kEvolution}, c.interleaved_vins);
  v(F{"prioritize_nonspeculative", kEvolution}, c.prioritize_nonspeculative);
  v(F{"va_organization", kEvolution}, c.va_organization);
  v(F{"atomic_vc_alloc", kEvolution}, c.atomic_vc_alloc);
  v(F{"bursty", kEvolution}, c.bursty);
  v(F{"burst_on_rate", kEvolution}, c.burst_on_rate);
  v(F{"mean_burst_cycles", kEvolution}, c.mean_burst_cycles);
  v(F{"topology_factory", kEvolution}, c.topology_factory);
  v(F{"routing", kEvolution, "routing"}, c.routing);
  v(F{"routing_factory", kEvolution}, c.routing_factory);
  v(F{"sample_interval", kEvolution}, c.sample_interval);
  v(F{"faults.link_down_rate", kEvolution}, faults.link_down_rate);
  v(F{"faults.transient_rate", kEvolution}, faults.transient_rate);
  v(F{"faults.transient_period", kEvolution}, faults.transient_period);
  v(F{"faults.transient_duration", kEvolution}, faults.transient_duration);
  v(F{"faults.router_stall_rate", kEvolution}, faults.router_stall_rate);
  v(F{"faults.stall_period", kEvolution}, faults.stall_period);
  v(F{"faults.stall_duration", kEvolution}, faults.stall_duration);
  v(F{"faults.corruption_rate", kEvolution}, faults.corruption_rate);
  v(F{"faults.seed", kEvolution}, faults.seed);
  v(F{"watchdog_cycles", kEvolution}, c.watchdog_cycles);
  v(F{"seed", kEvolution, "seed"}, c.seed);
  v(F{"warmup", kEvolution, "warmup"}, c.warmup);
  v(F{"measure", kEvolution, "measure"}, c.measure);
  v(F{"drain", kEvolution, "drain"}, c.drain);
  v(F{"hotspot_node", kEvolution, "hotspot"}, c.hotspot_node);
  v(F{"incast_fanin", kEvolution, "fanin"}, c.incast_fanin);
  v(F{"faults.forced_link_down", kEvolution}, faults.forced_link_down);
  v(F{"telemetry.enabled", kObservation}, telemetry.enabled);
  v(F{"telemetry.window_cycles", kObservation}, telemetry.window_cycles);
  v(F{"telemetry.max_windows", kObservation}, telemetry.max_windows);
  v(F{"telemetry.trace_sample_period", kObservation},
    telemetry.trace_sample_period);
  v(F{"telemetry.max_trace_events", kObservation}, telemetry.max_trace_events);
  v(F{"deadlock_checkpoint_path", kObservation}, c.deadlock_checkpoint_path);
  v(F{"checkpoint_path", kOperational}, c.checkpoint_path);
  v(F{"checkpoint_every", kOperational}, c.checkpoint_every);
  v(F{"restore_path", kOperational}, c.restore_path);
}

}  // namespace vixnoc
