// Trace-driven network simulation: replay an exact packet schedule instead
// of drawing from a statistical process. Using one trace across allocator
// schemes removes injection-process noise from comparisons entirely —
// every scheme sees the same packets at the same cycles.
#pragma once

#include "sim/network_sim.hpp"
#include "traffic/trace.hpp"

namespace vixnoc {

/// Build a trace by sampling a statistical pattern: Bernoulli(rate) per
/// node per cycle for `cycles` cycles, fixed `packet_size`.
PacketTrace GeneratePatternTrace(PatternKind pattern, double rate,
                                 int num_nodes, Cycle cycles,
                                 int packet_size, std::uint64_t seed);

/// Replay `trace` under `config` through the same SimDriver as
/// RunNetworkSim. injection_rate and pattern are ignored, and seed only
/// seeds a fault schedule whose faults.seed is 0; every other field
/// applies. Measurement uses config.warmup/measure; after the trace is
/// exhausted the network drains fully (bounded by config.drain extra
/// cycles past the last record). Records with no surviving path under
/// permanent faults are skipped and counted, as in RunNetworkSim, and end
/// the run kUndeliverable.
///
/// Checkpoint/restore works as in RunNetworkSim, in a `trace_sim` section
/// stamped with the config fingerprint folded with a hash of the trace, so
/// restoring under a different config *or a different trace* throws
/// SimError. That section holds no timeline, telemetry or fault counters:
/// checkpoint_every, restore_path or deadlock_checkpoint_path combined
/// with telemetry.enabled, sample_interval > 0 or enabled faults throws
/// SimError.
NetworkSimResult RunTraceSim(const NetworkSimConfig& config,
                             const PacketTrace& trace);

}  // namespace vixnoc
