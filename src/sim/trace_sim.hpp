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

/// Replay `trace` under `config` (whose injection_rate/pattern/seed are
/// ignored). The network is built by MakeNetworkParams, as RunNetworkSim
/// builds its own, so every router field of the config applies; faults,
/// telemetry, routing plugins, the watchdog and sample_interval do not.
/// The config is checked with ValidateNetworkSimConfig. Measurement uses
/// config.warmup/measure as in RunNetworkSim; after the trace is exhausted
/// the network drains fully (bounded by config.drain extra cycles past the
/// last record).
///
/// Checkpoint/restore works exactly as in RunNetworkSim: with
/// `checkpoint_every` > 0 the full state is written to `checkpoint_path`
/// periodically, and `restore_path` resumes a run bitwise identically to
/// one that never stopped. Checkpoints are stamped with the config
/// fingerprint folded with a hash of the trace contents, so restoring
/// under a different config *or a different trace* throws SimError.
NetworkSimResult RunTraceSim(const NetworkSimConfig& config,
                             const PacketTrace& trace);

}  // namespace vixnoc
