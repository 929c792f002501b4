// Per-layer probes of the traced run.
//
// Each probe calls one layer's public functions from the benchmark's own
// code, on inputs taken from the workload just run (its configs, results
// and the request density its routers saw), and reports the per-layer
// metrics named in BENCHMARK.json. Network::Step and injection are timed in
// a replica of RunNetworkSim's loop that the benchmark owns; the replica
// must reproduce RunNetworkSim's activity counters and packets_measured
// exactly, or the layer numbers describe another program and are refused.
#pragma once

#include <string>
#include <vector>

#include "core.hpp"
#include "network/network.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace vixnoc::perfbench {

/// What RunNetworkSim's loop does to a network, replayed step by step with
/// host time split between injection and Network::Step.
struct ReplicaRun {
  std::uint64_t cycles = 0;
  std::uint64_t step_ns = 0;
  std::uint64_t inject_ns = 0;
  int routers = 0;
  RouterActivity activity;  ///< over the measurement window
  std::uint64_t packets_measured = 0;
};

/// Runs the replica loop for a fault-free, telemetry-free config.
ReplicaRun RunReplica(const NetworkSimConfig& config);

/// True when the replica reproduced `reference` (RunNetworkSim's result
/// for the same config) exactly.
bool ReplicaMatches(const ReplicaRun& replica,
                    const NetworkSimResult& reference);

/// Runs every probe for `workload`, given its traced rounds. Failed
/// cross-checks (including replica equivalence) count in `tally`.
std::vector<Metric> ProbeLayers(const std::string& workload, const Env& env,
                                const RoundStats& traced, Tracer& tracer,
                                Tally* tally);

}  // namespace vixnoc::perfbench
