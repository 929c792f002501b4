#include "sim/trace_sim.hpp"

#include <string>

#include "common/error.hpp"
#include "sim/sim_driver.hpp"
#include "snapshot/snapshot.hpp"
#include "snapshot/state_archive.hpp"

namespace vixnoc {

PacketTrace GeneratePatternTrace(PatternKind pattern, double rate,
                                 int num_nodes, Cycle cycles,
                                 int packet_size, std::uint64_t seed) {
  auto pat = MakePattern(pattern);
  Rng rng(seed);
  PacketTrace trace;
  for (Cycle t = 0; t < cycles; ++t) {
    for (NodeId n = 0; n < num_nodes; ++n) {
      if (rng.NextBool(rate)) {
        trace.Add(TraceRecord{t, n, pat->Dest(n, num_nodes, rng),
                              packet_size});
      }
    }
  }
  return trace;
}

namespace {

// The trace *is* the injection process here, so checkpoints fold its text
// into the config fingerprint: restoring against different records is
// rejected, not silently resumed.
std::uint64_t TraceFingerprint(const NetworkSimConfig& config,
                               const PacketTrace& trace) {
  if (config.checkpoint_every == 0 && config.restore_path.empty() &&
      config.deadlock_checkpoint_path.empty()) {
    return 0;  // never checkpointed: skip hashing the trace
  }
  const std::string text = trace.ToText();
  return Fnv1a64(text.data(), text.size(), NetworkSimConfigFingerprint(config));
}

/// Replays a trace's records at their cycles.
class TraceSource final : public TrafficSource {
 public:
  TraceSource(const NetworkSimConfig& config, const PacketTrace& trace,
              SimDriver& driver)
      : TrafficSource(trace.LastCycle() + config.drain + 1,
                      TraceFingerprint(config, trace), "trace_sim"),
        trace_(trace),
        driver_(driver),
        replayer_(trace) {}

  bool Inject(Cycle t) override {
    for (const TraceRecord& r : replayer_.TakeDue(t)) {
      driver_.Enqueue(r.src, r.dst, r.size_flits);
    }
    return replayer_.Exhausted();
  }

  void Visit(StateArchive& ar, Cycle& next, SimDriver::State& s) override {
    ar.U64(next, end + 1, "resume cycle");
    std::uint64_t position = replayer_.position();
    ar.U64(position, trace_.size() + 1, "trace replay position");
    if (ar.loading()) {
      replayer_.set_position(position);
      // The section has no flag for it: the window closes as cycle
      // measure_end begins, after that cycle's checkpoint.
      s.window_closed = next > driver_.measure_end();
    }
    ar.Object(s.latency);
    ar.Object(s.net_latency);
    ar.Object(s.latency_hist);
    ar.U64(s.offered_packets);
    for (NodeCounters& c : s.at_start) ar.Object(c);
    for (NodeCounters& c : s.at_end) ar.Object(c);
    ar.Object(s.activity);
  }

 private:
  const PacketTrace& trace_;
  SimDriver& driver_;
  TraceReplayer replayer_;
};

}  // namespace

NetworkSimResult RunTraceSim(const NetworkSimConfig& config,
                             const PacketTrace& trace) {
  // The trace_sim section holds the window statistics and the replay
  // position only; refuse a run whose state a resume could not restore,
  // the rolling pre-deadlock snapshot included.
  const bool snapshots = config.checkpoint_every > 0 ||
                         !config.restore_path.empty() ||
                         !config.deadlock_checkpoint_path.empty();
  VIXNOC_REQUIRE(!snapshots || (!config.telemetry.enabled &&
                                config.sample_interval == 0 &&
                                !config.faults.Enabled()),
                 "trace runs cannot checkpoint or restore with telemetry, "
                 "sample_interval or faults enabled: the trace_sim section "
                 "does not hold their state");
  // Traces ignore config.seed, the VA RNG's seed included.
  SimDriver driver(config,
                   [](NetworkParams& p) { p.router.vc_rng_seed = 0; });
  TraceSource source(config, trace, driver);
  return driver.Run(source);
}

}  // namespace vixnoc
