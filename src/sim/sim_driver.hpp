// The one cycle loop behind every network simulation. SimDriver builds the
// network a NetworkSimConfig describes and steps it, doing what every run
// shares: the measurement window and latency statistics, the timeline,
// checkpoint/restore, the rolling pre-deadlock snapshot and the watchdog.
// Packets come from a TrafficSource: the synthetic injector (RunNetworkSim),
// a trace replayer (RunTraceSim) or the manycore model (RunAppSim).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common/stats.hpp"
#include "sim/network_sim.hpp"

namespace vixnoc {

class TrafficSource;

class SimDriver {
 public:
  /// What a run accumulates; a source reads and writes it only in Visit.
  struct State {
    RunningStat latency;      ///< packets created inside the window
    RunningStat net_latency;  ///< the same packets, injection to ejection
    Histogram latency_hist{/*bucket_width=*/4.0, /*num_buckets=*/4096};
    RunningStat interval_latency;  ///< packets ejected this sample interval
    std::uint64_t interval_packets = 0;
    Cycle last_delivery = 0;
    std::uint64_t offered_packets = 0;  ///< enqueued inside the window
    bool window_closed = false;
    std::vector<NodeCounters> at_start;  ///< per node, at measure_start
    std::vector<NodeCounters> at_end;    ///< per node, at measure_end
    RouterActivity activity;             ///< over the window
    /// Timeline, packets_corrupted, frozen telemetry scalars, outcome.
    NetworkSimResult result;
  };

  /// Validates `config` and builds its network: MakeNetworkParams, then
  /// `shape` (the router fields a trace or app run sets itself), then the
  /// fault model, the routing plugin and telemetry, honouring both
  /// factories. `config` must outlive the driver.
  explicit SimDriver(const NetworkSimConfig& config,
                     const std::function<void(NetworkParams&)>& shape = {});
  SimDriver(const SimDriver&) = delete;  // the eject callback holds `this`
  SimDriver& operator=(const SimDriver&) = delete;

  /// Runs `source` from cycle 0 or config.restore_path. A run that ends
  /// early with an ok outcome closes the window where it stops; one that
  /// deadlocks first reports zero metrics.
  NetworkSimResult Run(TrafficSource& source);

  Network& net() { return net_; }
  bool telemetry_enabled() const { return telemetry_ != nullptr; }
  Cycle measure_end() const { return config_.warmup + config_.measure; }

  /// Enqueues a packet at `src`'s NI this cycle, counted as offered load
  /// inside the window. A packet with no surviving path to `dst` is
  /// counted as unreachable instead, not enqueued: it could only hang.
  void Enqueue(NodeId src, NodeId dst, int size_flits) {
    if (routing_->MayBeUnreachable() &&
        !routing_->Reachable(net_.topology().RouterOfNode(src), dst)) {
      ++state_.result.outcome.unreachable_packets;
      return;
    }
    net_.EnqueuePacket(src, dst, size_flits);
    if (InWindow(net_.now())) ++state_.offered_packets;
  }

 private:
  bool InWindow(Cycle t) const {
    return t >= config_.warmup && t < measure_end();
  }
  NetworkParams BuildParams(const std::function<void(NetworkParams&)>& shape);
  void CloseWindow();
  void EndWith(SimStatus status, std::string message);
  std::string Serialize(TrafficSource& source, Cycle next);
  Cycle Restore(TrafficSource& source);
  NetworkSimResult Finish();

  const NetworkSimConfig& config_;
  std::shared_ptr<Topology> topology_;
  std::unique_ptr<RoutingAlgorithm> routing_;  ///< net_ points at these two
  std::unique_ptr<TelemetryCollector> telemetry_;
  Network net_;
  const int num_nodes_;
  State state_;
};

class TrafficSource {
 public:
  /// `end`: the run steps cycles [start, end) at most. Checkpoints are
  /// stamped with `fingerprint` and hold the source's `section`.
  TrafficSource(Cycle end, std::uint64_t fingerprint, const char* section)
      : end(end), fingerprint(fingerprint), section(section) {}
  virtual ~TrafficSource() = default;
  /// Enqueues cycle `t`'s packets at every node, before the network steps.
  /// Returns true once nothing more will come: the run then ends as soon
  /// as the network is quiescent.
  virtual bool Inject(Cycle t) = 0;
  /// Every delivered packet, after the driver has recorded it.
  virtual void OnEject(const PacketRecord&) {}
  /// The section's one Visit: the resume cycle `next`, the source's state
  /// and the driver's `state`, in the section's own order (a no-op
  /// default).
  virtual void Visit(StateArchive&, Cycle& /*next*/,
                     SimDriver::State& /*state*/) {}

  const Cycle end;
  const std::uint64_t fingerprint;
  const char* const section;
};

}  // namespace vixnoc
