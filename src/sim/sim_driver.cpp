#include "sim/sim_driver.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "routing/registry.hpp"
#include "snapshot/snapshot.hpp"
#include "snapshot/state_archive.hpp"

namespace vixnoc {

SimDriver::SimDriver(const NetworkSimConfig& config,
                     const std::function<void(NetworkParams&)>& shape)
    : config_(config),
      topology_(config.topology_factory ? config.topology_factory()
                                        : MakeTopology64(config.topology)),
      net_(topology_, BuildParams(shape)),
      num_nodes_(net_.NumNodes()) {
  state_.at_start = state_.at_end = std::vector<NodeCounters>(num_nodes_);
}

NetworkParams SimDriver::BuildParams(
    const std::function<void(NetworkParams&)>& shape) {
  ValidateNetworkSimConfig(config_);
  NetworkParams params = MakeNetworkParams(config_, topology_->Radix());
  if (shape) shape(params);

  // Fault schedule and the routing plugin are pure functions of the config,
  // so results are identical regardless of how a sweep is threaded.
  RoutingBuildContext routing_ctx;
  if (config_.faults.Enabled()) {
    params.faults = std::make_shared<const FaultModel>(
        *topology_, config_.faults,
        config_.faults.seed != 0 ? config_.faults.seed : config_.seed);
    routing_ctx.dead_links = params.faults->permanent_down();
  }
  // The default routing detours around permanent faults (legacy behavior);
  // an *explicit* non-default plugin must be fault-compatible or the
  // registry rejects it.
  const std::string routing_name =
      config_.routing == "dor" && !routing_ctx.dead_links.empty()
          ? "fault_aware"
          : config_.routing;
  routing_ = config_.routing_factory
                 ? config_.routing_factory(*topology_)
                 : MakeRoutingAlgorithm(routing_name, *topology_, routing_ctx);
  VIXNOC_CHECK(routing_ != nullptr);
  params.routing = routing_.get();

  if (config_.telemetry.enabled) {
    telemetry_ = std::make_unique<TelemetryCollector>(config_.telemetry);
    params.telemetry = telemetry_.get();
  }
  return params;
}

void SimDriver::CloseWindow() {
  for (NodeId n = 0; n < num_nodes_; ++n) state_.at_end[n] = net_.counters(n);
  state_.activity = net_.TotalActivity();
  state_.window_closed = true;
  // Counter aggregates freeze here; windows and trace (read again in
  // Finish) keep running through the drain.
  if (telemetry_) state_.result.telemetry = telemetry_->Summarize();
}

void SimDriver::EndWith(SimStatus status, std::string message) {
  SimOutcome& outcome = state_.result.outcome;
  outcome.status = status;
  outcome.cycle = net_.now();
  outcome.router_occupancy = net_.OccupancySnapshot();
  outcome.message = std::move(message);
}

// A checkpoint holds the state *before* any work of cycle `next`, so a
// restored run re-executes cycle `next` in full and replays bitwise
// identically. Saving only reads state (no RNG draws): it never perturbs
// the run.
std::string SimDriver::Serialize(TrafficSource& source, Cycle next) {
  SnapshotWriter w;
  w.BeginSection(source.section);
  StateArchive ar(w);
  source.Visit(ar, next, state_);
  w.EndSection();
  w.BeginSection("network");
  net_.SaveState(w);
  w.EndSection();
  if (telemetry_ != nullptr) {
    w.BeginSection("telemetry");
    StateArchive::Save(w, *telemetry_);
    w.EndSection();
  }
  return w.Finish(source.fingerprint);
}

Cycle SimDriver::Restore(TrafficSource& source) {
  SnapshotReader r(ReadSnapshotFile(config_.restore_path));
  VIXNOC_REQUIRE(r.fingerprint() == source.fingerprint,
                 "checkpoint '%s' was taken under a different config or "
                 "traffic (fingerprint %016llx, this run is %016llx)",
                 config_.restore_path.c_str(),
                 static_cast<unsigned long long>(r.fingerprint()),
                 static_cast<unsigned long long>(source.fingerprint));
  Cycle next = 0;
  r.OpenSection(source.section);
  StateArchive ar(r);
  source.Visit(ar, next, state_);
  r.CloseSection();
  r.OpenSection("network");
  net_.LoadState(r);
  r.CloseSection();
  if (telemetry_ != nullptr && r.HasSection("telemetry")) {
    r.OpenSection("telemetry");
    StateArchive::Load(r, *telemetry_);
    r.CloseSection();
  }
  return next;
}

NetworkSimResult SimDriver::Run(TrafficSource& source) {
  State& s = state_;
  net_.SetEjectCallback([&](const PacketRecord& rec) {
    s.last_delivery = rec.ejected;
    if (rec.corrupted) ++s.result.packets_corrupted;
    const auto latency = static_cast<double>(rec.ejected - rec.created);
    if (InWindow(rec.created)) {
      s.latency.Add(latency);
      s.net_latency.Add(static_cast<double>(rec.ejected - rec.injected));
      s.latency_hist.Add(latency);
    }
    if (config_.sample_interval > 0) {
      s.interval_latency.Add(latency);
      ++s.interval_packets;
    }
    source.OnEject(rec);
  });
  const Cycle start = config_.restore_path.empty() ? 0 : Restore(source);

  // Rolling pre-deadlock snapshots: two alternating in-memory blobs, so
  // that when the watchdog fires the older one is guaranteed to predate
  // the detection point by at least one full watchdog window.
  const Cycle watchdog = config_.watchdog_cycles;
  const bool rolling =
      watchdog > 0 && !config_.deadlock_checkpoint_path.empty();
  std::string rolling_prev, rolling_cur;

  for (Cycle t = start; t < source.end; ++t) {
    if (config_.checkpoint_every > 0 && t > 0 && t != start &&
        t % config_.checkpoint_every == 0) {
      WriteSnapshotFile(config_.checkpoint_path, Serialize(source, t));
    }
    if (rolling && t % watchdog == 0) {
      rolling_prev = std::move(rolling_cur);
      rolling_cur = Serialize(source, t);
    }
    if (config_.sample_interval > 0 && t > 0 &&
        t % config_.sample_interval == 0) {
      IntervalSample sample;
      sample.start = t - config_.sample_interval;
      sample.packets = s.interval_packets;
      sample.accepted_ppc =
          static_cast<double>(s.interval_packets) /
          (static_cast<double>(config_.sample_interval) * num_nodes_);
      sample.avg_latency = s.interval_latency.Mean();
      s.result.timeline.push_back(sample);
      s.interval_latency.Reset();
      s.interval_packets = 0;
    }
    if (t == config_.warmup) {
      for (NodeId n = 0; n < num_nodes_; ++n) s.at_start[n] = net_.counters(n);
      net_.ClearActivity();
      if (telemetry_) telemetry_->ResetCounters();
    }
    if (t == measure_end()) CloseWindow();
    const bool exhausted = source.Inject(t);
    net_.Step();
    if (watchdog > 0 && net_.SuspectedDeadlock(watchdog)) {
      EndWith(SimStatus::kDeadlock,
              "no flit movement for " + std::to_string(watchdog) +
                  " cycles with flits in flight (detected at cycle " +
                  std::to_string(net_.now()) + ")");
      const std::string& blob = rolling_prev.empty() ? rolling_cur
                                                     : rolling_prev;
      if (!blob.empty()) {
        // Persist the pre-deadlock state for post-mortem replay (restore
        // it with tracing enabled to watch the final cycles wedge).
        WriteSnapshotFile(config_.deadlock_checkpoint_path, blob);
        s.result.outcome.checkpoint_path = config_.deadlock_checkpoint_path;
      }
      break;
    }
    if (exhausted && net_.Quiescent()) break;
  }
  return Finish();
}

NetworkSimResult SimDriver::Finish() {
  State& s = state_;
  NetworkSimResult& r = s.result;
  // One window rule: a run that ends early with an ok outcome (a drained
  // trace, or no drain at all) closes the window where it stops. A
  // deadlock leaves it open and the metrics zero, not garbage.
  if (!s.window_closed && r.outcome.ok()) CloseWindow();
  r.num_nodes = num_nodes_;
  r.measure_cycles = config_.measure;
  const double node_cycles = static_cast<double>(config_.measure) * num_nodes_;
  r.offered_ppc = static_cast<double>(s.offered_packets) / node_cycles;
  if (telemetry_ != nullptr) {
    // Without a frozen snapshot, fall back to end-of-run aggregates so the
    // telemetry is never silently empty (the outcome marks the run).
    if (!s.window_closed) r.telemetry = telemetry_->Summarize();
    r.telemetry.windows = telemetry_->windows();
    r.telemetry.trace = telemetry_->trace_events();
  }

  if (s.window_closed) {
    std::uint64_t delivered_total = 0;
    std::uint64_t flits_total = 0;
    double min_node = 1e300, max_node = 0.0;
    for (NodeId n = 0; n < num_nodes_; ++n) {
      const std::uint64_t delivered =
          s.at_end[n].packets_delivered - s.at_start[n].packets_delivered;
      delivered_total += delivered;
      flits_total += s.at_end[n].flits_ejected - s.at_start[n].flits_ejected;
      const double node_ppc =
          static_cast<double>(delivered) / static_cast<double>(config_.measure);
      min_node = std::min(min_node, node_ppc);
      max_node = std::max(max_node, node_ppc);
    }
    r.accepted_ppc = static_cast<double>(delivered_total) / node_cycles;
    r.accepted_fpc =
        static_cast<double>(flits_total) / static_cast<double>(config_.measure);
    r.min_node_ppc = min_node;
    r.max_node_ppc = max_node;
    r.max_min_ratio = min_node > 0.0 ? max_node / min_node : 0.0;
    r.avg_latency = s.latency.Mean();
    r.avg_net_latency = s.net_latency.Mean();
    r.p99_latency = s.latency_hist.Quantile(0.99);
    r.packets_measured = s.latency.Count();
    r.saturated = r.accepted_ppc < 0.95 * r.offered_ppc;
    r.activity = s.activity;
  }

  if (r.outcome.ok() && config_.faults.Enabled()) {
    if (r.outcome.unreachable_packets > 0) {
      EndWith(SimStatus::kUndeliverable,
              std::to_string(r.outcome.unreachable_packets) +
                  " packets had no surviving path to their destination");
    } else if (config_.watchdog_cycles > 0 && !net_.Quiescent() &&
               !r.saturated &&
               net_.now() - s.last_delivery > config_.watchdog_cycles) {
      // Flits are in flight but nothing has been *delivered* for a whole
      // watchdog window — livelock, or traffic wedged short of the full
      // no-movement deadlock criterion. (Injection continues through the
      // drain by design, so mere non-quiescence at the end is normal.)
      EndWith(SimStatus::kUndeliverable,
              "no packet delivered since cycle " +
                  std::to_string(s.last_delivery) +
                  " with flits still in flight at end of drain");
    }
  }
  return std::move(r);
}

}  // namespace vixnoc
