#include "sim/trace_sim.hpp"

#include <algorithm>

#include "common/error.hpp"
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

NetworkSimResult RunTraceSim(const NetworkSimConfig& config,
                             const PacketTrace& trace) {
  VIXNOC_REQUIRE(config.checkpoint_every == 0 ||
                     !config.checkpoint_path.empty(),
                 "checkpoint_every=%llu needs a checkpoint_path",
                 static_cast<unsigned long long>(config.checkpoint_every));
  auto topology = MakeTopology64(config.topology);
  NetworkParams params;
  params.router.radix = topology->Radix();
  params.router.num_vcs = config.num_vcs;
  params.router.buffer_depth = config.buffer_depth;
  params.router.scheme = config.scheme;
  params.router.arbiter_kind = config.arbiter;
  params.router.vc_policy =
      config.vc_policy.value_or(RouterConfig::DefaultPolicyFor(config.scheme));
  params.router.ap_rotate_vcs = config.ap_rotate_vcs;

  Network net(std::shared_ptr<Topology>(std::move(topology)), params);
  const int num_nodes = net.NumNodes();

  const Cycle measure_start = config.warmup;
  const Cycle measure_end = config.warmup + config.measure;
  const Cycle sim_end = trace.LastCycle() + config.drain + 1;

  RunningStat latency, net_latency;
  Histogram latency_hist(4.0, 4096);
  net.SetEjectCallback([&](const PacketRecord& rec) {
    if (rec.created >= measure_start && rec.created < measure_end) {
      latency.Add(static_cast<double>(rec.ejected - rec.created));
      net_latency.Add(static_cast<double>(rec.ejected - rec.injected));
      latency_hist.Add(static_cast<double>(rec.ejected - rec.created));
    }
  });

  std::vector<NodeCounters> at_start(num_nodes), at_end(num_nodes);
  RouterActivity activity_snapshot;
  std::uint64_t offered = 0;
  TraceReplayer replayer(trace);

  // --- Checkpoint/restore ------------------------------------------------
  // Same contract as RunNetworkSim: a checkpoint captures the state before
  // any work of cycle `next`, so a restored run replays bitwise
  // identically. The fingerprint folds the trace text into the config
  // fingerprint: the trace *is* the injection process here, so restoring
  // against different records must be rejected, not silently resumed.
  const bool snapshots_wanted =
      config.checkpoint_every > 0 || !config.restore_path.empty();
  std::uint64_t trace_fp = 0;
  if (snapshots_wanted) {
    const std::string text = trace.ToText();
    trace_fp = Fnv1a64(text.data(), text.size(),
                       NetworkSimConfigFingerprint(config));
  }
  const auto visit_sim = [&](StateArchive& ar, Cycle& next) {
    ar.U64(next, sim_end + 1, "resume cycle");
    std::uint64_t position = replayer.position();
    ar.U64(position, trace.size() + 1, "trace replay position");
    if (ar.loading()) replayer.set_position(position);
    ar.Object(latency);
    ar.Object(net_latency);
    ar.Object(latency_hist);
    ar.U64(offered);
    for (NodeCounters& c : at_start) ar.Object(c);
    for (NodeCounters& c : at_end) ar.Object(c);
    ar.Object(activity_snapshot);
  };
  const auto serialize_sim = [&](Cycle next) {
    SnapshotWriter w;
    w.BeginSection("trace_sim");
    StateArchive ar(w);
    visit_sim(ar, next);
    w.EndSection();
    w.BeginSection("network");
    net.SaveState(w);
    w.EndSection();
    return w.Finish(trace_fp);
  };

  Cycle start_cycle = 0;
  if (!config.restore_path.empty()) {
    SnapshotReader r(ReadSnapshotFile(config.restore_path));
    VIXNOC_REQUIRE(r.fingerprint() == trace_fp,
                   "checkpoint '%s' was taken under a different trace-sim "
                   "config or trace (fingerprint %016llx, this run is "
                   "%016llx)",
                   config.restore_path.c_str(),
                   static_cast<unsigned long long>(r.fingerprint()),
                   static_cast<unsigned long long>(trace_fp));
    r.OpenSection("trace_sim");
    StateArchive ar(r);
    visit_sim(ar, start_cycle);
    r.CloseSection();
    r.OpenSection("network");
    net.LoadState(r);
    r.CloseSection();
  }

  for (Cycle t = start_cycle; t < sim_end; ++t) {
    if (config.checkpoint_every > 0 && t > 0 && t != start_cycle &&
        t % config.checkpoint_every == 0) {
      WriteSnapshotFile(config.checkpoint_path, serialize_sim(t));
    }
    if (t == measure_start) {
      for (NodeId n = 0; n < num_nodes; ++n) at_start[n] = net.counters(n);
      net.ClearActivity();
    }
    if (t == measure_end) {
      for (NodeId n = 0; n < num_nodes; ++n) at_end[n] = net.counters(n);
      activity_snapshot = net.TotalActivity();
    }
    for (const TraceRecord& r : replayer.TakeDue(t)) {
      net.EnqueuePacket(r.src, r.dst, r.size_flits);
      if (t >= measure_start && t < measure_end) ++offered;
    }
    net.Step();
    if (replayer.Exhausted() && net.Quiescent()) break;
  }
  if (net.now() <= measure_end) {
    // Trace (plus drain) ended inside the measurement window; snapshot now.
    for (NodeId n = 0; n < num_nodes; ++n) at_end[n] = net.counters(n);
    activity_snapshot = net.TotalActivity();
  }

  NetworkSimResult result;
  result.num_nodes = num_nodes;
  result.measure_cycles = config.measure;
  result.offered_ppc = static_cast<double>(offered) /
                       (static_cast<double>(config.measure) * num_nodes);

  std::uint64_t delivered = 0, flits = 0;
  double min_node = 1e300, max_node = 0.0;
  for (NodeId n = 0; n < num_nodes; ++n) {
    const std::uint64_t d =
        at_end[n].packets_delivered - at_start[n].packets_delivered;
    delivered += d;
    flits += at_end[n].flits_ejected - at_start[n].flits_ejected;
    const double ppc =
        static_cast<double>(d) / static_cast<double>(config.measure);
    min_node = std::min(min_node, ppc);
    max_node = std::max(max_node, ppc);
  }
  result.accepted_ppc = static_cast<double>(delivered) /
                        (static_cast<double>(config.measure) * num_nodes);
  result.accepted_fpc =
      static_cast<double>(flits) / static_cast<double>(config.measure);
  result.min_node_ppc = min_node;
  result.max_node_ppc = max_node;
  result.max_min_ratio = min_node > 0.0 ? max_node / min_node : 0.0;
  result.avg_latency = latency.Mean();
  result.avg_net_latency = net_latency.Mean();
  result.p99_latency = latency_hist.Quantile(0.99);
  result.packets_measured = latency.Count();
  result.saturated = result.accepted_ppc < 0.95 * result.offered_ppc;
  result.activity = activity_snapshot;
  return result;
}

}  // namespace vixnoc
