// Telemetry subsystem tests: the zero-overhead contract (disabled telemetry
// is bitwise invisible, enabled telemetry never changes results), the
// conflict-classification logic, the constant-memory window reservoir, the
// packet event trace, and the headline physics claim that dimension
// steering produces fewer same-output virtual-input conflicts than random
// VC assignment.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "sim/network_sim.hpp"
#include "telemetry/telemetry.hpp"

namespace vixnoc {
namespace {

NetworkSimConfig GoldenConfig(AllocScheme scheme) {
  NetworkSimConfig c;
  c.scheme = scheme;
  c.injection_rate = 0.06;
  c.seed = 7;
  c.warmup = 2'000;
  c.measure = 6'000;
  c.drain = 2'000;
  return c;
}

// Golden values captured from this exact config BEFORE the telemetry
// subsystem existed. EXPECT_EQ on doubles is deliberate: the contract is
// bitwise identity, not approximation. If this test fails, a "zero
// overhead" code path changed simulated behaviour.
TEST(TelemetryOverhead, DisabledRunMatchesPreTelemetryGolden) {
  const NetworkSimResult vix = RunNetworkSim(GoldenConfig(AllocScheme::kVix));
  EXPECT_EQ(vix.accepted_ppc, 0.0595078125);
  EXPECT_EQ(vix.accepted_fpc, 15.233333333333333);
  EXPECT_EQ(vix.avg_latency, 29.320171411080576);
  EXPECT_EQ(vix.avg_net_latency, 29.108706108705938);
  EXPECT_EQ(vix.p99_latency, 58.0);
  EXPECT_EQ(vix.min_node_ppc, 0.053999999999999999);
  EXPECT_EQ(vix.max_node_ppc, 0.066000000000000003);
  EXPECT_EQ(vix.max_min_ratio, 1.2222222222222223);
  EXPECT_EQ(vix.packets_measured, 22869u);
  EXPECT_EQ(vix.activity.sa_requests, 750730u);
  EXPECT_EQ(vix.activity.sa_grants, 577517u);
  EXPECT_EQ(vix.activity.xbar_traversals, 577517u);
  EXPECT_FALSE(vix.telemetry.enabled);

  const NetworkSimResult base =
      RunNetworkSim(GoldenConfig(AllocScheme::kInputFirst));
  EXPECT_EQ(base.accepted_ppc, 0.0595078125);
  EXPECT_EQ(base.accepted_fpc, 15.233499999999999);
  EXPECT_EQ(base.avg_latency, 31.070182342909586);
  EXPECT_EQ(base.avg_net_latency, 30.858717040535208);
  EXPECT_EQ(base.p99_latency, 66.0);
  EXPECT_EQ(base.packets_measured, 22869u);
  EXPECT_EQ(base.activity.sa_requests, 821192u);
  EXPECT_EQ(base.activity.sa_grants, 577502u);
}

// Enabling telemetry (even with tracing) must observe, never perturb: every
// simulated metric stays bitwise identical to the disabled run.
TEST(TelemetryOverhead, EnabledRunIsBitwiseIdenticalToDisabled) {
  for (AllocScheme scheme :
       {AllocScheme::kVix, AllocScheme::kInputFirst}) {
    const NetworkSimResult off = RunNetworkSim(GoldenConfig(scheme));
    NetworkSimConfig on_cfg = GoldenConfig(scheme);
    on_cfg.telemetry.enabled = true;
    on_cfg.telemetry.window_cycles = 256;
    on_cfg.telemetry.trace_sample_period = 8;
    const NetworkSimResult on = RunNetworkSim(on_cfg);

    EXPECT_EQ(on.accepted_ppc, off.accepted_ppc);
    EXPECT_EQ(on.accepted_fpc, off.accepted_fpc);
    EXPECT_EQ(on.avg_latency, off.avg_latency);
    EXPECT_EQ(on.avg_net_latency, off.avg_net_latency);
    EXPECT_EQ(on.p99_latency, off.p99_latency);
    EXPECT_EQ(on.max_min_ratio, off.max_min_ratio);
    EXPECT_EQ(on.packets_measured, off.packets_measured);
    EXPECT_EQ(on.activity.sa_requests, off.activity.sa_requests);
    EXPECT_EQ(on.activity.sa_grants, off.activity.sa_grants);
    EXPECT_EQ(on.activity.xbar_traversals, off.activity.xbar_traversals);

    // And the telemetry itself must be present and agree with the router
    // activity counters over the same measurement window.
    ASSERT_TRUE(on.telemetry.enabled);
    EXPECT_EQ(on.telemetry.sa_requests, off.activity.sa_requests);
    EXPECT_EQ(on.telemetry.sa_grants, off.activity.sa_grants);
    EXPECT_FALSE(on.telemetry.windows.empty());
    EXPECT_FALSE(on.telemetry.trace.empty());
  }
}

TEST(TelemetrySummary, InternalConsistency) {
  NetworkSimConfig cfg = GoldenConfig(AllocScheme::kVix);
  cfg.telemetry.enabled = true;
  const NetworkSimResult r = RunNetworkSim(cfg);
  const TelemetrySummary& t = r.telemetry;

  // Separable allocation: every grant passed through one input arbiter and
  // one output arbiter.
  EXPECT_EQ(t.input_arbiter_grants, t.sa_grants);
  EXPECT_EQ(t.output_arbiter_grants, t.sa_grants);
  EXPECT_GE(t.input_arbiter_requests, t.input_arbiter_grants);
  EXPECT_GE(t.output_arbiter_requests, t.output_arbiter_grants);
  // Every (port, vc, cycle) lands in exactly one stall bucket.
  const std::uint64_t states = t.stall_empty + t.stall_va + t.stall_credit +
                               t.stall_sa + t.vc_moving;
  EXPECT_EQ(states, t.cycles * 6u /* num_vcs */ * 5u /* radix */);
  EXPECT_EQ(t.vc_moving, t.sa_grants);
  EXPECT_GT(t.crossbar_utilization, 0.0);
  EXPECT_LE(t.crossbar_utilization, 1.0);
  EXPECT_GE(t.port_multi_request_cycles,
            t.vin_conflict_distinct_output + t.vin_conflict_same_output);
  EXPECT_GT(t.mean_port_occupancy, 0.0);
  EXPECT_GE(t.p99_port_occupancy, t.mean_port_occupancy);
}

// --- conflict classification on hand-crafted request sets -----------------

SwitchGeometry VixGeom() {
  SwitchGeometry g;
  g.num_inports = 2;
  g.num_outports = 2;
  g.num_vcs = 4;
  g.num_vins = 2;  // contiguous: vcs {0,1} -> vin 0, {2,3} -> vin 1
  return g;
}

/// RecordAllocationCycle over a request list.
void Record(RouterTelemetry& rt, const std::vector<SaRequest>& requests,
            const std::vector<SaGrant>& grants) {
  rt.RecordAllocationCycle(SwitchRequestSet(rt.geometry(), requests).view(),
                           grants);
}

TEST(RouterTelemetryClassify, DistinctVinsDistinctOutputsIsVixWin) {
  RouterTelemetry rt;
  rt.Init(VixGeom(), /*buffer_depth=*/4);
  Record(rt, {{0, 0, 0}, {0, 2, 1}}, {});
  EXPECT_EQ(rt.port_conflicts[0].multi_request_cycles, 1u);
  EXPECT_EQ(rt.port_conflicts[0].vin_distinct_output_cycles, 1u);
  EXPECT_EQ(rt.port_conflicts[0].vin_same_output_cycles, 0u);
  EXPECT_EQ(rt.port_conflicts[0].single_vin_serialized_cycles, 0u);
  EXPECT_EQ(rt.port_conflicts[1].multi_request_cycles, 0u);
}

TEST(RouterTelemetryClassify, DistinctVinsSameOutputIsPolicyMiss) {
  RouterTelemetry rt;
  rt.Init(VixGeom(), 4);
  Record(rt, {{0, 1, 1}, {0, 3, 1}}, {});
  EXPECT_EQ(rt.port_conflicts[0].multi_request_cycles, 1u);
  EXPECT_EQ(rt.port_conflicts[0].vin_distinct_output_cycles, 0u);
  EXPECT_EQ(rt.port_conflicts[0].vin_same_output_cycles, 1u);
}

TEST(RouterTelemetryClassify, SameVinDistinctOutputsIsSerialized) {
  RouterTelemetry rt;
  rt.Init(VixGeom(), 4);
  Record(rt, {{1, 0, 0}, {1, 1, 1}}, {});
  EXPECT_EQ(rt.port_conflicts[1].multi_request_cycles, 1u);
  EXPECT_EQ(rt.port_conflicts[1].single_vin_serialized_cycles, 1u);
  EXPECT_EQ(rt.port_conflicts[1].vin_distinct_output_cycles, 0u);
  EXPECT_EQ(rt.port_conflicts[1].vin_same_output_cycles, 0u);
}

TEST(RouterTelemetryClassify, SingleRequestIsNotAConflict) {
  RouterTelemetry rt;
  rt.Init(VixGeom(), 4);
  Record(rt, {{0, 0, 0}}, {});
  EXPECT_EQ(rt.port_conflicts[0].multi_request_cycles, 0u);
  EXPECT_EQ(rt.sa_requests, 1u);
  EXPECT_EQ(rt.cycles, 1u);
}

TEST(RouterTelemetryClassify, GrantMaskTracksLatestCycleOnly) {
  RouterTelemetry rt;
  rt.Init(VixGeom(), 4);
  SaGrant g;
  g.in_port = 0;
  g.vin = 0;
  g.vc = 1;
  g.out_port = 0;
  Record(rt, {{0, 1, 0}}, {g});
  EXPECT_TRUE(rt.WasGranted(0, 1));
  EXPECT_FALSE(rt.WasGranted(0, 0));
  EXPECT_EQ(rt.grants_per_out[0], 1u);
  Record(rt, {}, {});
  EXPECT_FALSE(rt.WasGranted(0, 1));  // mask rebuilt, counter kept
  EXPECT_EQ(rt.grants_per_out[0], 1u);
}

// --- window reservoir ------------------------------------------------------

TEST(TelemetryWindows, ReservoirMergesToConstantMemory) {
  TelemetryConfig cfg;
  cfg.enabled = true;
  cfg.window_cycles = 4;
  cfg.max_windows = 4;
  TelemetryCollector col(cfg);
  col.AttachRouters(1, VixGeom(), 4);

  // Drive 1 sa_request per cycle for 64 cycles: far more raw windows (16)
  // than the reservoir holds (4), forcing repeated pair-merges.
  for (Cycle t = 0; t < 64; ++t) {
    ++col.router(0).sa_requests;
    col.Tick(t);
  }

  const std::vector<TelemetryWindow>& windows = col.windows();
  ASSERT_FALSE(windows.empty());
  EXPECT_LT(windows.size(), cfg.max_windows);
  EXPECT_GT(col.window_width(), cfg.window_cycles);

  // Coverage is contiguous from cycle 0 and no request was lost or double
  // counted by the merges.
  Cycle expected_start = 0;
  std::uint64_t total_requests = 0;
  for (const TelemetryWindow& w : windows) {
    EXPECT_EQ(w.start, expected_start);
    // Each window's request count equals its width (1 request per cycle):
    // the merge preserved per-window deltas exactly.
    EXPECT_EQ(w.sa_requests, w.width);
    expected_start += w.width;
    total_requests += w.sa_requests;
  }
  EXPECT_EQ(expected_start, 64u);
  EXPECT_EQ(total_requests, 64u);
}

TEST(TelemetryWindows, ResetCountersKeepsWindowDeltasConsistent) {
  TelemetryConfig cfg;
  cfg.enabled = true;
  cfg.window_cycles = 8;
  cfg.max_windows = 16;
  TelemetryCollector col(cfg);
  col.AttachRouters(1, VixGeom(), 4);
  for (Cycle t = 0; t < 8; ++t) {
    ++col.router(0).sa_requests;
    col.Tick(t);
  }
  ASSERT_EQ(col.windows().size(), 1u);
  EXPECT_EQ(col.windows()[0].sa_requests, 8u);
  // Measurement-window start: counters zeroed mid-run. The next window must
  // not underflow (monotonic totals were re-based along with the counters).
  col.ResetCounters();
  for (Cycle t = 8; t < 16; ++t) {
    ++col.router(0).sa_requests;
    col.Tick(t);
  }
  ASSERT_EQ(col.windows().size(), 2u);
  EXPECT_EQ(col.windows()[1].sa_requests, 8u);
}

// --- packet event trace ----------------------------------------------------

TEST(TelemetryTrace, SampledPacketsHaveOrderedMilestones) {
  NetworkSimConfig cfg = GoldenConfig(AllocScheme::kVix);
  cfg.warmup = 500;
  cfg.measure = 1'500;
  cfg.drain = 1'000;
  cfg.telemetry.enabled = true;
  cfg.telemetry.trace_sample_period = 4;
  const NetworkSimResult r = RunNetworkSim(cfg);
  ASSERT_FALSE(r.telemetry.trace.empty());

  struct PacketTrail {
    std::vector<PacketTraceEvent> events;
  };
  std::map<PacketId, PacketTrail> trails;
  Cycle last_cycle = 0;
  for (const PacketTraceEvent& ev : r.telemetry.trace) {
    EXPECT_EQ(ev.packet % cfg.telemetry.trace_sample_period, 0u);
    EXPECT_GE(ev.cycle, last_cycle);  // buffer is appended in cycle order
    last_cycle = ev.cycle;
    trails[ev.packet].events.push_back(ev);
  }

  int complete = 0;
  for (const auto& [id, trail] : trails) {
    Cycle prev = 0;
    bool injected = false, ejected = false;
    for (const PacketTraceEvent& ev : trail.events) {
      EXPECT_GE(ev.cycle, prev);
      prev = ev.cycle;
      switch (ev.kind) {
        case PacketTraceEvent::Kind::kInject:
          EXPECT_FALSE(injected);  // exactly one inject, and it comes first
          EXPECT_EQ(ev.router, -1);
          injected = true;
          break;
        case PacketTraceEvent::Kind::kVcAlloc:
        case PacketTraceEvent::Kind::kSaGrant:
          EXPECT_TRUE(injected);
          EXPECT_GE(ev.router, 0);
          EXPECT_FALSE(ejected);
          break;
        case PacketTraceEvent::Kind::kEject:
          EXPECT_TRUE(injected);
          EXPECT_EQ(ev.router, -1);
          ejected = true;
          break;
      }
    }
    if (injected && ejected) ++complete;
  }
  // Most sampled packets (all but those in flight at the cutoffs) have a
  // full inject -> ... -> eject trail.
  EXPECT_GT(complete, 0);
}

TEST(TelemetryTrace, JsonlLineMatchesDocumentedSchema) {
  PacketTraceEvent ev;
  ev.packet = 42;
  ev.kind = PacketTraceEvent::Kind::kSaGrant;
  ev.cycle = 1234;
  ev.router = 7;
  ev.src = 3;
  ev.dst = 60;
  char buf[256] = {};
  std::FILE* f = fmemopen(buf, sizeof buf, "w");
  ASSERT_NE(f, nullptr);
  WriteTraceEventJson(f, ev);
  std::fclose(f);
  EXPECT_STREQ(buf,
               "{\"packet\": 42, \"event\": \"sa_grant\", \"cycle\": 1234, "
               "\"router\": 7, \"src\": 3, \"dst\": 60}\n");
}

// --- the physics claim the bench is built on -------------------------------

// Dimension steering exists to put packets heading to different outputs
// into different virtual inputs. Random assignment wastes crossbar inputs
// on same-output conflicts far more often.
TEST(TelemetryConflicts, SteeredPolicyBeatsRandomAssignment) {
  auto run = [](VcAssignPolicy policy) {
    NetworkSimConfig c;
    c.scheme = AllocScheme::kVix;
    c.vc_policy = policy;
    c.injection_rate = 0.09;
    c.seed = 11;
    c.warmup = 1'000;
    c.measure = 4'000;
    c.drain = 1'000;
    c.telemetry.enabled = true;
    return RunNetworkSim(c);
  };
  const NetworkSimResult steered = run(VcAssignPolicy::kVixDimension);
  const NetworkSimResult random = run(VcAssignPolicy::kRandomFree);
  ASSERT_TRUE(steered.outcome.ok());
  ASSERT_TRUE(random.outcome.ok());
  ASSERT_GT(steered.telemetry.port_multi_request_cycles, 1'000u);
  ASSERT_GT(random.telemetry.port_multi_request_cycles, 1'000u);
  EXPECT_LT(steered.telemetry.same_output_conflict_rate,
            random.telemetry.same_output_conflict_rate);
}

}  // namespace
}  // namespace vixnoc
