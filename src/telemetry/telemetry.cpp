#include "telemetry/telemetry.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/error.hpp"
#include "snapshot/state_archive.hpp"

namespace vixnoc {

const char* ToString(PacketTraceEvent::Kind kind) {
  switch (kind) {
    case PacketTraceEvent::Kind::kInject:
      return "inject";
    case PacketTraceEvent::Kind::kVcAlloc:
      return "vc_alloc";
    case PacketTraceEvent::Kind::kSaGrant:
      return "sa_grant";
    case PacketTraceEvent::Kind::kEject:
      return "eject";
  }
  return "?";
}

void RouterTelemetry::Init(const SwitchGeometry& geom, int buffer_depth) {
  VIXNOC_CHECK(geom.Valid());
  VIXNOC_CHECK(buffer_depth >= 1);
  geom_ = geom;
  alloc.Resize(geom);
  port_conflicts.assign(geom.num_inports, PortConflictCounters{});
  vc_stalls.assign(static_cast<std::size_t>(geom.num_inports) * geom.num_vcs,
                   VcStallCounters{});
  grants_per_out.assign(geom.num_outports, 0);
  occupancy_counts_.assign(
      static_cast<std::size_t>(geom.num_vcs) * buffer_depth + 1, 0);
  granted_.assign(static_cast<std::size_t>(geom.num_inports) * geom.num_vcs,
                  false);
  req_vin_.resize(static_cast<std::size_t>(geom.num_inports) * geom.num_vcs);
  req_out_.resize(static_cast<std::size_t>(geom.num_inports) * geom.num_vcs);
  req_count_.resize(geom.num_inports);
  cycles = sa_requests = sa_grants = 0;
}

void RouterTelemetry::Clear() {
  alloc.Clear();
  std::fill(port_conflicts.begin(), port_conflicts.end(),
            PortConflictCounters{});
  std::fill(vc_stalls.begin(), vc_stalls.end(), VcStallCounters{});
  std::fill(grants_per_out.begin(), grants_per_out.end(), 0);
  std::fill(occupancy_counts_.begin(), occupancy_counts_.end(), 0);
  cycles = sa_requests = sa_grants = 0;
}

void RouterTelemetry::RecordAllocationCycle(
    const SwitchRequestView& requests, const std::vector<SaGrant>& grants) {
  ++cycles;
  sa_requests += static_cast<std::uint64_t>(requests.Count());
  sa_grants += grants.size();

  std::fill(granted_.begin(), granted_.end(), false);
  for (const SaGrant& g : grants) {
    granted_[static_cast<std::size_t>(g.in_port) * geom_.num_vcs + g.vc] =
        true;
    ++grants_per_out[g.out_port];
  }

  // Group this cycle's requests by input port, keeping each one's
  // (virtual input, output) pair, then classify every multi-request port.
  std::fill(req_count_.begin(), req_count_.end(), 0);
  requests.ForEach([&](PortId in, VcId vc, PortId out) {
    const std::size_t slot =
        static_cast<std::size_t>(in) * geom_.num_vcs + req_count_[in];
    req_vin_[slot] = geom_.VinOfVc(vc);
    req_out_[slot] = out;
    ++req_count_[in];
  });
  for (PortId p = 0; p < geom_.num_inports; ++p) {
    const int n = req_count_[p];
    if (n < 2) continue;
    PortConflictCounters& pc = port_conflicts[p];
    ++pc.multi_request_cycles;
    const std::size_t base = static_cast<std::size_t>(p) * geom_.num_vcs;
    bool vins_differ = false;
    bool outs_differ = false;
    for (int i = 1; i < n && !(vins_differ && outs_differ); ++i) {
      vins_differ |= req_vin_[base + i] != req_vin_[base];
      outs_differ |= req_out_[base + i] != req_out_[base];
    }
    if (vins_differ) {
      // With >= 2 distinct virtual inputs and >= 2 distinct outputs, some
      // pair of requests differs in both, so two flits can leave this port
      // this cycle; with one common output, the crossbar's extra input is
      // wasted on an output-port conflict.
      if (outs_differ) {
        ++pc.vin_distinct_output_cycles;
      } else {
        ++pc.vin_same_output_cycles;
      }
    } else if (outs_differ) {
      ++pc.single_vin_serialized_cycles;
    }
  }
}

void RouterTelemetry::RecordVcState(PortId p, VcId c, VcState s) {
  VcStallCounters& vs =
      vc_stalls[static_cast<std::size_t>(p) * geom_.num_vcs + c];
  switch (s) {
    case VcState::kEmpty:
      ++vs.empty;
      break;
    case VcState::kVaStall:
      ++vs.va_stall;
      break;
    case VcState::kCreditStall:
      ++vs.credit_stall;
      break;
    case VcState::kSaStall:
      ++vs.sa_stall;
      break;
    case VcState::kMoving:
      ++vs.moving;
      break;
  }
}

TelemetryCollector::TelemetryCollector(const TelemetryConfig& config)
    : config_(config) {
  VIXNOC_REQUIRE(config_.window_cycles >= 1,
                 "telemetry window_cycles must be >= 1, got %llu",
                 static_cast<unsigned long long>(config_.window_cycles));
  VIXNOC_REQUIRE(config_.max_windows >= 2,
                 "telemetry max_windows must be >= 2, got %zu",
                 config_.max_windows);
  window_width_ = config_.window_cycles;
  windows_.reserve(config_.max_windows);
  trace_.reserve(std::min<std::size_t>(config_.max_trace_events, 4'096));
}

void TelemetryCollector::AttachRouters(int num_routers,
                                       const SwitchGeometry& geom,
                                       int buffer_depth) {
  routers_.resize(num_routers);
  for (RouterTelemetry& rt : routers_) rt.Init(geom, buffer_depth);
}

void TelemetryCollector::ResetCounters() {
  for (RouterTelemetry& rt : routers_) rt.Clear();
  packets_ejected_ = 0;
  // Windows measure deltas against this snapshot; re-basing it to the
  // freshly zeroed totals keeps the open window consistent (it simply loses
  // the pre-reset part of its span).
  last_totals_ = WindowTotals{};
}

TelemetryCollector::WindowTotals TelemetryCollector::CurrentTotals() const {
  WindowTotals t;
  for (const RouterTelemetry& rt : routers_) {
    t.sa_requests += rt.sa_requests;
    t.sa_grants += rt.sa_grants;
    for (const PortConflictCounters& pc : rt.port_conflicts) {
      t.conflicts_distinct += pc.vin_distinct_output_cycles;
      t.conflicts_same += pc.vin_same_output_cycles;
    }
  }
  t.packets_ejected = packets_ejected_;
  return t;
}

void TelemetryCollector::Tick(Cycle now) {
  // Called once per simulated cycle; the window [start, start + width)
  // closes after its last cycle has been processed.
  while (now + 1 >= window_start_ + window_width_) {
    const WindowTotals totals = CurrentTotals();
    TelemetryWindow w;
    w.start = window_start_;
    w.width = window_width_;
    w.sa_requests = totals.sa_requests - last_totals_.sa_requests;
    w.sa_grants = totals.sa_grants - last_totals_.sa_grants;
    w.vin_conflicts_distinct =
        totals.conflicts_distinct - last_totals_.conflicts_distinct;
    w.vin_conflicts_same = totals.conflicts_same - last_totals_.conflicts_same;
    w.packets_ejected = totals.packets_ejected - last_totals_.packets_ejected;
    windows_.push_back(w);
    last_totals_ = totals;
    window_start_ += window_width_;

    if (windows_.size() >= config_.max_windows) {
      // Reservoir full: merge adjacent pairs (halving the count, keeping
      // coverage contiguous) and double the width of future windows.
      std::size_t out = 0;
      for (std::size_t i = 0; i < windows_.size(); i += 2) {
        TelemetryWindow merged = windows_[i];
        if (i + 1 < windows_.size()) {
          const TelemetryWindow& b = windows_[i + 1];
          merged.width += b.width;
          merged.sa_requests += b.sa_requests;
          merged.sa_grants += b.sa_grants;
          merged.vin_conflicts_distinct += b.vin_conflicts_distinct;
          merged.vin_conflicts_same += b.vin_conflicts_same;
          merged.packets_ejected += b.packets_ejected;
        }
        windows_[out++] = merged;
      }
      windows_.resize(out);
      window_width_ *= 2;
    }
  }
}

TelemetrySummary TelemetryCollector::Summarize() const {
  TelemetrySummary s;
  s.enabled = true;
  std::uint64_t multi = 0, distinct = 0, same = 0, serialized = 0;
  std::uint64_t occ_total = 0;
  std::uint64_t occ_weighted = 0;
  std::size_t occ_size = 0;
  for (const RouterTelemetry& rt : routers_) {
    s.cycles += rt.cycles;
    s.sa_requests += rt.sa_requests;
    s.sa_grants += rt.sa_grants;
    for (std::uint64_t v : rt.alloc.input_requests) {
      s.input_arbiter_requests += v;
    }
    for (std::uint64_t v : rt.alloc.input_grants) s.input_arbiter_grants += v;
    for (std::uint64_t v : rt.alloc.output_requests) {
      s.output_arbiter_requests += v;
    }
    for (std::uint64_t v : rt.alloc.output_grants) {
      s.output_arbiter_grants += v;
    }
    s.output_conflict_cycles += rt.alloc.output_conflict_cycles;
    for (const PortConflictCounters& pc : rt.port_conflicts) {
      multi += pc.multi_request_cycles;
      distinct += pc.vin_distinct_output_cycles;
      same += pc.vin_same_output_cycles;
      serialized += pc.single_vin_serialized_cycles;
    }
    for (const VcStallCounters& vs : rt.vc_stalls) {
      s.stall_empty += vs.empty;
      s.stall_va += vs.va_stall;
      s.stall_credit += vs.credit_stall;
      s.stall_sa += vs.sa_stall;
      s.vc_moving += vs.moving;
    }
    const std::vector<std::uint64_t> occ = rt.occupancy_counts();
    occ_size = std::max(occ_size, occ.size());
    for (std::size_t k = 0; k < occ.size(); ++k) {
      occ_total += occ[k];
      occ_weighted += occ[k] * k;
    }
  }
  s.port_multi_request_cycles = multi;
  s.vin_conflict_distinct_output = distinct;
  s.vin_conflict_same_output = same;
  s.single_vin_serialized = serialized;

  const std::uint64_t vin_conflicts = distinct + same;
  if (vin_conflicts > 0) {
    s.same_output_conflict_rate =
        static_cast<double>(same) / static_cast<double>(vin_conflicts);
  }
  if (multi > 0) {
    s.distinct_output_conflict_rate =
        static_cast<double>(distinct) / static_cast<double>(multi);
  }
  if (!routers_.empty() && routers_[0].cycles > 0) {
    std::uint64_t slots = 0;
    for (const RouterTelemetry& rt : routers_) {
      slots += rt.cycles *
               static_cast<std::uint64_t>(rt.geometry().num_outports);
    }
    s.crossbar_utilization =
        static_cast<double>(s.sa_grants) / static_cast<double>(slots);
  }
  if (occ_total > 0) {
    s.mean_port_occupancy =
        static_cast<double>(occ_weighted) / static_cast<double>(occ_total);
    // p99 over the pooled per-port-per-cycle occupancy samples.
    std::vector<std::uint64_t> pooled(occ_size, 0);
    for (const RouterTelemetry& rt : routers_) {
      const std::vector<std::uint64_t> occ = rt.occupancy_counts();
      for (std::size_t k = 0; k < occ.size(); ++k) pooled[k] += occ[k];
    }
    const auto target = static_cast<std::uint64_t>(
        0.99 * static_cast<double>(occ_total));
    std::uint64_t cum = 0;
    for (std::size_t k = 0; k < pooled.size(); ++k) {
      cum += pooled[k];
      if (cum > target) {
        s.p99_port_occupancy = static_cast<double>(k);
        break;
      }
    }
  }
  s.windows = windows_;
  s.trace = trace_;
  return s;
}

void WriteTraceEventJson(std::FILE* f, const PacketTraceEvent& ev) {
  std::fprintf(f,
               "{\"packet\": %llu, \"event\": \"%s\", \"cycle\": %llu, "
               "\"router\": %d, \"src\": %d, \"dst\": %d}\n",
               static_cast<unsigned long long>(ev.packet), ToString(ev.kind),
               static_cast<unsigned long long>(ev.cycle),
               static_cast<int>(ev.router), static_cast<int>(ev.src),
               static_cast<int>(ev.dst));
}

void TelemetryCollector::WriteTraceJsonl(std::FILE* f) const {
  for (const PacketTraceEvent& ev : trace_) WriteTraceEventJson(f, ev);
}

void Visit(StateArchive& ar, PacketTraceEvent& ev) {
  ar.U64(ev.packet);
  ar.Enum8(ev.kind, PacketTraceEvent::Kind::kEject, "trace event kind");
  ar.U64(ev.cycle);
  ar.I32(ev.router);
  ar.I32(ev.src);
  ar.I32(ev.dst);
}

void Visit(StateArchive& ar, TelemetryWindow& win) {
  ar.U64(win.start);
  ar.U64(win.width);
  ar.U64(win.sa_requests);
  ar.U64(win.sa_grants);
  ar.U64(win.vin_conflicts_distinct);
  ar.U64(win.vin_conflicts_same);
  ar.U64(win.packets_ejected);
}

void RouterTelemetry::Visit(StateArchive& ar) {
  ar.VecU64(alloc.input_requests, "telemetry input_requests");
  ar.VecU64(alloc.input_grants, "telemetry input_grants");
  ar.VecU64(alloc.output_requests, "telemetry output_requests");
  ar.VecU64(alloc.output_grants, "telemetry output_grants");
  ar.U64(alloc.output_conflict_cycles);
  ar.FixedList(port_conflicts, "telemetry port_conflicts",
               [&](PortConflictCounters& c) {
                 ar.U64(c.multi_request_cycles);
                 ar.U64(c.vin_distinct_output_cycles);
                 ar.U64(c.vin_same_output_cycles);
                 ar.U64(c.single_vin_serialized_cycles);
               });
  ar.FixedList(vc_stalls, "telemetry vc_stalls", [&](VcStallCounters& c) {
    ar.U64(c.empty);
    ar.U64(c.va_stall);
    ar.U64(c.credit_stall);
    ar.U64(c.sa_stall);
    ar.U64(c.moving);
  });
  ar.VecU64(grants_per_out, "telemetry grants_per_out");
  ar.VecU64(occupancy_counts_, "telemetry occupancy histogram");
  ar.U64(cycles);
  ar.U64(sa_requests);
  ar.U64(sa_grants);
}

void TelemetryCollector::Visit(StateArchive& ar) {
  ar.FixedList(routers_, "telemetry router blocks",
               [&](RouterTelemetry& rt) { rt.Visit(ar); });
  ar.List(windows_, kTelemetryWindowBytes);
  ar.U64(window_width_);
  // Tick advances the open window by its width.
  ar.Require(window_width_ >= 1, "restored telemetry window width is 0");
  ar.U64(window_start_);
  ar.U64(last_totals_.sa_requests);
  ar.U64(last_totals_.sa_grants);
  ar.U64(last_totals_.conflicts_distinct);
  ar.U64(last_totals_.conflicts_same);
  ar.U64(last_totals_.packets_ejected);
  ar.U64(packets_ejected_);
  ar.List(trace_, kPacketTraceEventBytes);
}

}  // namespace vixnoc
