#include "exec/exec_protocol.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include <poll.h>
#include <unistd.h>

#include "common/check.hpp"
#include "common/error.hpp"
#include "snapshot/snapshot.hpp"

namespace vixnoc {

namespace {

template <typename E>
E CheckedEnum(std::uint8_t raw, E max, const char* what) {
  VIXNOC_REQUIRE(raw <= static_cast<std::uint8_t>(max),
                 "point frame has invalid %s value %u", what, raw);
  return static_cast<E>(raw);
}

std::string ErrnoText(const char* op) {
  return std::string(op) + ": " + std::strerror(errno);
}

}  // namespace

void SaveNetworkSimConfig(SnapshotWriter& w, const NetworkSimConfig& c) {
  VIXNOC_REQUIRE(!c.topology_factory,
                 "a config with a topology_factory cannot cross a process "
                 "boundary (std::function has no serialized form); run such "
                 "points in-process");
  VIXNOC_REQUIRE(!c.routing_factory,
                 "a config with a routing_factory cannot cross a process "
                 "boundary (std::function has no serialized form); run such "
                 "points in-process");
  w.U8(static_cast<std::uint8_t>(c.topology));
  w.U8(static_cast<std::uint8_t>(c.scheme));
  w.I32(c.num_vcs);
  w.I32(c.buffer_depth);
  w.I32(c.packet_size);
  w.F64(c.injection_rate);
  w.U8(static_cast<std::uint8_t>(c.pattern));
  w.U8(static_cast<std::uint8_t>(c.arbiter));
  w.B(c.vc_policy.has_value());
  w.U8(static_cast<std::uint8_t>(c.vc_policy.value_or(VcAssignPolicy::kMaxCredits)));
  w.B(c.ap_rotate_vcs);
  w.I32(c.pipeline_stages);
  w.I32(c.vix_virtual_inputs);
  w.B(c.interleaved_vins);
  w.B(c.prioritize_nonspeculative);
  w.U8(static_cast<std::uint8_t>(c.va_organization));
  w.B(c.atomic_vc_alloc);
  w.B(c.bursty);
  w.F64(c.burst_on_rate);
  w.F64(c.mean_burst_cycles);
  w.U64(c.sample_interval);
  w.F64(c.faults.link_down_rate);
  w.F64(c.faults.transient_rate);
  w.U64(c.faults.transient_period);
  w.U64(c.faults.transient_duration);
  w.F64(c.faults.router_stall_rate);
  w.U64(c.faults.stall_period);
  w.U64(c.faults.stall_duration);
  w.F64(c.faults.corruption_rate);
  w.U32(static_cast<std::uint32_t>(c.faults.forced_link_down.size()));
  for (const auto& [router, port] : c.faults.forced_link_down) {
    w.I32(router);
    w.I32(port);
  }
  w.U64(c.faults.seed);
  w.U64(c.watchdog_cycles);
  w.B(c.telemetry.enabled);
  w.U64(c.telemetry.window_cycles);
  w.U64(c.telemetry.max_windows);
  w.U64(c.telemetry.trace_sample_period);
  w.U64(c.telemetry.max_trace_events);
  w.Str(c.checkpoint_path);
  w.U64(c.checkpoint_every);
  w.Str(c.restore_path);
  w.Str(c.deadlock_checkpoint_path);
  w.U64(c.seed);
  w.U64(c.warmup);
  w.U64(c.measure);
  w.U64(c.drain);
  w.Str(c.routing);
  w.I32(c.hotspot_node);
  w.I32(c.incast_fanin);
}

NetworkSimConfig LoadNetworkSimConfig(SnapshotReader& r) {
  NetworkSimConfig c;
  c.topology = CheckedEnum(r.U8(), TopologyKind::kTorus, "topology");
  c.scheme = CheckedEnum(r.U8(), AllocScheme::kSerenade, "scheme");
  c.num_vcs = r.I32();
  c.buffer_depth = r.I32();
  c.packet_size = r.I32();
  c.injection_rate = r.F64();
  c.pattern = CheckedEnum(r.U8(), PatternKind::kIncast, "pattern");
  c.arbiter = CheckedEnum(r.U8(), ArbiterKind::kMatrix, "arbiter");
  const bool has_policy = r.B();
  const VcAssignPolicy policy =
      CheckedEnum(r.U8(), VcAssignPolicy::kRandomFree, "vc_policy");
  if (has_policy) c.vc_policy = policy;
  c.ap_rotate_vcs = r.B();
  c.pipeline_stages = r.I32();
  c.vix_virtual_inputs = r.I32();
  c.interleaved_vins = r.B();
  c.prioritize_nonspeculative = r.B();
  c.va_organization = CheckedEnum(
      r.U8(), VaOrganization::kSeparableArbitrated, "va_organization");
  c.atomic_vc_alloc = r.B();
  c.bursty = r.B();
  c.burst_on_rate = r.F64();
  c.mean_burst_cycles = r.F64();
  c.sample_interval = r.U64();
  c.faults.link_down_rate = r.F64();
  c.faults.transient_rate = r.F64();
  c.faults.transient_period = r.U64();
  c.faults.transient_duration = r.U64();
  c.faults.router_stall_rate = r.F64();
  c.faults.stall_period = r.U64();
  c.faults.stall_duration = r.U64();
  c.faults.corruption_rate = r.F64();
  const std::uint32_t forced = r.CountU32(2 * 4);  // (router, port) i32s
  c.faults.forced_link_down.reserve(forced);
  for (std::uint32_t i = 0; i < forced; ++i) {
    const RouterId router = r.I32();
    const PortId port = r.I32();
    c.faults.forced_link_down.emplace_back(router, port);
  }
  c.faults.seed = r.U64();
  c.watchdog_cycles = r.U64();
  c.telemetry.enabled = r.B();
  c.telemetry.window_cycles = r.U64();
  c.telemetry.max_windows = static_cast<std::size_t>(r.U64());
  c.telemetry.trace_sample_period = r.U64();
  c.telemetry.max_trace_events = static_cast<std::size_t>(r.U64());
  c.checkpoint_path = r.Str();
  c.checkpoint_every = r.U64();
  c.restore_path = r.Str();
  c.deadlock_checkpoint_path = r.Str();
  c.seed = r.U64();
  c.warmup = r.U64();
  c.measure = r.U64();
  c.drain = r.U64();
  c.routing = r.Str();
  c.hotspot_node = r.I32();
  c.incast_fanin = r.I32();
  return c;
}

std::string EncodePointFrame(const PointFrame& frame) {
  SnapshotWriter w;
  w.BeginSection("point");
  w.U64(frame.index);
  w.U32(frame.attempt);
  SaveNetworkSimConfig(w, frame.config);
  w.EndSection();
  return w.Finish(NetworkSimConfigFingerprint(frame.config));
}

PointFrame DecodePointFrame(const std::string& bytes) {
  SnapshotReader r(bytes);
  r.OpenSection("point");
  PointFrame frame;
  frame.index = r.U64();
  frame.attempt = r.U32();
  frame.config = LoadNetworkSimConfig(r);
  r.CloseSection();
  VIXNOC_REQUIRE(r.fingerprint() == NetworkSimConfigFingerprint(frame.config),
                 "point frame fingerprint %016llx does not match its "
                 "config's %016llx",
                 static_cast<unsigned long long>(r.fingerprint()),
                 static_cast<unsigned long long>(
                     NetworkSimConfigFingerprint(frame.config)));
  return frame;
}

std::string EncodeResultFrame(std::uint64_t index,
                              std::uint64_t config_fingerprint,
                              const NetworkSimResult& result) {
  SnapshotWriter w;
  w.BeginSection("result");
  w.U64(index);
  SaveNetworkSimResult(w, result);
  w.EndSection();
  return w.Finish(config_fingerprint);
}

ResultFrame DecodeResultFrame(const std::string& bytes) {
  SnapshotReader r(bytes);
  r.OpenSection("result");
  ResultFrame frame;
  frame.index = r.U64();
  frame.result = LoadNetworkSimResult(r);
  r.CloseSection();
  frame.config_fingerprint = r.fingerprint();
  return frame;
}

FrameRead ReadFrame(int fd, double timeout_seconds, std::uint64_t max_bytes) {
  FrameRead out;
  const bool bounded = timeout_seconds >= 0;
  // Millisecond budget for poll(); recomputed from the remaining total
  // each iteration so slow dribbles cannot extend the deadline.
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(bounded ? timeout_seconds : 0));

  std::string buffer;
  std::uint64_t want = 8;  // length prefix first
  bool have_length = false;
  for (;;) {
    if (bounded) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) {
        out.status = FrameRead::Status::kTimeout;
        out.detail = "deadline expired mid-frame";
        return out;
      }
      struct pollfd pfd = {fd, POLLIN, 0};
      const int remaining_ms = static_cast<int>(
          std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
              .count() + 1);
      const int pr = ::poll(&pfd, 1, remaining_ms);
      if (pr == 0) continue;  // loop re-checks the deadline
      if (pr < 0) {
        if (errno == EINTR) continue;
        out.status = FrameRead::Status::kError;
        out.detail = ErrnoText("poll");
        return out;
      }
    }
    char chunk[65536];
    const std::size_t to_read =
        std::min<std::uint64_t>(want - buffer.size(), sizeof chunk);
    const ssize_t n = ::read(fd, chunk, to_read);
    if (n < 0) {
      if (errno == EINTR) continue;
      out.status = FrameRead::Status::kError;
      out.detail = ErrnoText("read");
      return out;
    }
    if (n == 0) {
      if (buffer.empty() && !have_length) {
        out.status = FrameRead::Status::kEof;
      } else {
        out.status = FrameRead::Status::kShort;
        out.detail = "stream ended mid-frame (" +
                     std::to_string(buffer.size()) + " of " +
                     std::to_string(want) + " bytes)";
      }
      return out;
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
    if (!have_length && buffer.size() == 8) {
      std::uint64_t length = 0;
      for (int i = 7; i >= 0; --i) {
        length = (length << 8) | static_cast<std::uint8_t>(buffer[i]);
      }
      if (length == 0 || length > max_bytes) {
        out.status = FrameRead::Status::kError;
        out.detail = "implausible frame length " + std::to_string(length);
        return out;
      }
      have_length = true;
      want = length;
      buffer.clear();
    } else if (have_length && buffer.size() == want) {
      out.status = FrameRead::Status::kOk;
      out.payload = std::move(buffer);
      return out;
    }
  }
}

bool WriteFrame(int fd, const std::string& payload, std::string* error) {
  VIXNOC_CHECK(!payload.empty() && payload.size() <= kMaxFrameBytes);
  char prefix[8];
  std::uint64_t length = payload.size();
  for (int i = 0; i < 8; ++i) {
    prefix[i] = static_cast<char>(length & 0xff);
    length >>= 8;
  }
  const auto write_all = [&](const char* data, std::size_t size) {
    std::size_t written = 0;
    while (written < size) {
      const ssize_t n = ::write(fd, data + written, size - written);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (error != nullptr) *error = ErrnoText("write");
        return false;
      }
      written += static_cast<std::size_t>(n);
    }
    return true;
  };
  return write_all(prefix, sizeof prefix) &&
         write_all(payload.data(), payload.size());
}

}  // namespace vixnoc
