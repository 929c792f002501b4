#include "server/server_protocol.hpp"

#include "common/error.hpp"
#include "snapshot/snapshot.hpp"

namespace vixnoc {

namespace {

constexpr const char kBatchSection[] = "vixd_batch";
constexpr const char kStatsSection[] = "vixd_stats";
constexpr const char kShutdownSection[] = "vixd_shutdown";
constexpr const char kReplySection[] = "vixd_reply";
constexpr const char kBatchReplySection[] = "vixd_breply";
constexpr const char kStatsReplySection[] = "vixd_dstats";
constexpr const char kByeSection[] = "vixd_bye";

/// Refuses a control frame stamped with another layout's fingerprint.
void RequireControl(const SnapshotReader& r) {
  VIXNOC_REQUIRE(r.fingerprint() == ControlFrameFingerprint(),
                 "control frame fingerprint %016llx is not this protocol's "
                 "(a peer built against another stats layout)",
                 static_cast<unsigned long long>(r.fingerprint()));
}

/// Order-sensitive fold of a batch's per-point result keys, stamped into
/// batch request/reply containers.
std::uint64_t FoldKeys(const std::vector<std::uint64_t>& keys) {
  return Fnv1a64(keys.data(), keys.size() * sizeof(std::uint64_t));
}

void SavePointReply(SnapshotWriter& w, const PointReply& r) {
  w.U8(static_cast<std::uint8_t>(r.status));
  w.U8(static_cast<std::uint8_t>(r.source));
  w.F64(r.retry_after_seconds);
  w.Str(r.message);
  w.U64(r.result_key);
  w.B(r.status == ServeStatus::kOk);
  if (r.status == ServeStatus::kOk) SaveNetworkSimResult(w, r.result);
}

PointReply LoadPointReply(SnapshotReader& r) {
  PointReply out;
  const std::uint8_t status = r.U8();
  VIXNOC_REQUIRE(status <= static_cast<std::uint8_t>(ServeStatus::kError),
                 "point reply carries unknown status %u", status);
  out.status = static_cast<ServeStatus>(status);
  const std::uint8_t source = r.U8();
  VIXNOC_REQUIRE(source <= static_cast<std::uint8_t>(ServeSource::kCoalesced),
                 "point reply carries unknown source %u", source);
  out.source = static_cast<ServeSource>(source);
  out.retry_after_seconds = r.F64();
  out.message = r.Str();
  out.result_key = r.U64();
  if (r.B()) out.result = LoadNetworkSimResult(r);
  return out;
}

}  // namespace

std::uint64_t ControlFrameFingerprint() {
  static const std::uint64_t fp = [] {
    // The tag names the stats reply layout: "v2" dropped point_requests.
    const char tag[] = "vixd_control_v2";
    return Fnv1a64(tag, sizeof(tag) - 1);
  }();
  return fp;
}

std::string ToString(ServeStatus status) {
  switch (status) {
    case ServeStatus::kOk:
      return "ok";
    case ServeStatus::kRetryAfter:
      return "retry-after";
    case ServeStatus::kError:
      return "error";
  }
  return "unknown";
}

std::string ToString(ServeSource source) {
  switch (source) {
    case ServeSource::kNone:
      return "none";
    case ServeSource::kStore:
      return "store";
    case ServeSource::kComputed:
      return "computed";
    case ServeSource::kCoalesced:
      return "coalesced";
  }
  return "unknown";
}

std::string EncodeBatchRequest(const std::vector<NetworkSimConfig>& configs) {
  SnapshotWriter w;
  w.BeginSection(kBatchSection);
  w.U64(configs.size());
  std::vector<std::uint64_t> keys;
  keys.reserve(configs.size());
  for (const NetworkSimConfig& c : configs) {
    SaveNetworkSimConfig(w, c);
    keys.push_back(NetworkSimResultKey(c));
  }
  w.EndSection();
  return w.Finish(FoldKeys(keys));
}

std::string EncodeStatsRequest() {
  SnapshotWriter w;
  w.BeginSection(kStatsSection);
  w.EndSection();
  return w.Finish(ControlFrameFingerprint());
}

std::string EncodeShutdownRequest() {
  SnapshotWriter w;
  w.BeginSection(kShutdownSection);
  w.EndSection();
  return w.Finish(ControlFrameFingerprint());
}

Request DecodeRequest(const std::string& payload) {
  SnapshotReader r(payload);
  Request out;
  if (r.HasSection(kBatchSection)) {
    out.kind = RequestKind::kBatch;
    r.OpenSection(kBatchSection);
    const std::uint64_t count = r.U64();
    VIXNOC_REQUIRE(count <= 1'000'000,
                   "batch request claims %llu points",
                   static_cast<unsigned long long>(count));
    std::vector<std::uint64_t> keys;
    keys.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
      out.configs.push_back(LoadNetworkSimConfig(r));
      keys.push_back(NetworkSimResultKey(out.configs.back()));
    }
    r.CloseSection();
    VIXNOC_REQUIRE(r.fingerprint() == FoldKeys(keys),
                   "batch request fingerprint does not match its configs");
    return out;
  }
  VIXNOC_REQUIRE(r.HasSection(kStatsSection) || r.HasSection(kShutdownSection),
                 "frame is not a recognized vixnocd request");
  RequireControl(r);
  out.kind = r.HasSection(kStatsSection) ? RequestKind::kStats
                                         : RequestKind::kShutdown;
  return out;
}

std::string EncodePointReply(const PointReply& reply) {
  SnapshotWriter w;
  w.BeginSection(kReplySection);
  SavePointReply(w, reply);
  w.EndSection();
  return w.Finish(reply.result_key);
}

PointReply DecodePointReply(const std::string& payload) {
  SnapshotReader r(payload);
  r.OpenSection(kReplySection);
  PointReply out = LoadPointReply(r);
  r.CloseSection();
  VIXNOC_REQUIRE(r.fingerprint() == out.result_key,
                 "point reply container fingerprint does not match its "
                 "result key");
  return out;
}

std::string EncodeBatchReply(const std::vector<PointReply>& replies) {
  SnapshotWriter w;
  w.BeginSection(kBatchReplySection);
  w.U64(replies.size());
  std::vector<std::uint64_t> keys;
  keys.reserve(replies.size());
  for (const PointReply& r : replies) {
    SavePointReply(w, r);
    keys.push_back(r.result_key);
  }
  w.EndSection();
  return w.Finish(FoldKeys(keys));
}

std::vector<PointReply> DecodeBatchReply(const std::string& payload) {
  SnapshotReader r(payload);
  r.OpenSection(kBatchReplySection);
  const std::uint64_t count = r.U64();
  VIXNOC_REQUIRE(count <= 1'000'000, "batch reply claims %llu points",
                 static_cast<unsigned long long>(count));
  std::vector<PointReply> out;
  std::vector<std::uint64_t> keys;
  out.reserve(count);
  keys.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    out.push_back(LoadPointReply(r));
    keys.push_back(out.back().result_key);
  }
  r.CloseSection();
  VIXNOC_REQUIRE(r.fingerprint() == FoldKeys(keys),
                 "batch reply container fingerprint does not match its "
                 "per-point keys");
  return out;
}

std::string EncodeStatsReply(const DaemonStats& s) {
  SnapshotWriter w;
  w.BeginSection(kStatsReplySection);
  w.U64(s.requests);
  w.U64(s.batch_requests);
  w.U64(s.points_served);
  w.U64(s.store_hits);
  w.U64(s.computed_points);
  w.U64(s.coalesced_points);
  w.U64(s.retry_after_replies);
  w.U64(s.error_replies);
  w.U64(s.inflight);
  w.U64(s.connections_accepted);
  w.U64(s.active_connections);
  w.U64(s.store_entries_written);
  w.U64(s.store_bytes_written);
  w.U64(s.store_defective);
  w.U64(s.store_gc_evicted);
  w.EndSection();
  return w.Finish(ControlFrameFingerprint());
}

DaemonStats DecodeStatsReply(const std::string& payload) {
  SnapshotReader r(payload);
  RequireControl(r);
  r.OpenSection(kStatsReplySection);
  DaemonStats s;
  s.requests = r.U64();
  s.batch_requests = r.U64();
  s.points_served = r.U64();
  s.store_hits = r.U64();
  s.computed_points = r.U64();
  s.coalesced_points = r.U64();
  s.retry_after_replies = r.U64();
  s.error_replies = r.U64();
  s.inflight = r.U64();
  s.connections_accepted = r.U64();
  s.active_connections = r.U64();
  s.store_entries_written = r.U64();
  s.store_bytes_written = r.U64();
  s.store_defective = r.U64();
  s.store_gc_evicted = r.U64();
  r.CloseSection();
  return s;
}

std::string EncodeShutdownReply() {
  SnapshotWriter w;
  w.BeginSection(kByeSection);
  w.EndSection();
  return w.Finish(ControlFrameFingerprint());
}

void DecodeShutdownReply(const std::string& payload) {
  SnapshotReader r(payload);
  VIXNOC_REQUIRE(r.HasSection(kByeSection),
                 "frame is not a shutdown acknowledgment");
  RequireControl(r);
}

bool IsPointReply(const std::string& payload) {
  try {
    SnapshotReader r(payload);
    return r.HasSection(kReplySection);
  } catch (const SimError&) {
    return false;
  }
}

}  // namespace vixnoc
