// Wire protocol between vixnoc_client and the vixnocd daemon.
//
// The service speaks the same length-prefixed snapshot-container frames as
// the sweep worker protocol (exec/exec_protocol.hpp): every payload is a
// snapshot container, so magic/version/per-section checksums validate each
// frame for free, and the container's fingerprint slot authenticates the
// content in both directions. Three request kinds and their replies:
//
//   batch    := section "vixd_batch"    { count, configs... }  fp = key fold
//   stats    := section "vixd_stats"    {}                     fp = control
//   shutdown := section "vixd_shutdown" {}                     fp = control
//
//   reply(batch)    := section "vixd_breply"  { count, point replies... }
//   reply(stats)    := section "vixd_dstats"  { counters... }
//   reply(shutdown) := section "vixd_bye"     {}
//   point reply     := { status, source, retry_after, message, key
//                        [, result] }
//   reply(error)    := section "vixd_reply"   { point reply }  fp = key (0)
//
// One point is a batch of one. The key fold is over each point's
// NetworkSimResultKey — the *result* content key (evolution fingerprint +
// observation knobs), not the bare evolution fingerprint, because the
// daemon dedupes and stores by what the client will actually receive.
// Clients verify every reply key against the config they asked about;
// the daemon verifies request payloads the same way. A frame the daemon
// cannot decode at all is answered with one error point reply in its own
// section, whatever was asked (IsPointReply tells it apart). Control
// frames carry ControlFrameFingerprint, whose tag names the stats
// layout, so a peer built against another layout is refused, not
// misread. Configs carrying live factory callbacks cannot cross the
// socket (same rule as the worker protocol).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/network_sim.hpp"

namespace vixnoc {

/// Container fingerprint for control frames (stats/shutdown and their
/// replies); decoders refuse a control frame stamped with any other.
std::uint64_t ControlFrameFingerprint();

enum class RequestKind : std::uint8_t {
  kBatch,
  kStats,
  kShutdown,
};

/// A decoded client request. configs holds the batch's points; none for
/// control kinds.
struct Request {
  RequestKind kind = RequestKind::kStats;
  std::vector<NetworkSimConfig> configs;
};

std::string EncodeBatchRequest(const std::vector<NetworkSimConfig>& configs);
std::string EncodeStatsRequest();
std::string EncodeShutdownRequest();

/// Decodes any request frame payload, validating the container fingerprint
/// against the recomputed result key(s). Throws SimError on malformed or
/// unrecognized payloads.
Request DecodeRequest(const std::string& payload);

/// How a served point was satisfied.
enum class ServeStatus : std::uint8_t {
  kOk,          ///< result holds the point's NetworkSimResult
  kRetryAfter,  ///< daemon at capacity (or draining); retry after the hint
  kError,       ///< invalid request; message explains
};

enum class ServeSource : std::uint8_t {
  kNone,       ///< not served (retry-after / error)
  kStore,      ///< hit in the content-addressed result store
  kComputed,   ///< this request triggered the simulation
  kCoalesced,  ///< joined another request's in-flight simulation
};

std::string ToString(ServeStatus status);
std::string ToString(ServeSource source);

struct PointReply {
  ServeStatus status = ServeStatus::kError;
  ServeSource source = ServeSource::kNone;
  double retry_after_seconds = 0.0;
  std::string message;
  /// NetworkSimResultKey of the config this reply answers; clients verify
  /// it against their own recomputation.
  std::uint64_t result_key = 0;
  NetworkSimResult result;  ///< valid only when status == kOk
};

/// The whole-frame error reply (see IsPointReply); a batch reply carries
/// the same fields per slot.
std::string EncodePointReply(const PointReply& reply);
PointReply DecodePointReply(const std::string& payload);  ///< throws SimError

std::string EncodeBatchReply(const std::vector<PointReply>& replies);
std::vector<PointReply> DecodeBatchReply(const std::string& payload);

/// Daemon-side counters served by the stats request. The store_* fields
/// mirror the underlying ResultStore's own stats.
struct DaemonStats {
  std::uint64_t requests = 0;
  std::uint64_t batch_requests = 0;
  std::uint64_t points_served = 0;
  std::uint64_t store_hits = 0;
  std::uint64_t computed_points = 0;
  std::uint64_t coalesced_points = 0;
  std::uint64_t retry_after_replies = 0;
  std::uint64_t error_replies = 0;
  std::uint64_t inflight = 0;  ///< snapshot at reply time
  std::uint64_t connections_accepted = 0;
  std::uint64_t active_connections = 0;  ///< snapshot at reply time
  std::uint64_t store_entries_written = 0;
  std::uint64_t store_bytes_written = 0;
  std::uint64_t store_defective = 0;
  std::uint64_t store_gc_evicted = 0;
};

std::string EncodeStatsReply(const DaemonStats& stats);
DaemonStats DecodeStatsReply(const std::string& payload);  ///< throws SimError

std::string EncodeShutdownReply();
/// Throws SimError when the payload is not a shutdown acknowledgment.
void DecodeShutdownReply(const std::string& payload);

/// Is this reply payload a whole-frame error reply (vs batch/stats/bye)?
/// Lets a client surface a daemon-side decode error, sent as an error
/// PointReply, for any request kind.
bool IsPointReply(const std::string& payload);

}  // namespace vixnoc
