// Wire protocol between the SweepCoordinator and vixnoc_sweep_worker.
//
// A worker subprocess reads length-prefixed *point frames* on stdin and
// writes length-prefixed *result frames* on stdout. Each frame payload is
// a snapshot container (snapshot/snapshot.hpp) — magic, version and
// per-section checksums come for free, so a torn or corrupted frame is
// detected by the normal SnapshotReader validation, and the container's
// fingerprint slot carries NetworkSimConfigFingerprint(config) in both
// directions: the worker proves which point a result belongs to, and the
// coordinator refuses a result whose fingerprint or index does not match
// the point it dispatched.
//
//   frame    := length u64 LE, payload bytes (a snapshot container)
//   point    := section "point"  { index u64, attempt u32, config ... }
//   result   := section "result" { index u64 } + SaveNetworkSimResult
//
// Framing I/O is deliberately non-throwing on the read side: every way a
// frame can fail to arrive (clean EOF at a frame boundary, a short frame
// from a dying worker, a wall-clock deadline, an I/O error) is a
// *classification input* for the coordinator, not an exception.
#pragma once

#include <cstdint>
#include <string>

#include "sim/network_sim.hpp"

namespace vixnoc {

/// One dispatched sweep point. `attempt` counts subprocess tries (0 = the
/// first); it rides along so the worker's deterministic test-failure hooks
/// (crash on attempts < n) can exercise retry-then-succeed paths.
struct PointFrame {
  std::uint64_t index = 0;
  std::uint32_t attempt = 0;
  NetworkSimConfig config;
};

std::string EncodePointFrame(const PointFrame& frame);
PointFrame DecodePointFrame(const std::string& bytes);  ///< throws SimError

struct ResultFrame {
  std::uint64_t index = 0;
  std::uint64_t config_fingerprint = 0;
  NetworkSimResult result;
};

std::string EncodeResultFrame(std::uint64_t index,
                              std::uint64_t config_fingerprint,
                              const NetworkSimResult& result);
ResultFrame DecodeResultFrame(const std::string& bytes);  ///< throws SimError

/// Outcome of reading one frame from a file descriptor.
struct FrameRead {
  enum class Status {
    kOk,       ///< payload holds a complete frame
    kEof,      ///< clean end-of-stream at a frame boundary
    kShort,    ///< stream ended mid-frame (worker died while writing)
    kTimeout,  ///< deadline expired before the frame completed
    kError,    ///< hard I/O error (detail holds errno text)
  };
  Status status = Status::kError;
  std::string payload;
  std::string detail;  ///< human-readable cause for non-kOk statuses
};

/// Hard upper bound on an accepted frame payload (a garbage length prefix
/// must not drive a multi-gigabyte allocation).
inline constexpr std::uint64_t kMaxFrameBytes = 1ull << 30;

/// Reads one length-prefixed frame. `timeout_seconds` bounds the wall
/// clock for the *whole* frame (negative = block forever); the fd does not
/// need to be non-blocking — readiness is polled before every read. A
/// length prefix above `max_bytes` is refused (kError) before any payload
/// is read, and the payload buffer grows with the bytes that arrive, not
/// with the length the prefix claims.
FrameRead ReadFrame(int fd, double timeout_seconds,
                    std::uint64_t max_bytes = kMaxFrameBytes);

/// Writes one length-prefixed frame, retrying short writes. Returns false
/// on failure (e.g. EPIPE from a dead peer) with `*error` describing why.
/// Callers must have SIGPIPE blocked or ignored so a dead peer surfaces
/// as EPIPE instead of killing the process.
bool WriteFrame(int fd, const std::string& payload, std::string* error);

/// Blocks SIGPIPE for the calling thread (pthread_sigmask), which is how
/// every in-library WriteFrame caller meets the requirement above: an
/// ignored process-wide handler would reach into the host program.
void BlockSigpipeOnThisThread();

}  // namespace vixnoc
