// SimClient: one connection to a vixnocd daemon.
//
// Thin synchronous request/reply wrapper over the frame protocol
// (server/server_protocol.hpp). Every reply's container checksum and
// result key are verified against the request before it is returned — a
// daemon serving the wrong point, or bytes corrupted in transit, surface
// as SimError, never as silently wrong data. Not thread-safe: one client
// per thread (connections are cheap; the daemon handles many).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "server/server_protocol.hpp"
#include "sim/network_sim.hpp"

namespace vixnoc {

class SimClient {
 public:
  /// Connects to the daemon at `socket_path`. With `connect_timeout_seconds`
  /// > 0 a refused/missing socket is retried until the deadline — covering
  /// the daemon's startup window. Throws SimError when no connection can
  /// be established.
  explicit SimClient(std::string socket_path,
                     double connect_timeout_seconds = 0.0);
  ~SimClient();

  SimClient(const SimClient&) = delete;
  SimClient& operator=(const SimClient&) = delete;

  const std::string& socket_path() const { return socket_path_; }

  /// A batch of points, answered positionally. Transport failures, a
  /// whole-frame error reply and a slot whose result key does not match
  /// its config throw SimError; daemon-side outcomes per point
  /// (retry-after, validation errors) come back in the slot's status.
  std::vector<PointReply> Batch(const std::vector<NetworkSimConfig>& configs);

  /// One simulation point: a batch of one.
  PointReply Point(const NetworkSimConfig& config);

  DaemonStats Stats();

  /// Asks the daemon to drain and exit. Returns once the daemon has
  /// acknowledged (its actual exit completes asynchronously).
  void Shutdown();

  /// A batch with retry-after handling: after the first batch, the slots
  /// still answered retry-after are re-sent as one batch once the longest
  /// hint has passed, up to `max_attempts` batches in all. A slot still
  /// retry-after when the attempts run out comes back as last answered.
  struct BatchReplies {
    std::vector<PointReply> replies;  ///< positional, like Batch
    std::uint64_t reasks = 0;         ///< slots re-sent after retry-after
  };
  BatchReplies BatchWithRetry(const std::vector<NetworkSimConfig>& configs,
                              int max_attempts = 50);

  /// One point with retry-after handling: a BatchWithRetry of one.
  PointReply PointWithRetry(const NetworkSimConfig& config,
                            int max_attempts = 50);

 private:
  /// Sends one request frame and returns the reply payload; throws
  /// SimError on transport failure or a whole-frame error reply.
  std::string Roundtrip(const std::string& payload);

  std::string socket_path_;
  int fd_ = -1;
};

}  // namespace vixnoc
