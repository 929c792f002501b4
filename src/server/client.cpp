#include "server/client.hpp"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstring>
#include <thread>

#include <pthread.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/error.hpp"
#include "exec/exec_protocol.hpp"

namespace vixnoc {

namespace {

int ConnectOnce(const std::string& path, std::string* error) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    *error = std::string("connect '") + path + "': " + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  return fd;
}

}  // namespace

SimClient::SimClient(std::string socket_path, double connect_timeout_seconds)
    : socket_path_(std::move(socket_path)) {
  VIXNOC_REQUIRE(!socket_path_.empty(), "client socket path is empty");
  VIXNOC_REQUIRE(socket_path_.size() < sizeof(sockaddr_un{}.sun_path),
                 "socket path '%s' exceeds the AF_UNIX limit",
                 socket_path_.c_str());
  // A dead daemon mid-write must surface as EPIPE, not kill the client.
  sigset_t sigpipe;
  sigemptyset(&sigpipe);
  sigaddset(&sigpipe, SIGPIPE);
  pthread_sigmask(SIG_BLOCK, &sigpipe, nullptr);

  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(connect_timeout_seconds));
  std::string error;
  for (;;) {
    fd_ = ConnectOnce(socket_path_, &error);
    if (fd_ >= 0) return;
    if (connect_timeout_seconds <= 0.0 ||
        std::chrono::steady_clock::now() >= deadline) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  VIXNOC_REQUIRE(false, "%s", error.c_str());
}

SimClient::~SimClient() {
  if (fd_ >= 0) ::close(fd_);
}

std::string SimClient::Roundtrip(const std::string& payload) {
  std::string werr;
  VIXNOC_REQUIRE(WriteFrame(fd_, payload, &werr),
                 "cannot send request to '%s': %s", socket_path_.c_str(),
                 werr.c_str());
  const FrameRead fr = ReadFrame(fd_, -1.0);
  VIXNOC_REQUIRE(fr.status == FrameRead::Status::kOk,
                 "no reply from '%s': %s", socket_path_.c_str(),
                 fr.detail.empty() ? "connection closed" : fr.detail.c_str());
  return fr.payload;
}

PointReply SimClient::Point(const NetworkSimConfig& config) {
  const std::string payload = Roundtrip(EncodePointRequest(config));
  PointReply reply = DecodePointReply(payload);
  // Validation both directions: the daemon proves which point it answered.
  // (A daemon-side decode error legitimately carries key 0.)
  VIXNOC_REQUIRE(reply.status == ServeStatus::kError ||
                     reply.result_key == NetworkSimResultKey(config),
                 "daemon answered a different point (key %016llx, asked for "
                 "%016llx)",
                 static_cast<unsigned long long>(reply.result_key),
                 static_cast<unsigned long long>(NetworkSimResultKey(config)));
  return reply;
}

std::vector<PointReply> SimClient::Batch(
    const std::vector<NetworkSimConfig>& configs) {
  const std::string payload = Roundtrip(EncodeBatchRequest(configs));
  if (IsPointReply(payload)) {
    // The daemon rejected the whole frame (decode failure) with a single
    // error reply; surface its message.
    const PointReply err = DecodePointReply(payload);
    VIXNOC_REQUIRE(false, "daemon rejected batch: %s", err.message.c_str());
  }
  std::vector<PointReply> replies = DecodeBatchReply(payload);
  VIXNOC_REQUIRE(replies.size() == configs.size(),
                 "daemon answered %zu points for a %zu-point batch",
                 replies.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    VIXNOC_REQUIRE(
        replies[i].status == ServeStatus::kError ||
            replies[i].result_key == NetworkSimResultKey(configs[i]),
        "batch reply %zu answers a different point", i);
  }
  return replies;
}

DaemonStats SimClient::Stats() {
  const std::string payload = Roundtrip(EncodeStatsRequest());
  if (IsPointReply(payload)) {
    const PointReply err = DecodePointReply(payload);
    VIXNOC_REQUIRE(false, "daemon rejected stats request: %s",
                   err.message.c_str());
  }
  return DecodeStatsReply(payload);
}

void SimClient::Shutdown() {
  DecodeShutdownReply(Roundtrip(EncodeShutdownRequest()));
}

PointReply SimClient::PointWithRetry(const NetworkSimConfig& config,
                                     int max_attempts) {
  PointReply reply;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    reply = Point(config);
    if (reply.status != ServeStatus::kRetryAfter) return reply;
    const double delay =
        reply.retry_after_seconds > 0.0 ? reply.retry_after_seconds : 0.05;
    std::this_thread::sleep_for(std::chrono::duration<double>(delay));
  }
  return reply;
}

SimClient::BatchReplies SimClient::BatchWithRetry(
    const std::vector<NetworkSimConfig>& configs, int max_attempts) {
  BatchReplies out;
  out.replies = Batch(configs);
  for (int attempt = 1; attempt < max_attempts; ++attempt) {
    std::vector<std::size_t> pending;
    std::vector<NetworkSimConfig> again;
    double delay = 0.0;
    for (std::size_t i = 0; i < configs.size(); ++i) {
      if (out.replies[i].status != ServeStatus::kRetryAfter) continue;
      pending.push_back(i);
      again.push_back(configs[i]);
      delay = std::max(delay, out.replies[i].retry_after_seconds);
    }
    if (pending.empty()) break;
    std::this_thread::sleep_for(
        std::chrono::duration<double>(delay > 0.0 ? delay : 0.05));
    std::vector<PointReply> replies = Batch(again);
    for (std::size_t k = 0; k < pending.size(); ++k) {
      out.replies[pending[k]] = std::move(replies[k]);
    }
    out.reasks += pending.size();
  }
  return out;
}

}  // namespace vixnoc
