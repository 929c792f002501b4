#include "exec/exec_protocol.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>

#include <poll.h>
#include <pthread.h>
#include <unistd.h>

#include "common/check.hpp"
#include "common/error.hpp"
#include "snapshot/snapshot.hpp"

namespace vixnoc {

namespace {

std::string ErrnoText(const char* op) {
  return std::string(op) + ": " + std::strerror(errno);
}

}  // namespace

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

void BlockSigpipeOnThisThread() {
  sigset_t sigpipe;
  sigemptyset(&sigpipe);
  sigaddset(&sigpipe, SIGPIPE);
  pthread_sigmask(SIG_BLOCK, &sigpipe, nullptr);
}

}  // namespace vixnoc
