#include "server/daemon.hpp"

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <utility>
#include <vector>

#include <pthread.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/check.hpp"
#include "common/error.hpp"
#include "exec/exec_protocol.hpp"

namespace vixnoc {

namespace {

/// Connection and accept threads must see a dead peer as EPIPE from
/// write(), never SIGPIPE (which would kill an in-process daemon's host
/// too, e.g. a test binary).
void BlockSigpipeOnThisThread() {
  sigset_t sigpipe;
  sigemptyset(&sigpipe);
  sigaddset(&sigpipe, SIGPIPE);
  pthread_sigmask(SIG_BLOCK, &sigpipe, nullptr);
}

/// Names the first field of `c` that would make the daemon touch a file
/// the client chose, or returns nullptr. The daemon refuses those; the
/// result key also leaves them out, so a coalesced or stored answer would
/// silently skip the checkpoint the client asked for.
const char* ClientPathField(const NetworkSimConfig& c) {
  if (!c.checkpoint_path.empty()) return "checkpoint_path";
  if (c.checkpoint_every != 0) return "checkpoint_every";
  if (!c.restore_path.empty()) return "restore_path";
  if (!c.deadlock_checkpoint_path.empty()) return "deadlock_checkpoint_path";
  return nullptr;
}

}  // namespace

SimDaemon::SimDaemon(DaemonConfig config) : config_(std::move(config)) {
  VIXNOC_REQUIRE(!config_.socket_path.empty(), "daemon socket path is empty");
  VIXNOC_REQUIRE(config_.socket_path.size() < sizeof(sockaddr_un{}.sun_path),
                 "socket path '%s' exceeds the AF_UNIX limit of %zu bytes",
                 config_.socket_path.c_str(),
                 sizeof(sockaddr_un{}.sun_path) - 1);
  VIXNOC_REQUIRE(config_.max_queue > 0, "max_queue must be positive");
  store_ = std::make_shared<ResultStore>(
      ResultStoreConfig{config_.store_dir, config_.store_max_bytes});
  // Misses take the runner's one per-point path with no cache attached:
  // BeginPoint already probed the store, and Put happens in the
  // completion, before the result is published.
  runner_ = std::make_unique<SweepRunner>(
      config_.threads,
      [this](const NetworkSimConfig& config, std::size_t, int) {
        if (config_.test_compute_delay_ms > 0) {
          std::this_thread::sleep_for(
              std::chrono::milliseconds(config_.test_compute_delay_ms));
        }
        return SweepRunner::ExecutePoint(config);
      });
}

SimDaemon::~SimDaemon() { Stop(); }

void SimDaemon::Start() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    VIXNOC_CHECK(!started_ && !stopped_);
    started_ = true;
  }
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  VIXNOC_REQUIRE(listen_fd_ >= 0, "socket: %s", std::strerror(errno));
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, config_.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  // A stale socket file from a crashed daemon would make bind fail with
  // EADDRINUSE even though nobody is listening; remove it first. A *live*
  // daemon still loses its socket this way — running two daemons on one
  // path is an operator error this refuses to silently arbitrate only by
  // the bind that follows.
  ::unlink(config_.socket_path.c_str());
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) < 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    VIXNOC_REQUIRE(false, "bind '%s': %s", config_.socket_path.c_str(),
                   std::strerror(err));
  }
  if (::listen(listen_fd_, 128) < 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(config_.socket_path.c_str());
    VIXNOC_REQUIRE(false, "listen '%s': %s", config_.socket_path.c_str(),
                   std::strerror(err));
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
}

void SimDaemon::AcceptLoop() {
  BlockSigpipeOnThisThread();
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // shutdown(listen_fd_) during Stop lands here (EINVAL/ECONNABORTED).
      return;
    }
    bool reject = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) {
        reject = true;
      } else {
        ++counters_.connections_accepted;
        ++active_connections_;
        conn_fds_.insert(fd);
      }
    }
    if (reject) {
      ::close(fd);
      continue;
    }
    // Detached: lifetime is tracked by active_connections_, which Stop
    // waits on after shutting every connection fd down.
    std::thread([this, fd] {
      BlockSigpipeOnThisThread();
      ServeConnection(fd);
    }).detach();
  }
}

void SimDaemon::ServeConnection(int fd) {
  for (;;) {
    const FrameRead fr = ReadFrame(fd, -1.0, kMaxRequestFrameBytes);
    if (fr.status != FrameRead::Status::kOk) break;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++counters_.requests;
      ++busy_requests_;
    }
    std::string reply;
    bool shutdown_requested = false;
    try {
      const Request req = DecodeRequest(fr.payload);
      switch (req.kind) {
        case RequestKind::kPoint:
        case RequestKind::kBatch: {
          const bool point = req.kind == RequestKind::kPoint;
          {
            std::lock_guard<std::mutex> lock(mu_);
            ++(point ? counters_.point_requests : counters_.batch_requests);
          }
          const std::vector<PointReply> replies = ServeBatch(req.configs);
          reply = point ? EncodePointReply(replies.front())
                        : EncodeBatchReply(replies);
          break;
        }
        case RequestKind::kStats:
          reply = EncodeStatsReply(stats());
          break;
        case RequestKind::kShutdown:
          reply = EncodeShutdownReply();
          shutdown_requested = true;
          break;
      }
    } catch (const SimError& e) {
      // A malformed frame gets a structured error reply, not a dropped
      // connection: the client learns *why*.
      PointReply err;
      err.status = ServeStatus::kError;
      err.message = e.what();
      reply = EncodePointReply(err);
      std::lock_guard<std::mutex> lock(mu_);
      ++counters_.error_replies;
    }
    std::string werr;
    const bool wrote = WriteFrame(fd, reply, &werr);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --busy_requests_;
      cv_.notify_all();
    }
    // The acknowledgment is written *before* the stop flag is raised, so
    // the requesting client always hears back.
    if (shutdown_requested) RequestStop();
    if (!wrote) break;
  }
  // Deregister before close: Stop's fd-shutdown pass holds the lock, so
  // once the fd leaves the set it can never shutdown() a recycled
  // descriptor number.
  {
    std::lock_guard<std::mutex> lock(mu_);
    conn_fds_.erase(fd);
    --active_connections_;
    cv_.notify_all();
  }
  ::close(fd);
}

SimDaemon::ComputeHandle SimDaemon::BeginPoint(const NetworkSimConfig& config,
                                               PointReply* out) {
  // Store probe first — hits never touch the pool or the queue bound.
  if (store_->Load(config, &out->result) == PointCacheStatus::kHit) {
    std::lock_guard<std::mutex> lock(mu_);
    out->status = ServeStatus::kOk;
    out->source = ServeSource::kStore;
    ++counters_.store_hits;
    ++counters_.points_served;
    return {};
  }
  const std::uint64_t key = out->result_key;
  std::unique_lock<std::mutex> lock(mu_);
  if (const auto it = inflight_.find(key); it != inflight_.end()) {
    // Single-flight: join the computation already running for this key.
    return ComputeHandle{it->second, false};
  }
  if (stopping_) {
    out->status = ServeStatus::kRetryAfter;
    out->retry_after_seconds = config_.retry_after_seconds;
    out->message = "daemon is draining";
    ++counters_.retry_after_replies;
    return {};
  }
  if (inflight_.size() >= config_.max_queue) {
    out->status = ServeStatus::kRetryAfter;
    out->retry_after_seconds = config_.retry_after_seconds;
    out->message = "compute queue full (" +
                   std::to_string(inflight_.size()) + " points in flight)";
    ++counters_.retry_after_replies;
    return {};
  }
  auto inflight = std::make_shared<Inflight>();
  inflight_.emplace(key, inflight);
  lock.unlock();
  runner_->Submit(config, [this, key, inflight, config](NetworkSimResult r) {
    // Store before publish: a waiter woken by this completion and any
    // later request observe the same durable entry.
    store_->Put(config, r);
    std::lock_guard<std::mutex> inner(mu_);
    inflight->result = std::move(r);
    inflight->done = true;
    inflight_.erase(key);
    ++counters_.computed_points;
    cv_.notify_all();
  });
  return ComputeHandle{inflight, true};
}

void SimDaemon::AwaitPoint(const ComputeHandle& handle, PointReply* out) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return handle.inflight->done; });
  out->result = handle.inflight->result;
  out->status = ServeStatus::kOk;
  out->source =
      handle.submitter ? ServeSource::kComputed : ServeSource::kCoalesced;
  if (!handle.submitter) ++counters_.coalesced_points;
  ++counters_.points_served;
}

std::vector<PointReply> SimDaemon::ServeBatch(
    const std::vector<NetworkSimConfig>& configs) {
  // Two phases so a batch's misses compute concurrently: begin (or join)
  // every point first, then await. A batch's internal duplicates coalesce
  // onto the first occurrence like any other concurrent requests would.
  std::vector<PointReply> replies(configs.size());
  std::vector<ComputeHandle> handles(configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    PointReply& out = replies[i];
    out.result_key = NetworkSimResultKey(configs[i]);
    try {
      const char* path_field = ClientPathField(configs[i]);
      VIXNOC_REQUIRE(path_field == nullptr,
                     "the daemon does not accept %s in a request",
                     path_field);
      ValidateNetworkSimConfig(configs[i]);
    } catch (const SimError& e) {
      out.status = ServeStatus::kError;
      out.message = e.what();
      std::lock_guard<std::mutex> lock(mu_);
      ++counters_.error_replies;
      continue;
    }
    handles[i] = BeginPoint(configs[i], &out);
  }
  for (std::size_t i = 0; i < configs.size(); ++i) {
    if (handles[i].inflight) AwaitPoint(handles[i], &replies[i]);
  }
  return replies;
}

DaemonStats SimDaemon::stats() const {
  const ResultStoreStats ss = store_->stats();
  std::lock_guard<std::mutex> lock(mu_);
  DaemonStats s = counters_;
  s.inflight = inflight_.size();
  s.active_connections = active_connections_;
  s.store_entries_written = ss.writes;
  s.store_bytes_written = ss.bytes_written;
  s.store_defective = ss.defective;
  s.store_gc_evicted = ss.gc_evicted_entries;
  return s;
}

int SimDaemon::Wait() {
  // The stop flag is the only channel a signal handler can use, so it is
  // polled: 100ms of shutdown latency, zero signal-unsafe work.
  while (!stop_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  Stop();
  return 0;
}

void SimDaemon::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_ || stopped_) {
      stopped_ = true;
      return;
    }
    stopping_ = true;  // new misses now get retry-after
  }
  stop_requested_.store(true, std::memory_order_relaxed);

  // 1. Stop accepting: shutdown unblocks accept4, then the thread exits.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();

  // 2. Drain: every in-flight computation completes and every request
  // already read off the wire gets its reply written. New requests that
  // race in on live connections resolve too (hit, join, or retry-after) —
  // busy_requests_ covers them.
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] {
      return inflight_.empty() && busy_requests_ == 0;
    });
  }

  // 3. Disconnect: shutting the fds down unblocks connection threads
  // parked in ReadFrame; each closes its own fd and signs off.
  {
    std::unique_lock<std::mutex> lock(mu_);
    for (const int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
    cv_.wait(lock, [this] { return active_connections_ == 0; });
    stopped_ = true;
  }

  ::close(listen_fd_);
  listen_fd_ = -1;
  ::unlink(config_.socket_path.c_str());
}

}  // namespace vixnoc
