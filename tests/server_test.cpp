// vixnocd service layer: wire protocol, daemon serving semantics, and the
// real binary's signal-driven drain.
//
// The contracts under test: protocol frames round-trip and authenticate
// their content; a point served from the store is bitwise identical to
// the fresh computation (and to a local RunNetworkSim); N concurrent
// clients asking for one missing point trigger exactly one simulation
// (single-flight); a saturated daemon answers retry-after instead of
// queueing unboundedly; malformed frames get structured error replies;
// and SIGTERM on the real vixnocd process drains in-flight points —
// their replies still arrive — before a clean exit 0.
#include "server/daemon.hpp"

#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "exec/exec_protocol.hpp"
#include "server/client.hpp"
#include "server/server_protocol.hpp"
#include "snapshot/snapshot.hpp"

namespace vixnoc {
namespace {

namespace fs = std::filesystem;

struct TempService {
  std::string root;
  std::string socket;
  std::string store;

  explicit TempService(const std::string& tag) {
    root = testing::TempDir() + "vixnoc_srv_" + tag + "_" +
           std::to_string(::getpid());
    fs::remove_all(root);
    fs::create_directories(root);
    socket = root + "/d.sock";
    store = root + "/store";
  }
  ~TempService() { fs::remove_all(root); }

  DaemonConfig Config() const {
    DaemonConfig c;
    c.socket_path = socket;
    c.store_dir = store;
    c.threads = 2;
    return c;
  }
};

NetworkSimConfig ShortConfig(double rate = 0.10, std::uint64_t seed = 1) {
  NetworkSimConfig c;
  c.scheme = AllocScheme::kVix;
  c.injection_rate = rate;
  c.seed = seed;
  c.warmup = 300;
  c.measure = 900;
  c.drain = 300;
  c.sample_interval = 0;
  return c;
}

std::string Bytes(const NetworkSimResult& r) {
  SnapshotWriter w;
  w.BeginSection("r");
  SaveNetworkSimResult(w, r);
  w.EndSection();
  return w.Finish(0);
}

// ---------------------------------------------------------------------------
// Protocol round-trips (no daemon).

TEST(ServerProtocolTest, PointRequestRoundTripsAndAuthenticates) {
  const NetworkSimConfig config = ShortConfig(0.07, 42);
  const std::string payload = EncodePointRequest(config);
  const Request req = DecodeRequest(payload);
  EXPECT_EQ(req.kind, RequestKind::kPoint);
  ASSERT_EQ(req.configs.size(), 1u);
  EXPECT_EQ(NetworkSimResultKey(req.configs[0]),
            NetworkSimResultKey(config));

  // Any corrupted byte must fail decode, not deliver a different config.
  for (std::size_t i = 0; i < payload.size(); i += 11) {
    std::string bad = payload;
    bad[i] = static_cast<char>(bad[i] ^ 0x20);
    EXPECT_THROW((void)DecodeRequest(bad), SimError) << "byte " << i;
  }
}

TEST(ServerProtocolTest, BatchAndControlFramesRoundTrip) {
  std::vector<NetworkSimConfig> configs = {ShortConfig(0.05),
                                           ShortConfig(0.06),
                                           ShortConfig(0.05)};
  const Request batch = DecodeRequest(EncodeBatchRequest(configs));
  EXPECT_EQ(batch.kind, RequestKind::kBatch);
  ASSERT_EQ(batch.configs.size(), 3u);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    EXPECT_EQ(NetworkSimResultKey(batch.configs[i]),
              NetworkSimResultKey(configs[i]));
  }
  EXPECT_EQ(DecodeRequest(EncodeStatsRequest()).kind, RequestKind::kStats);
  EXPECT_EQ(DecodeRequest(EncodeShutdownRequest()).kind,
            RequestKind::kShutdown);
}

TEST(ServerProtocolTest, PointReplyRoundTripsWithAndWithoutResult) {
  const NetworkSimConfig config = ShortConfig();
  PointReply ok;
  ok.status = ServeStatus::kOk;
  ok.source = ServeSource::kStore;
  ok.result_key = NetworkSimResultKey(config);
  ok.result = RunNetworkSim(config);
  const PointReply ok2 = DecodePointReply(EncodePointReply(ok));
  EXPECT_EQ(ok2.status, ServeStatus::kOk);
  EXPECT_EQ(ok2.source, ServeSource::kStore);
  EXPECT_EQ(ok2.result_key, ok.result_key);
  EXPECT_EQ(Bytes(ok2.result), Bytes(ok.result));

  PointReply retry;
  retry.status = ServeStatus::kRetryAfter;
  retry.retry_after_seconds = 0.25;
  retry.message = "at capacity";
  const PointReply retry2 = DecodePointReply(EncodePointReply(retry));
  EXPECT_EQ(retry2.status, ServeStatus::kRetryAfter);
  EXPECT_DOUBLE_EQ(retry2.retry_after_seconds, 0.25);
  EXPECT_EQ(retry2.message, "at capacity");
  EXPECT_TRUE(IsPointReply(EncodePointReply(retry)));
  EXPECT_FALSE(IsPointReply(EncodeStatsReply(DaemonStats{})));
}

TEST(ServerProtocolTest, StatsReplyRoundTrips) {
  DaemonStats s;
  s.requests = 7;
  s.point_requests = 3;
  s.batch_requests = 2;
  s.points_served = 40;
  s.store_hits = 30;
  s.computed_points = 8;
  s.coalesced_points = 2;
  s.inflight = 1;
  s.store_bytes_written = 12'345;
  const DaemonStats d = DecodeStatsReply(EncodeStatsReply(s));
  EXPECT_EQ(d.requests, 7u);
  EXPECT_EQ(d.points_served, 40u);
  EXPECT_EQ(d.store_hits, 30u);
  EXPECT_EQ(d.computed_points, 8u);
  EXPECT_EQ(d.coalesced_points, 2u);
  EXPECT_EQ(d.store_bytes_written, 12'345u);
}

// ---------------------------------------------------------------------------
// Live daemon semantics (in-process SimDaemon + SimClient).

TEST(SimDaemonTest, StoreHitIsBitwiseIdenticalToFreshComputation) {
  TempService svc("identity");
  SimDaemon daemon(svc.Config());
  daemon.Start();
  SimClient client(svc.socket, 10.0);

  const NetworkSimConfig config = ShortConfig();
  const PointReply first = client.Point(config);
  ASSERT_EQ(first.status, ServeStatus::kOk);
  EXPECT_EQ(first.source, ServeSource::kComputed);

  const PointReply second = client.Point(config);
  ASSERT_EQ(second.status, ServeStatus::kOk);
  EXPECT_EQ(second.source, ServeSource::kStore);

  const std::string local = Bytes(RunNetworkSim(config));
  EXPECT_EQ(Bytes(first.result), local);
  EXPECT_EQ(Bytes(second.result), local);

  const DaemonStats s = daemon.stats();
  EXPECT_EQ(s.computed_points, 1u);
  EXPECT_EQ(s.store_hits, 1u);
  daemon.Stop();
}

TEST(SimDaemonTest, BatchIsAnsweredPositionallyWithDedupThroughTheStore) {
  TempService svc("batch");
  SimDaemon daemon(svc.Config());
  daemon.Start();
  SimClient client(svc.socket, 10.0);

  const NetworkSimConfig a = ShortConfig(0.05);
  const NetworkSimConfig b = ShortConfig(0.07);
  const std::vector<NetworkSimConfig> batch = {a, b, a};
  const std::vector<PointReply> replies = client.Batch(batch);
  ASSERT_EQ(replies.size(), 3u);
  for (const PointReply& r : replies) {
    ASSERT_EQ(r.status, ServeStatus::kOk);
  }
  EXPECT_EQ(Bytes(replies[0].result), Bytes(replies[2].result));
  // The duplicate slot never triggered a second simulation: it was a
  // store hit or coalesced join of the first slot's computation.
  EXPECT_EQ(daemon.stats().computed_points, 2u);
  daemon.Stop();
}

TEST(SimDaemonTest, NConcurrentClientsOneMissingPointOneSimulation) {
  TempService svc("singleflight");
  DaemonConfig dc = svc.Config();
  // Hold each computation's publish open so every client below arrives
  // while the point is still in flight.
  dc.test_compute_delay_ms = 400;
  SimDaemon daemon(dc);
  daemon.Start();

  const NetworkSimConfig missing = ShortConfig();
  constexpr int kClients = 6;
  std::vector<std::string> results(kClients);
  std::atomic<int> ok_count{0};
  std::vector<std::thread> pool;
  for (int i = 0; i < kClients; ++i) {
    pool.emplace_back([&, i] {
      SimClient c(svc.socket, 10.0);
      const PointReply r = c.PointWithRetry(missing);
      if (r.status == ServeStatus::kOk) {
        results[static_cast<std::size_t>(i)] = Bytes(r.result);
        ++ok_count;
      }
    });
  }
  for (std::thread& t : pool) t.join();

  EXPECT_EQ(ok_count.load(), kClients);
  for (int i = 1; i < kClients; ++i) {
    EXPECT_EQ(results[static_cast<std::size_t>(i)], results[0]);
  }
  // The acceptance bar: N requests, exactly one simulation.
  const DaemonStats s = daemon.stats();
  EXPECT_EQ(s.computed_points, 1u);
  EXPECT_EQ(s.coalesced_points + s.store_hits,
            static_cast<std::uint64_t>(kClients - 1));
  daemon.Stop();
}

TEST(SimDaemonTest, SaturatedQueueAnswersRetryAfterThenRecovers) {
  TempService svc("backpressure");
  DaemonConfig dc = svc.Config();
  dc.max_queue = 1;
  dc.test_compute_delay_ms = 500;
  dc.retry_after_seconds = 0.02;
  SimDaemon daemon(dc);
  daemon.Start();

  const NetworkSimConfig x = ShortConfig(0.05);
  const NetworkSimConfig y = ShortConfig(0.09);

  std::thread occupant([&] {
    SimClient c(svc.socket, 10.0);
    const PointReply r = c.Point(x);
    EXPECT_EQ(r.status, ServeStatus::kOk);
  });
  // Let x land in the (size-1) in-flight table, then ask for a different
  // missing point: the daemon must refuse with a positive retry hint
  // rather than queue it.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  SimClient client(svc.socket, 10.0);
  const PointReply refused = client.Point(y);
  EXPECT_EQ(refused.status, ServeStatus::kRetryAfter);
  EXPECT_GT(refused.retry_after_seconds, 0.0);
  // Joining the already-in-flight x is still allowed — it adds no work.
  const PointReply joined = client.Point(x);
  EXPECT_NE(joined.status, ServeStatus::kRetryAfter);

  // Once the pipe drains, the refused point goes through via the retry
  // helper.
  const PointReply eventually = client.PointWithRetry(y);
  EXPECT_EQ(eventually.status, ServeStatus::kOk);
  occupant.join();
  EXPECT_GE(daemon.stats().retry_after_replies, 1u);
  daemon.Stop();
}

TEST(SimDaemonTest, BatchWithRetryReasksRetryAfterSlotsUntilServed) {
  TempService svc("batch_retry");
  DaemonConfig dc = svc.Config();
  dc.max_queue = 1;
  dc.test_compute_delay_ms = 200;
  dc.retry_after_seconds = 0.02;
  SimDaemon daemon(dc);
  daemon.Start();
  SimClient client(svc.socket, 10.0);

  // Three distinct misses against a one-point queue: the first batch
  // admits one and refuses the rest, which are re-asked until served.
  const std::vector<NetworkSimConfig> batch = {
      ShortConfig(0.05), ShortConfig(0.07), ShortConfig(0.09)};
  const SimClient::BatchReplies served = client.BatchWithRetry(batch);
  ASSERT_EQ(served.replies.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(served.replies[i].status, ServeStatus::kOk) << "slot " << i;
  }
  EXPECT_GT(served.reasks, 0u);
  daemon.Stop();
}

TEST(SimDaemonTest, BatchWithRetryGivesUpWhenAttemptsRunOut) {
  TempService svc("batch_give_up");
  DaemonConfig dc = svc.Config();
  dc.max_queue = 1;
  dc.test_compute_delay_ms = 500;
  dc.retry_after_seconds = 0.02;
  SimDaemon daemon(dc);
  daemon.Start();

  std::thread occupant([&] {
    SimClient c(svc.socket, 10.0);
    EXPECT_EQ(c.Point(ShortConfig(0.05)).status, ServeStatus::kOk);
  });
  // With the queue held by another client, a single attempt comes back
  // retry-after instead of re-asking forever.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  SimClient client(svc.socket, 10.0);
  const SimClient::BatchReplies served =
      client.BatchWithRetry({ShortConfig(0.09)}, /*max_attempts=*/1);
  ASSERT_EQ(served.replies.size(), 1u);
  EXPECT_EQ(served.replies[0].status, ServeStatus::kRetryAfter);
  EXPECT_EQ(served.reasks, 0u);
  occupant.join();
  daemon.Stop();
}

TEST(SimDaemonTest, ClientNamedPathsAreRefusedAndNeverTouched) {
  TempService svc("paths");
  SimDaemon daemon(svc.Config());
  daemon.Start();
  SimClient client(svc.socket, 10.0);

  NetworkSimConfig checkpointing = ShortConfig();
  checkpointing.checkpoint_path = svc.root + "/client.ckpt";
  checkpointing.checkpoint_every = 100;
  const PointReply point = client.Point(checkpointing);
  EXPECT_EQ(point.status, ServeStatus::kError);
  EXPECT_NE(point.message.find("checkpoint_path"), std::string::npos)
      << point.message;
  EXPECT_FALSE(fs::exists(checkpointing.checkpoint_path));

  // Each of the other three fields alone, in one batch.
  std::vector<NetworkSimConfig> batch(3, ShortConfig());
  batch[0].checkpoint_every = 100;
  batch[1].restore_path = svc.root + "/client.ckpt";
  batch[2].deadlock_checkpoint_path = svc.root + "/deadlock.ckpt";
  const std::vector<PointReply> replies = client.Batch(batch);
  ASSERT_EQ(replies.size(), 3u);
  const char* fields[] = {"checkpoint_every", "restore_path",
                          "deadlock_checkpoint_path"};
  for (std::size_t i = 0; i < replies.size(); ++i) {
    EXPECT_EQ(replies[i].status, ServeStatus::kError) << fields[i];
    EXPECT_NE(replies[i].message.find(fields[i]), std::string::npos)
        << replies[i].message;
  }
  EXPECT_EQ(daemon.stats().computed_points, 0u);
  EXPECT_EQ(daemon.stats().error_replies, 4u);
  daemon.Stop();
  EXPECT_FALSE(fs::exists(checkpointing.checkpoint_path));
}

TEST(SimDaemonTest, MalformedFrameGetsStructuredErrorReply) {
  TempService svc("malformed");
  SimDaemon daemon(svc.Config());
  daemon.Start();

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, svc.socket.c_str(),
               sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  std::string error;
  ASSERT_TRUE(WriteFrame(fd, "not a snapshot container", &error)) << error;
  const FrameRead reply = ReadFrame(fd, 10.0);
  ASSERT_EQ(reply.status, FrameRead::Status::kOk);
  ASSERT_TRUE(IsPointReply(reply.payload));
  const PointReply decoded = DecodePointReply(reply.payload);
  EXPECT_EQ(decoded.status, ServeStatus::kError);
  EXPECT_FALSE(decoded.message.empty());
  ::close(fd);
  EXPECT_GE(daemon.stats().error_replies, 1u);
  daemon.Stop();
}

TEST(SimDaemonTest, OversizeLengthPrefixIsRefusedAndServiceContinues) {
  TempService svc("oversize");
  SimDaemon daemon(svc.Config());
  daemon.Start();

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, svc.socket.c_str(),
               sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  // A bare 8-byte prefix claiming one byte more than a request may hold
  // (and far less than the transport's 1 GiB bound): the daemon must hang
  // up at once instead of waiting for, or allocating, the claimed payload.
  std::uint64_t length = kMaxRequestFrameBytes + 1;
  char prefix[8];
  for (char& byte : prefix) {
    byte = static_cast<char>(length & 0xff);
    length >>= 8;
  }
  ASSERT_EQ(::write(fd, prefix, sizeof prefix),
            static_cast<ssize_t>(sizeof prefix));
  const FrameRead reply = ReadFrame(fd, 10.0);
  EXPECT_EQ(reply.status, FrameRead::Status::kEof) << reply.detail;
  ::close(fd);

  // Other clients are still served.
  SimClient client(svc.socket, 10.0);
  EXPECT_EQ(client.Point(ShortConfig()).status, ServeStatus::kOk);
  EXPECT_EQ(daemon.stats().requests, 1u);  // the refused frame is not one
  daemon.Stop();
}

TEST(SimDaemonTest, ShutdownFrameDrainsWaitAndUnlinksSocket) {
  TempService svc("shutdown");
  SimDaemon daemon(svc.Config());
  daemon.Start();

  std::thread waiter([&] { EXPECT_EQ(daemon.Wait(), 0); });
  {
    SimClient client(svc.socket, 10.0);
    // Seed one computed point so the drain has something to have finished.
    EXPECT_EQ(client.Point(ShortConfig()).status, ServeStatus::kOk);
    client.Shutdown();
  }
  waiter.join();
  EXPECT_FALSE(fs::exists(svc.socket));
}

// ---------------------------------------------------------------------------
// The real binary: SIGTERM mid-computation drains before exit 0.

#ifdef VIXNOC_VIXNOCD_PATH
TEST(VixnocdProcessTest, SigtermDrainsInflightPointsThenExitsZero) {
  TempService svc("sigterm");
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    const std::string socket_arg = "socket=" + svc.socket;
    const std::string store_arg = "store=" + svc.store;
    ::execl(VIXNOC_VIXNOCD_PATH, "vixnocd", socket_arg.c_str(),
            store_arg.c_str(), "threads=2", "test_compute_delay_ms=600",
            static_cast<char*>(nullptr));
    ::_exit(127);
  }

  // Fire a point whose publish is held open for 600 ms, then SIGTERM the
  // daemon mid-flight. The reply must still arrive, computed, before the
  // process exits cleanly.
  const NetworkSimConfig config = ShortConfig();
  // Connect before starting the kill timer so a slow daemon startup
  // cannot turn this into a "SIGTERM before the request" race.
  SimClient client(svc.socket, 10.0);
  PointReply reply;
  std::thread requester([&] { reply = client.PointWithRetry(config); });
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  requester.join();

  ASSERT_EQ(reply.status, ServeStatus::kOk);
  EXPECT_EQ(reply.source, ServeSource::kComputed);
  EXPECT_EQ(Bytes(reply.result), Bytes(RunNetworkSim(config)));

  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  EXPECT_FALSE(fs::exists(svc.socket));
  // The drained point made it into the store on disk.
  bool has_entry = false;
  for (const auto& e : fs::recursive_directory_iterator(svc.store)) {
    has_entry = has_entry || e.path().extension() == ".res";
  }
  EXPECT_TRUE(has_entry);
}
#endif  // VIXNOC_VIXNOCD_PATH

}  // namespace
}  // namespace vixnoc
