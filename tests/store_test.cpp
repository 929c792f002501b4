// Content-addressed result store: correctness of the cache the sweep
// machinery and the vixnocd daemon are built on.
//
// The contracts under test: entries round-trip bitwise; the result key
// distinguishes observation knobs (telemetry) on top of the evolution
// fingerprint; every possible truncation or corruption of an entry is
// detected (never served as data); concurrent same-key writers — across
// real process boundaries — leave a valid entry; GC evicts oldest-first
// and respects max_bytes; and the SweepRunner/SweepCoordinator resume +
// dedup behavior layered on the store is exact. The config field table
// (sim/config_fields.hpp) that the key, the store's key bytes and the
// frame codec walk is tested entry by entry.
#include "store/result_store.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "exec/exec_protocol.hpp"
#include "routing/routing_algorithm.hpp"
#include "server/server_protocol.hpp"
#include "sim/config_fields.hpp"
#include "sim/network_sim.hpp"
#include "sim/sweep.hpp"
#include "snapshot/snapshot.hpp"

namespace vixnoc {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& tag) {
  const std::string dir = testing::TempDir() + "vixnoc_store_" + tag + "_" +
                          std::to_string(::getpid());
  fs::remove_all(dir);
  return dir;
}

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

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void Spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(ResultStoreTest, RoundTripIsBitwiseIdentical) {
  const std::string dir = FreshDir("roundtrip");
  ResultStore store(dir);
  const NetworkSimConfig config = ShortConfig();
  const NetworkSimResult fresh = RunNetworkSim(config);

  NetworkSimResult out;
  EXPECT_EQ(store.Load(config, &out), PointCacheStatus::kMiss);
  store.Put(config, fresh);
  EXPECT_TRUE(fs::exists(store.EntryPath(config)));
  ASSERT_EQ(store.Load(config, &out), PointCacheStatus::kHit);
  EXPECT_EQ(Bytes(out), Bytes(fresh));

  const ResultStoreStats s = store.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.writes, 1u);
  EXPECT_EQ(s.defective, 0u);
  EXPECT_GT(store.approximate_bytes(), 0u);

  // The entry lives in its two-hex-char shard under the key filename.
  const std::uint64_t key = NetworkSimResultKey(config);
  EXPECT_EQ(store.EntryPath(config), dir + "/" + StoreEntryRelPath(key));
  fs::remove_all(dir);
}

TEST(ResultStoreTest, ResultKeySeparatesObservationKnobs) {
  NetworkSimConfig base = ShortConfig();
  NetworkSimConfig with_telemetry = base;
  with_telemetry.telemetry.enabled = true;
  // Same evolution fingerprint — telemetry does not perturb the simulation —
  // but different result keys: the stored payloads differ.
  EXPECT_EQ(NetworkSimConfigFingerprint(base),
            NetworkSimConfigFingerprint(with_telemetry));
  EXPECT_NE(NetworkSimResultKey(base), NetworkSimResultKey(with_telemetry));

  // Checkpoint plumbing is excluded: restoring is bitwise-equivalent, so
  // a checkpointing run and a plain run share one entry.
  NetworkSimConfig with_ckpt = base;
  with_ckpt.checkpoint_path = "/tmp/somewhere.ckpt";
  with_ckpt.checkpoint_every = 1'000;
  EXPECT_EQ(NetworkSimResultKey(base), NetworkSimResultKey(with_ckpt));
}

TEST(ResultStoreTest, EveryTruncationAndCorruptionIsDetected) {
  const std::string dir = FreshDir("trunc");
  ResultStore store(dir);
  const NetworkSimConfig config = ShortConfig();
  store.Put(config, RunNetworkSim(config));
  const std::string path = store.EntryPath(config);
  const std::string good = Slurp(path);
  ASSERT_FALSE(good.empty());

  NetworkSimResult out;
  for (std::size_t len = 0; len < good.size(); ++len) {
    Spit(path, good.substr(0, len));
    // kDefective (validation caught it), never kHit with garbage. A
    // defective entry is also unlinked so a later Put can repair it.
    EXPECT_EQ(store.Load(config, &out), PointCacheStatus::kDefective)
        << "truncation at " << len << " of " << good.size();
    EXPECT_FALSE(fs::exists(path)) << "defective entry not unlinked";
  }
  // Single-byte corruption anywhere is caught by the section checksums /
  // container fingerprint. (Sampled stride keeps the test fast.)
  for (std::size_t i = 0; i < good.size(); i += 7) {
    std::string bad = good;
    bad[i] = static_cast<char>(bad[i] ^ 0x40);
    Spit(path, bad);
    EXPECT_EQ(store.Load(config, &out), PointCacheStatus::kDefective)
        << "corruption at byte " << i;
  }
  EXPECT_GE(store.stats().defective, good.size());
  fs::remove_all(dir);
}

TEST(ResultStoreTest, EntryFiledForAnotherConfigIsNeverServed) {
  const std::string dir = FreshDir("forged");
  ResultStore store(dir);
  const NetworkSimConfig a = ShortConfig(0.10, 1);
  const NetworkSimConfig b = ShortConfig(0.10, 2);
  const std::string path = store.EntryPath(a);
  fs::create_directories(fs::path(path).parent_path());
  NetworkSimResult out;

  // A's path and container key over B's key bytes: what a 64-bit key
  // collision between A and B, or a field missing from the key, leaves.
  SnapshotWriter forged;
  forged.BeginSection("key");
  forged.Str(NetworkSimKeyBytes(b));
  forged.EndSection();
  forged.BeginSection("result");
  SaveNetworkSimResult(forged, NetworkSimResult{});
  forged.EndSection();
  Spit(path, forged.Finish(NetworkSimResultKey(a)));
  EXPECT_EQ(store.Load(a, &out), PointCacheStatus::kDefective);
  EXPECT_FALSE(fs::exists(path)) << "defective entry not unlinked";

  // An entry with no key section (written before entries carried one)
  // takes the same path.
  SnapshotWriter keyless;
  keyless.BeginSection("result");
  SaveNetworkSimResult(keyless, NetworkSimResult{});
  keyless.EndSection();
  Spit(path, keyless.Finish(NetworkSimResultKey(a)));
  EXPECT_EQ(store.Load(a, &out), PointCacheStatus::kDefective);
  EXPECT_EQ(store.stats().defective, 2u);
  fs::remove_all(dir);
}

TEST(ResultStoreTest, CrossProcessConcurrentWritersLeaveAValidEntry) {
  const std::string dir = FreshDir("race");
  const NetworkSimConfig config = ShortConfig();
  const NetworkSimResult fresh = RunNetworkSim(config);

  // Fork real processes all Putting the same key at once: unique tmp
  // names + atomic rename mean the survivors' bytes are identical and the
  // final entry always validates.
  constexpr int kWriters = 8;
  std::vector<pid_t> pids;
  for (int i = 0; i < kWriters; ++i) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      ResultStore child_store(dir);
      child_store.Put(config, fresh);
      ::_exit(0);
    }
    pids.push_back(pid);
  }
  for (const pid_t pid : pids) {
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  }

  ResultStore store(dir);
  NetworkSimResult out;
  ASSERT_EQ(store.Load(config, &out), PointCacheStatus::kHit);
  EXPECT_EQ(Bytes(out), Bytes(fresh));
  // No staged tmp files left behind by the race.
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) {
      EXPECT_EQ(e.path().extension(), ".res") << e.path();
    }
  }
  fs::remove_all(dir);
}

TEST(ResultStoreTest, PutSkipsErrorSlotsAndExistingEntries) {
  const std::string dir = FreshDir("skip");
  ResultStore store(dir);
  const NetworkSimConfig config = ShortConfig();

  NetworkSimResult broken;
  broken.outcome.status = SimStatus::kInvariantViolation;
  store.Put(config, broken);
  EXPECT_FALSE(fs::exists(store.EntryPath(config)));
  NetworkSimResult exec_failed;
  exec_failed.outcome.status = SimStatus::kExecFailure;
  store.Put(config, exec_failed);
  EXPECT_FALSE(fs::exists(store.EntryPath(config)));
  EXPECT_EQ(store.stats().writes_skipped, 2u);

  // A real result lands; an identical re-Put is skipped (determinism
  // makes the rewrite pointless).
  const NetworkSimResult fresh = RunNetworkSim(config);
  store.Put(config, fresh);
  store.Put(config, fresh);
  EXPECT_EQ(store.stats().writes, 1u);
  EXPECT_EQ(store.stats().writes_skipped, 3u);
  fs::remove_all(dir);
}

TEST(ResultStoreTest, GarbageCollectionEvictsOldestUntilUnderBound) {
  const std::string dir = FreshDir("gc");
  std::vector<NetworkSimConfig> configs;
  std::uint64_t entry_bytes = 0;
  {
    ResultStore store(dir);
    for (int i = 0; i < 4; ++i) {
      NetworkSimConfig c = ShortConfig(0.05 + 0.01 * i);
      configs.push_back(c);
      store.Put(c, RunNetworkSim(c));
    }
    entry_bytes = store.approximate_bytes() / 4;
    ASSERT_GT(entry_bytes, 0u);
  }
  // Age the first two entries far into the past; the GC must pick them.
  const auto old_time =
      fs::file_time_type::clock::now() - std::chrono::hours(24);
  {
    ResultStore store(dir);
    fs::last_write_time(store.EntryPath(configs[0]), old_time);
    fs::last_write_time(store.EntryPath(configs[1]), old_time);
  }

  // Bound fits two entries (plus slack below three): the two aged ones go.
  ResultStore bounded(
      ResultStoreConfig{dir, entry_bytes * 2 + entry_bytes / 2});
  EXPECT_EQ(bounded.GarbageCollect(), 2u);
  EXPECT_FALSE(fs::exists(bounded.EntryPath(configs[0])));
  EXPECT_FALSE(fs::exists(bounded.EntryPath(configs[1])));
  EXPECT_TRUE(fs::exists(bounded.EntryPath(configs[2])));
  EXPECT_TRUE(fs::exists(bounded.EntryPath(configs[3])));
  EXPECT_LE(bounded.approximate_bytes(), entry_bytes * 2 + entry_bytes / 2);
  EXPECT_EQ(bounded.stats().gc_evicted_entries, 2u);

  // A Put that crosses the bound triggers collection by itself.
  NetworkSimConfig extra = ShortConfig(0.11);
  bounded.Put(extra, RunNetworkSim(extra));
  EXPECT_LE(bounded.approximate_bytes(), entry_bytes * 2 + entry_bytes / 2);
  fs::remove_all(dir);
}

TEST(ResultStoreTest, SweepRunnerResumesAcrossReorderedGrids) {
  const std::string dir = FreshDir("reorder");
  std::vector<NetworkSimConfig> grid;
  for (int i = 0; i < 5; ++i) grid.push_back(ShortConfig(0.04 + 0.02 * i));

  auto store = std::make_shared<ResultStore>(dir);
  SweepRunner first(2);
  first.SetCache(store);
  const std::vector<NetworkSimResult> r1 = first.Run(grid);
  EXPECT_EQ(first.resumed_points(), 0u);

  // Content addressing means order and batch shape are irrelevant: the
  // reversed grid (a different "batch" entirely) is a full resume.
  std::vector<NetworkSimConfig> reversed(grid.rbegin(), grid.rend());
  SweepRunner second(2);
  second.SetCache(std::make_shared<ResultStore>(dir));
  const std::vector<NetworkSimResult> r2 = second.Run(reversed);
  EXPECT_EQ(second.resumed_points(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(Bytes(r2[i]), Bytes(r1[grid.size() - 1 - i])) << i;
  }
  fs::remove_all(dir);
}

TEST(SweepRunnerTest, WithinBatchDuplicatesAreDeduplicated) {
  // The same point three times plus two distinct ones: two slots are
  // satisfied by copying the canonical result, and with a store attached
  // only the distinct points are ever written.
  const std::string dir = FreshDir("dedup");
  const NetworkSimConfig a = ShortConfig(0.06);
  const NetworkSimConfig b = ShortConfig(0.08);
  const std::vector<NetworkSimConfig> batch = {a, b, a, a, ShortConfig(0.10)};

  auto store = std::make_shared<ResultStore>(dir);
  SweepRunner runner(2);
  runner.SetCache(store);
  const std::vector<NetworkSimResult> results = runner.Run(batch);
  EXPECT_EQ(runner.deduped_points(), 2u);
  EXPECT_EQ(store->stats().writes, 3u);
  EXPECT_EQ(Bytes(results[0]), Bytes(results[2]));
  EXPECT_EQ(Bytes(results[0]), Bytes(results[3]));
  EXPECT_EQ(Bytes(results[0]), Bytes(RunNetworkSim(a)));
  EXPECT_EQ(Bytes(results[1]), Bytes(RunNetworkSim(b)));
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// The config field table, entry by entry.

/// An entry's value as bytes, so entries of any type compare for equality.
template <class T>
  requires std::is_arithmetic_v<T> || std::is_enum_v<T>
std::string Repr(const T& v) {
  return std::string(reinterpret_cast<const char*>(&v), sizeof v);
}
std::string Repr(const std::string& v) { return "s" + v; }
template <class E>
std::string Repr(const std::optional<E>& v) {
  return v ? "1" + Repr(*v) : "0";
}
template <class S>
std::string Repr(const std::function<S>& v) {
  return v ? "factory" : "none";
}
std::string Repr(const std::vector<std::pair<RouterId, PortId>>& v) {
  std::string out;
  for (const auto& [router, port] : v) out += Repr(router) + Repr(port);
  return out;
}

std::vector<std::string> Entries(const NetworkSimConfig& c) {
  std::vector<std::string> out;
  VisitNetworkSimConfig(c, [&](const ConfigField&, const auto& v) {
    out.push_back(Repr(v));
  });
  return out;
}

/// Moves one entry off its current value, whatever its type.
void Nudge(bool& v) { v = !v; }
template <class T>
  requires std::is_arithmetic_v<T>
void Nudge(T& v) {
  v += 1;
}
template <class E>
  requires std::is_enum_v<E>
void Nudge(E& v) {
  v = static_cast<E>(static_cast<int>(v) == 0 ? 1 : 0);
}
void Nudge(std::string& v) { v += "x"; }
template <class E>
void Nudge(std::optional<E>& v) {
  v = v ? std::nullopt : std::optional<E>(E{});
}
template <class S>
void Nudge(std::function<S>& v) {
  v = [](const auto&...) { return typename std::function<S>::result_type(); };
}
void Nudge(std::vector<std::pair<RouterId, PortId>>& v) {
  v.emplace_back(1, 2);
}

NetworkSimConfig EveryFieldOffDefault() {
  NetworkSimConfig c;
  c.topology = TopologyKind::kTorus;
  c.scheme = AllocScheme::kSerenade;
  c.num_vcs = 4;
  c.buffer_depth = 3;
  c.packet_size = 2;
  c.injection_rate = 0.17;
  c.pattern = PatternKind::kIncast;
  c.hotspot_node = 9;
  c.incast_fanin = 12;
  c.arbiter = ArbiterKind::kMatrix;
  c.vc_policy = VcAssignPolicy::kVixBalance;
  c.ap_rotate_vcs = false;
  c.pipeline_stages = 5;
  c.vix_virtual_inputs = 2;
  c.interleaved_vins = true;
  c.prioritize_nonspeculative = true;
  c.va_organization = VaOrganization::kSeparableArbitrated;
  c.atomic_vc_alloc = true;
  c.bursty = true;
  c.burst_on_rate = 0.4;
  c.mean_burst_cycles = 17.5;
  c.topology_factory = [] { return std::unique_ptr<Topology>(); };
  c.routing = "adaptive_min";
  c.routing_factory = [](const Topology&) {
    return std::unique_ptr<RoutingAlgorithm>();
  };
  c.sample_interval = 123;
  c.faults.link_down_rate = 0.01;
  c.faults.transient_rate = 0.02;
  c.faults.transient_period = 3'000;
  c.faults.transient_duration = 150;
  c.faults.router_stall_rate = 0.03;
  c.faults.stall_period = 2'500;
  c.faults.stall_duration = 90;
  c.faults.corruption_rate = 0.001;
  c.faults.forced_link_down = {{3, 1}, {7, 2}};
  c.faults.seed = 99;
  c.watchdog_cycles = 7'777;
  c.telemetry.enabled = true;
  c.telemetry.window_cycles = 512;
  c.telemetry.max_windows = 32;
  c.telemetry.trace_sample_period = 5;
  c.telemetry.max_trace_events = 1'000;
  c.checkpoint_path = "run.ckpt";
  c.checkpoint_every = 400;
  c.restore_path = "start.ckpt";
  c.deadlock_checkpoint_path = "deadlock.ckpt";
  c.seed = 42;
  c.warmup = 111;
  c.measure = 222;
  c.drain = 33;
  return c;
}

TEST(ConfigFieldTableTest, FingerprintAndResultKeyValuesArePinned) {
  // Checkpoints stamp the fingerprint and store files are named by the
  // result key, so neither value may move without a snapshot format bump.
  const NetworkSimConfig defaults;
  EXPECT_EQ(NetworkSimConfigFingerprint(defaults), 0x8238b983114fde64ull);
  EXPECT_EQ(NetworkSimResultKey(defaults), 0x15cb8dacd79a02c5ull);
  const NetworkSimConfig off = EveryFieldOffDefault();
  EXPECT_EQ(NetworkSimConfigFingerprint(off), 0xd6ca2ad09b818fa8ull);
  EXPECT_EQ(NetworkSimResultKey(off), 0xd9795582351d89b7ull);

  // The second pin covers every entry of the table.
  const std::vector<std::string> d = Entries(defaults);
  const std::vector<std::string> o = Entries(off);
  ASSERT_EQ(d.size(), o.size());
  std::size_t i = 0;
  VisitNetworkSimConfig(defaults, [&](const ConfigField& f, const auto&) {
    EXPECT_NE(d[i], o[i]) << f.name << " is at its default";
    ++i;
  });
}

TEST(ConfigFieldTableTest, EachFieldReachesItsKeysAndCrossesEveryFrame) {
  const NetworkSimConfig base = ShortConfig();
  const std::uint64_t fingerprint = NetworkSimConfigFingerprint(base);
  const std::uint64_t key = NetworkSimResultKey(base);
  const std::string key_bytes = NetworkSimKeyBytes(base);
  const std::size_t entries = Entries(base).size();
  for (std::size_t i = 0; i < entries; ++i) {
    NetworkSimConfig c = base;
    ConfigField field{};
    std::size_t at = 0;
    VisitNetworkSimConfig(c, [&](const ConfigField& f, auto& v) {
      if (at++ == i) {
        field = f;
        Nudge(v);
      }
    });
    SCOPED_TRACE(field.name);
    const bool keyed = field.kind != FieldClass::kOperational;
    EXPECT_EQ(NetworkSimConfigFingerprint(c) != fingerprint,
              field.kind == FieldClass::kEvolution);
    EXPECT_EQ(NetworkSimResultKey(c) != key, keyed);
    ASSERT_NE(Entries(c), Entries(base));

    if (c.topology_factory || c.routing_factory) {
      EXPECT_THROW(EncodePointFrame(PointFrame{0, 0, c}), SimError);
      EXPECT_THROW(EncodeBatchRequest({c}), SimError);
      continue;
    }
    EXPECT_EQ(NetworkSimKeyBytes(c) != key_bytes, keyed);
    const PointFrame frame = DecodePointFrame(EncodePointFrame({7, 1, c}));
    EXPECT_EQ(Entries(frame.config), Entries(c));
    const Request batch = DecodeRequest(EncodeBatchRequest({base, c}));
    ASSERT_EQ(batch.configs.size(), 2u);
    EXPECT_EQ(Entries(batch.configs[0]), Entries(base));
    EXPECT_EQ(Entries(batch.configs[1]), Entries(c));
  }
}

}  // namespace
}  // namespace vixnoc
