// Content-addressed simulation result store.
//
// Every finished NetworkSimResult is filed under its NetworkSimResultKey —
// a semantic content key derived from the config, not from where the point
// sat in some batch. That one change is what turns per-sweep checkpointing
// into a shared cache: a popular design point computed by any bench, any
// batch shape, any grid ordering, or any machine sharing the directory is
// a hit for every later consumer. The vixnocd daemon serves its hits
// straight from here.
//
// Layout: `<dir>/<key[0:2]>/<key>.res` where `key` is the 16-lowercase-hex
// result key — two-level sharding keeps directory fan-out bounded at 256.
// Entries are snapshot containers (sections "key" = NetworkSimKeyBytes and
// "result", container fingerprint = the key) written atomically via
// unique-tmp+rename, so concurrent writers racing the same key — even from
// different processes — each stage a complete file and the last rename
// wins with identical bytes (results are deterministic functions of the
// key).
//
// Trust model: the store is an accelerator, never a correctness input.
// Load re-validates the container key and checksums, and compares the
// "key" section byte for byte with the looked-up config's, so a key
// collision is never served. A defective entry (truncated, corrupted,
// wrong key, differing or missing key bytes) warns on stderr, ticks a
// counter, and reports kDefective so the caller recomputes. Put never
// throws — a full disk degrades performance, not results.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>

#include "sim/network_sim.hpp"
#include "sim/sweep.hpp"

namespace vixnoc {

struct ResultStoreConfig {
  /// Root directory; created (with parents) by the constructor.
  std::string dir;
  /// When > 0, a Put that pushes the store's approximate on-disk size over
  /// this bound triggers a garbage collection that evicts least-recently
  /// used entries (by file mtime; hits refresh it) until under the bound.
  /// 0 disables GC.
  std::uint64_t max_bytes = 0;
};

/// Monotonic counters over the store's lifetime (this process only; the
/// directory itself may be shared with other processes).
struct ResultStoreStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  /// Entries that existed but failed validation and were recomputed.
  std::uint64_t defective = 0;
  std::uint64_t writes = 0;
  /// Puts skipped by policy: error-slot results (kInvariantViolation /
  /// kExecFailure), factory-built configs, or an entry already present.
  std::uint64_t writes_skipped = 0;
  /// Puts that failed on I/O; the result was still returned to the caller.
  std::uint64_t write_failures = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t gc_runs = 0;
  std::uint64_t gc_evicted_entries = 0;
  std::uint64_t gc_evicted_bytes = 0;
};

class ResultStore : public PointCache {
 public:
  /// Creates `config.dir` (with parents) and sums any existing entries
  /// into the approximate size. Throws SimError when the directory cannot
  /// be created — an unusable store path is a caller error, unlike the
  /// per-entry I/O failures tolerated afterwards.
  explicit ResultStore(ResultStoreConfig config);
  explicit ResultStore(std::string dir)
      : ResultStore(ResultStoreConfig{std::move(dir), 0}) {}

  const ResultStoreConfig& config() const { return config_; }

  /// Absolute path the entry for `config` lives at (whether or not it
  /// exists yet). Exposed for tests and tooling that corrupt or count
  /// entries directly.
  std::string EntryPath(const NetworkSimConfig& config) const;
  std::string EntryPath(std::uint64_t key) const;

  // PointCache interface. Load validates the container key, checksums and
  // key bytes, and refreshes the entry's mtime on a hit (the GC's recency
  // signal). Put is non-throwing and skips error slots and factory configs
  // (the key only records factory presence — caching those would let two
  // different factories collide).
  PointCacheStatus Load(const NetworkSimConfig& config,
                        NetworkSimResult* out) override;
  void Put(const NetworkSimConfig& config,
           const NetworkSimResult& result) override;

  ResultStoreStats stats() const;

  /// Running estimate of the entry bytes on disk: seeded by a scan at
  /// construction, bumped by writes. Other processes' writes are only
  /// folded in when a GC rescans.
  std::uint64_t approximate_bytes() const;

  /// Forces a collection pass: rescans the directory, evicts oldest-mtime
  /// entries until under max_bytes (no-op when max_bytes == 0 or already
  /// under), and sweeps stale orphaned tmp files. Returns entries evicted.
  std::uint64_t GarbageCollect();

 private:
  std::uint64_t GarbageCollectLocked();

  ResultStoreConfig config_;
  mutable std::mutex mu_;
  ResultStoreStats stats_;
  std::uint64_t approx_bytes_ = 0;
};

/// Relative entry path for a result key: "ab/abcdef0123456789.res".
std::string StoreEntryRelPath(std::uint64_t key);

}  // namespace vixnoc
