#include "store/result_store.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <system_error>
#include <vector>

#include "common/error.hpp"
#include "snapshot/snapshot.hpp"

namespace vixnoc {

namespace fs = std::filesystem;

namespace {

std::string HexKey(std::uint64_t key) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(key));
  return std::string(buf, 16);
}

bool IsEntryFile(const fs::path& p) {
  return p.extension() == ".res";
}

/// Staged-but-never-renamed tmp files (a writer crashed mid-Put). They
/// carry a ".tmp.<pid>.<n>" suffix, so they never collide with ".res"
/// entries; the GC sweeps ones old enough that no live writer owns them.
bool IsStaleTmpFile(const fs::path& p, fs::file_time_type now) {
  const std::string name = p.filename().string();
  if (name.find(".tmp.") == std::string::npos) return false;
  std::error_code ec;
  const auto mtime = fs::last_write_time(p, ec);
  if (ec) return false;
  return now - mtime > std::chrono::minutes(10);
}

}  // namespace

std::string StoreEntryRelPath(std::uint64_t key) {
  const std::string hex = HexKey(key);
  return hex.substr(0, 2) + "/" + hex + ".res";
}

ResultStore::ResultStore(ResultStoreConfig config)
    : config_(std::move(config)) {
  VIXNOC_REQUIRE(!config_.dir.empty(), "result store directory is empty");
  std::error_code ec;
  fs::create_directories(config_.dir, ec);
  VIXNOC_REQUIRE(!ec, "cannot create result store directory '%s': %s",
                 config_.dir.c_str(), ec.message().c_str());
  // Seed the size estimate from whatever a previous process left behind,
  // so max_bytes bounds the directory, not just this process's writes.
  for (auto it = fs::recursive_directory_iterator(
           config_.dir, fs::directory_options::skip_permission_denied, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (it->is_regular_file(ec) && IsEntryFile(it->path())) {
      approx_bytes_ += it->file_size(ec);
    }
  }
}

std::string ResultStore::EntryPath(std::uint64_t key) const {
  return config_.dir + "/" + StoreEntryRelPath(key);
}

std::string ResultStore::EntryPath(const NetworkSimConfig& config) const {
  return EntryPath(NetworkSimResultKey(config));
}

PointCacheStatus ResultStore::Load(const NetworkSimConfig& config,
                                   NetworkSimResult* out) {
  if (config.topology_factory || config.routing_factory) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.misses;
    return PointCacheStatus::kMiss;
  }
  const std::uint64_t key = NetworkSimResultKey(config);
  const std::string path = EntryPath(key);
  std::error_code ec;
  if (!fs::exists(path, ec) || ec) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.misses;
    return PointCacheStatus::kMiss;
  }
  try {
    SnapshotReader r(ReadSnapshotFile(path));
    VIXNOC_REQUIRE(r.fingerprint() == key,
                   "store entry '%s' carries key %016llx but this config's "
                   "result key is %016llx",
                   path.c_str(),
                   static_cast<unsigned long long>(r.fingerprint()),
                   static_cast<unsigned long long>(key));
    r.OpenSection("key");
    VIXNOC_REQUIRE(r.Str() == NetworkSimKeyBytes(config),
                   "store entry '%s' was filed for a config whose keyed "
                   "fields differ from this one's",
                   path.c_str());
    r.CloseSection();
    r.OpenSection("result");
    *out = LoadNetworkSimResult(r);
    r.CloseSection();
  } catch (const SimError& e) {
    std::fprintf(stderr,
                 "vixnoc: warning: defective result store entry '%s' (%s); "
                 "re-running the point\n",
                 path.c_str(), e.what());
    // Unlink the damaged file so the recompute's Put (which skips
    // existing entries) repairs the store instead of leaving the defect
    // to be rediscovered on every future run.
    std::uint64_t size = 0;
    if (const auto s = fs::file_size(path, ec); !ec) size = s;
    fs::remove(path, ec);
    std::lock_guard<std::mutex> lock(mu_);
    if (!ec) approx_bytes_ -= std::min(approx_bytes_, size);
    ++stats_.defective;
    return PointCacheStatus::kDefective;
  }
  // Refresh recency so the LRU-ish GC evicts cold entries first. Best
  // effort: a read-only store directory still serves hits.
  fs::last_write_time(path, fs::file_time_type::clock::now(), ec);
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.hits;
  return PointCacheStatus::kHit;
}

void ResultStore::Put(const NetworkSimConfig& config,
                      const NetworkSimResult& result) {
  // Error slots are not results — a crashed or invalid point must be
  // retried next time, never served from cache. Factory configs are
  // excluded because their key is ambiguous (presence-only hash).
  if (result.outcome.status == SimStatus::kInvariantViolation ||
      result.outcome.status == SimStatus::kExecFailure ||
      config.topology_factory || config.routing_factory) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.writes_skipped;
    return;
  }
  const std::uint64_t key = NetworkSimResultKey(config);
  const std::string path = EntryPath(key);
  std::error_code ec;
  if (fs::exists(path, ec) && !ec) {
    // Determinism makes a rewrite byte-identical; skipping it preserves
    // the entry's age and spares the I/O on warm re-runs.
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.writes_skipped;
    return;
  }
  try {
    SnapshotWriter w;
    w.BeginSection("key");
    w.Str(NetworkSimKeyBytes(config));
    w.EndSection();
    w.BeginSection("result");
    SaveNetworkSimResult(w, result);
    w.EndSection();
    const std::string bytes = w.Finish(key);
    fs::create_directories(fs::path(path).parent_path(), ec);
    VIXNOC_REQUIRE(!ec, "cannot create store shard directory for '%s': %s",
                   path.c_str(), ec.message().c_str());
    WriteSnapshotFile(path, bytes);
    bool gc = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.writes;
      stats_.bytes_written += bytes.size();
      approx_bytes_ += bytes.size();
      gc = config_.max_bytes > 0 && approx_bytes_ > config_.max_bytes;
    }
    if (gc) GarbageCollect();
  } catch (const SimError& e) {
    std::fprintf(stderr,
                 "vixnoc: warning: cannot write result store entry '%s' "
                 "(%s); continuing without caching this point\n",
                 path.c_str(), e.what());
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.write_failures;
  }
}

ResultStoreStats ResultStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::uint64_t ResultStore::approximate_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return approx_bytes_;
}

std::uint64_t ResultStore::GarbageCollect() {
  std::lock_guard<std::mutex> lock(mu_);
  return GarbageCollectLocked();
}

std::uint64_t ResultStore::GarbageCollectLocked() {
  struct Entry {
    fs::path path;
    std::uint64_t size;
    fs::file_time_type mtime;
  };
  std::vector<Entry> entries;
  std::uint64_t total = 0;
  const auto now = fs::file_time_type::clock::now();
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(
           config_.dir, fs::directory_options::skip_permission_denied, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    std::error_code fec;
    if (!it->is_regular_file(fec) || fec) continue;
    const fs::path& p = it->path();
    if (IsStaleTmpFile(p, now)) {
      fs::remove(p, fec);
      continue;
    }
    if (!IsEntryFile(p)) continue;
    Entry e;
    e.path = p;
    e.size = it->file_size(fec);
    if (fec) continue;
    e.mtime = fs::last_write_time(p, fec);
    if (fec) continue;
    total += e.size;
    entries.push_back(std::move(e));
  }
  ++stats_.gc_runs;
  approx_bytes_ = total;  // rescan folds in other processes' writes
  if (config_.max_bytes == 0 || total <= config_.max_bytes) return 0;

  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.mtime < b.mtime; });
  std::uint64_t evicted = 0;
  for (const Entry& e : entries) {
    if (approx_bytes_ <= config_.max_bytes) break;
    std::error_code rec;
    if (fs::remove(e.path, rec) && !rec) {
      approx_bytes_ -= std::min(approx_bytes_, e.size);
      ++evicted;
      ++stats_.gc_evicted_entries;
      stats_.gc_evicted_bytes += e.size;
    }
  }
  return evicted;
}

}  // namespace vixnoc
