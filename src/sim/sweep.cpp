#include "sim/sweep.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/check.hpp"
#include "common/error.hpp"

namespace vixnoc {

int ResolveThreadCount(int requested) {
  VIXNOC_CHECK(requested >= 0);
  if (requested > kMaxThreadCount) {
    std::fprintf(stderr,
                 "vixnoc: warning: requested %d workers; capping at %d\n",
                 requested, kMaxThreadCount);
    return kMaxThreadCount;
  }
  if (requested > 0) return requested;
  if (const char* env = std::getenv("VIXNOC_THREADS")) {
    // Strict parse: the whole string must be a positive decimal integer
    // within the cap. Every malformed form is called out — a typo'd
    // VIXNOC_THREADS silently meaning "all cores" has burned people.
    char* end = nullptr;
    errno = 0;
    const long v = std::strtol(env, &end, 10);
    if (end == env || *end != '\0') {
      std::fprintf(stderr,
                   "vixnoc: warning: VIXNOC_THREADS='%s' is not an integer; "
                   "using hardware concurrency\n",
                   env);
    } else if (errno == ERANGE || v > kMaxThreadCount) {
      std::fprintf(stderr,
                   "vixnoc: warning: VIXNOC_THREADS='%s' exceeds the %d "
                   "worker cap; using %d\n",
                   env, kMaxThreadCount, kMaxThreadCount);
      return kMaxThreadCount;
    } else if (v <= 0) {
      std::fprintf(stderr,
                   "vixnoc: warning: VIXNOC_THREADS='%s' is not positive; "
                   "using hardware concurrency\n",
                   env);
    } else {
      return static_cast<int>(v);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

SweepRunner::SweepRunner(int num_threads, ExecuteFn execute)
    : execute_(std::move(execute)) {
  const int n = ResolveThreadCount(num_threads);
  workers_.reserve(n);
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

SweepRunner::~SweepRunner() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void SweepRunner::SetCache(std::shared_ptr<PointCache> cache) {
  std::lock_guard<std::mutex> lock(mu_);
  cache_ = std::move(cache);
}

std::size_t CountOrigin(const std::vector<PointOrigin>& origins,
                        PointOrigin origin) {
  return static_cast<std::size_t>(
      std::count(origins.begin(), origins.end(), origin));
}

NetworkSimResult SweepRunner::ExecutePoint(const NetworkSimConfig& config) {
  // A throwing point (invalid config, SimError) must not escape the
  // worker thread — that would std::terminate the process and wedge
  // Run() waiting on a slot that never completes. It becomes a failed
  // result instead, and the pool stays usable for later work.
  try {
    return RunNetworkSim(config);
  } catch (const SimError& e) {
    NetworkSimResult result;
    result.outcome.status = SimStatus::kInvariantViolation;
    result.outcome.message = e.what();
    return result;
  } catch (const std::exception& e) {
    NetworkSimResult result;
    result.outcome.status = SimStatus::kInvariantViolation;
    result.outcome.message = std::string("unexpected exception: ") + e.what();
    return result;
  }
}

void SweepRunner::WorkerLoop(int thread) {
  for (;;) {
    Job job;
    std::shared_ptr<PointCache> cache;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stop_ || !jobs_.empty(); });
      // Queued jobs are drained before stop is honored.
      if (jobs_.empty()) return;
      job = std::move(jobs_.front());
      jobs_.pop_front();
      cache = cache_;
    }

    // The job runs unlocked: it touches only this point's state (and
    // whatever per-thread state the step keeps under `thread`). With a
    // cache attached, a result stored by any earlier run of the same
    // point satisfies it without simulating. Any defect in the entry —
    // truncated, corrupted, or written under a different key — falls
    // through to a normal run; the cache is an accelerator, never a
    // correctness input.
    PointCacheStatus cached = PointCacheStatus::kMiss;
    NetworkSimResult result;
    if (cache) cached = cache->Load(job.config, &result);
    if (cached != PointCacheStatus::kHit) {
      result = execute_ ? execute_(job.config, job.index, thread)
                        : ExecutePoint(job.config);
      if (cache) cache->Put(job.config, result);  // non-throwing by contract
    }
    job.done(std::move(result), cached);
  }
}

std::vector<NetworkSimResult> SweepRunner::Run(
    const std::vector<NetworkSimConfig>& configs) {
  // Within-batch dedup: identical points (same NetworkSimResultKey) are
  // run once and fanned out to every slot afterwards. Configs with live
  // factory callbacks are exempt — the key only hashes factory
  // *presence*, so two different factories would collide.
  const std::size_t n = configs.size();
  std::vector<NetworkSimResult> results(n);
  std::vector<std::size_t> canonical(n);
  std::vector<PointOrigin> origins(n, PointOrigin::kExecuted);
  std::size_t pending = 0;
  std::size_t defective = 0;
  {
    std::unordered_map<std::uint64_t, std::size_t> first_by_key;
    first_by_key.reserve(n);
    std::unique_lock<std::mutex> lock(mu_);
    VIXNOC_CHECK(!running_);  // one batch at a time
    running_ = true;
    for (std::size_t i = 0; i < n; ++i) {
      canonical[i] = i;
      if (!configs[i].topology_factory && !configs[i].routing_factory) {
        const auto [it, inserted] =
            first_by_key.try_emplace(NetworkSimResultKey(configs[i]), i);
        if (!inserted) {
          canonical[i] = it->second;
          origins[i] = PointOrigin::kDuplicate;
          continue;
        }
      }
      ++pending;
      jobs_.push_back(Job{
          configs[i], i, [&, i](NetworkSimResult r, PointCacheStatus cached) {
            std::lock_guard<std::mutex> done_lock(mu_);
            results[i] = std::move(r);
            if (cached == PointCacheStatus::kHit) {
              origins[i] = PointOrigin::kCache;
            } else if (cached == PointCacheStatus::kDefective) {
              ++defective;
            }
            if (--pending == 0) done_cv_.notify_all();
          }});
    }
    work_cv_.notify_all();
    done_cv_.wait(lock, [&] { return pending == 0; });
    running_ = false;
    origins_ = std::move(origins);
    defective_ = defective;
  }

  for (std::size_t i = 0; i < n; ++i) {
    if (canonical[i] != i) results[i] = results[canonical[i]];
  }
  return results;
}

void SweepRunner::Submit(NetworkSimConfig config,
                         std::function<void(NetworkSimResult)> done) {
  VIXNOC_CHECK(done != nullptr);
  {
    std::lock_guard<std::mutex> lock(mu_);
    jobs_.push_back(Job{std::move(config), 0,
                        [done = std::move(done)](NetworkSimResult r,
                                                 PointCacheStatus) {
                          done(std::move(r));
                        }});
  }
  work_cv_.notify_one();
}

std::vector<NetworkSimResult> RunSweep(
    const std::vector<NetworkSimConfig>& configs, int num_threads) {
  if (num_threads == 0) {
    // The common auto-threaded call reuses one process-wide pool: callers
    // that loop over RunSweep stop paying a full thread spawn/join per call. Run() takes
    // one batch at a time, so concurrent callers are serialized here. The
    // pool joins its workers in its static destructor at exit.
    static SweepRunner shared(0);
    static std::mutex shared_mu;
    std::lock_guard<std::mutex> lock(shared_mu);
    return shared.Run(configs);
  }
  SweepRunner runner(num_threads);
  return runner.Run(configs);
}

}  // namespace vixnoc
