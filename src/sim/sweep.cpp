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
  VIXNOC_CHECK(batch_ == nullptr);  // not against a batch in flight
  cache_ = std::move(cache);
}

std::size_t SweepRunner::Count(PointOrigin origin) const {
  return static_cast<std::size_t>(
      std::count(origins_.begin(), origins_.end(), origin));
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
    std::size_t pos = 0;
    Job job;
    bool have_job = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] {
        return stop_ || !jobs_.empty() ||
               (batch_ != nullptr && next_ < work_.size());
      });
      if (batch_ != nullptr && next_ < work_.size()) {
        pos = next_++;
      } else if (!jobs_.empty()) {
        job = std::move(jobs_.front());
        jobs_.pop_front();
        have_job = true;
      } else if (stop_) {
        // Pending Submit jobs were drained above before honoring stop.
        return;
      } else {
        continue;
      }
    }

    if (have_job) {
      // The job runs unlocked; its callback owns whatever synchronization
      // the submitter needs.
      job.done(ExecutePoint(job.config));
      continue;
    }

    const std::size_t index = work_[pos];
    const NetworkSimConfig& config = (*batch_)[index];

    // With a cache attached, a result stored by any earlier run of the
    // same point satisfies it without simulating. Any defect in the
    // entry — truncated, corrupted, or written under a different key —
    // falls through to a normal run with a warning and a
    // defective_cache_points() tick; the cache is an accelerator, never
    // a correctness input.
    PointCacheStatus cached = PointCacheStatus::kMiss;
    NetworkSimResult result;
    if (cache_) cached = cache_->Load(config, &result);
    if (cached != PointCacheStatus::kHit) {
      // The step runs unlocked: it touches only this point's state (and
      // whatever per-thread state it keeps under `thread`).
      result = execute_ ? execute_(config, index, thread)
                        : ExecutePoint(config);
      if (cache_) cache_->Put(config, result);  // non-throwing by contract
    }

    {
      std::lock_guard<std::mutex> lock(mu_);
      (*results_)[index] = std::move(result);
      if (cached == PointCacheStatus::kHit) {
        origins_[index] = PointOrigin::kCache;
      } else if (cached == PointCacheStatus::kDefective) {
        ++defective_;
      }
      if (++done_ == work_.size()) done_cv_.notify_all();
    }
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
  std::vector<std::size_t> work;
  std::vector<PointOrigin> origins(n, PointOrigin::kExecuted);
  {
    std::unordered_map<std::uint64_t, std::size_t> first_by_key;
    first_by_key.reserve(n);
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
      work.push_back(i);
    }
  }

  {
    std::unique_lock<std::mutex> lock(mu_);
    VIXNOC_CHECK(batch_ == nullptr);  // one batch at a time
    batch_ = &configs;
    results_ = &results;
    work_ = std::move(work);
    origins_ = std::move(origins);
    next_ = 0;
    done_ = 0;
    defective_ = 0;
    work_cv_.notify_all();
    done_cv_.wait(lock, [&] { return done_ == work_.size(); });
    batch_ = nullptr;
    results_ = nullptr;
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
    jobs_.push_back(Job{std::move(config), std::move(done)});
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
