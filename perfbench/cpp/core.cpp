#include "core.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <thread>

#include "bench_util.hpp"
#include "common/check.hpp"
#include "snapshot/snapshot.hpp"

namespace vixnoc::perfbench {

double Median(std::vector<double> samples) {
  VIXNOC_CHECK(!samples.empty());
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::optional<double> TailPercentile(std::vector<double> samples, double q) {
  VIXNOC_CHECK(q > 0.0 && q < 1.0);
  const std::size_t n = samples.size();
  if (n == 0) return std::nullopt;
  const double rank = std::ceil(q * static_cast<double>(n));
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  if (n - 1 - idx < kMinTailSamples) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + idx, samples.end());
  return samples[idx];
}

std::uint64_t ResultDigest(const NetworkSimResult& result) {
  SnapshotWriter w;
  w.BeginSection("result");
  SaveNetworkSimResult(w, result);
  w.EndSection();
  const std::string bytes = w.Finish(0);
  return Fnv1a64(bytes.data(), bytes.size());
}

std::uint64_t BatchDigest(const std::vector<NetworkSimResult>& results) {
  std::uint64_t h = Fnv1a64("batch", 5);
  for (const NetworkSimResult& r : results) {
    const std::uint64_t d = ResultDigest(r);
    h = Fnv1a64(&d, sizeof d, h);
  }
  return h;
}

std::uint64_t CheckBatch(const std::vector<NetworkSimResult>& results,
                         std::optional<std::uint64_t> expected, Tally* tally) {
  const std::uint64_t digest = BatchDigest(results);
  const bool digest_ok = !expected.has_value() || *expected == digest;
  if (!digest_ok) {
    std::fprintf(stderr,
                 "perfbench: batch digest %s differs from the expected %s\n",
                 Hex(digest).c_str(), Hex(*expected).c_str());
  }
  for (const NetworkSimResult& r : results) {
    if (!r.outcome.ok()) {
      std::fprintf(stderr, "perfbench: point failed: %s: %s\n",
                   ToString(r.outcome.status).c_str(),
                   r.outcome.message.c_str());
    }
    tally->Add(digest_ok && r.outcome.ok());
  }
  return digest;
}

double HarmonicMean(const std::vector<double>& samples) {
  VIXNOC_CHECK(!samples.empty());
  double inverse = 0.0;
  for (const double v : samples) inverse += 1.0 / v;
  return static_cast<double>(samples.size()) / inverse;
}

double HostSpeed(int threads) {
  constexpr std::uint32_t kSlots = 1u << 18;  // 1 MiB of uint32
  constexpr std::uint64_t kSteps = 1u << 20;
  // One cycle through every slot (Sattolo's shuffle), so the chase never
  // settles into a short loop that fits a smaller cache.
  static const std::vector<std::uint32_t> next = [] {
    std::vector<std::uint32_t> order(kSlots);
    std::iota(order.begin(), order.end(), 0u);
    std::uint64_t state = 0x5eed;
    for (std::uint32_t i = kSlots - 1; i > 0; --i) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      std::swap(order[i], order[(state >> 33) % i]);
    }
    std::vector<std::uint32_t> cycle(kSlots);
    for (std::uint32_t i = 0; i < kSlots; ++i) {
      cycle[order[i]] = order[(i + 1) % kSlots];
    }
    return cycle;
  }();
  std::vector<double> rate(static_cast<std::size_t>(threads));
  std::vector<std::uint64_t> sink(static_cast<std::size_t>(threads));
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      std::uint32_t x = static_cast<std::uint32_t>(t) * 7919u % kSlots;
      std::uint64_t acc = 0;
      const auto chase = [&](std::uint64_t steps) {
        for (std::uint64_t i = 0; i < steps; ++i) {
          x = next[x];
          acc = acc * 0x9e3779b97f4a7c15ull + x;
          if (acc >> 63) acc ^= acc >> 29;
        }
      };
      chase(kSlots);
      const Clock::time_point t0 = Clock::now();
      chase(kSteps);
      rate[static_cast<std::size_t>(t)] =
          static_cast<double>(kSteps) / SecondsSince(t0);
      sink[static_cast<std::size_t>(t)] = acc;
    });
  }
  for (std::thread& th : pool) th.join();
  // Keeps the loop from being optimised away.
  volatile std::uint64_t keep = std::accumulate(sink.begin(), sink.end(), 0ull);
  (void)keep;
  return std::accumulate(rate.begin(), rate.end(), 0.0) / threads;
}

double PeakRssMb() {
  // RUSAGE_SELF would carry the high-water mark of whatever process exec'd
  // this one (Linux keeps ru_maxrss across execve), so this process's own
  // peak comes from VmHWM, which starts afresh with the new image.
  long self_kib = 0;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &self_kib) == 1) break;
    }
    std::fclose(f);
  }
  // The largest single reaped descendant (worker or daemon), in KiB.
  rusage children{};
  ::getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self_kib, children.ru_maxrss)) / 1024.0;
}

std::string ResultJson(bool correct, const Tally& tally,
                       const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(tally.attempted) +
                    ", \"failed\": " + std::to_string(tally.failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[40];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    out += (i ? ", \"" : "\"") + bench::EscapeJson(metrics[i].name) +
           "\": {\"value\": " +
           (std::isfinite(metrics[i].value) ? std::string(value) : "null") +
           ", \"unit\": \"" + bench::EscapeJson(metrics[i].unit) + "\"}";
  }
  return out + "}}";
}

std::string Hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace vixnoc::perfbench
