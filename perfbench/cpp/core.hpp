// Measurement vocabulary shared by every perfbench workload: clocks,
// medians and tail percentiles, bitwise result digests, the failure tally,
// peak resident set size, and the one-line JSON result.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/network_sim.hpp"

namespace vixnoc::perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double SecondsSince(Clock::time_point t0) {
  return SecondsBetween(t0, Clock::now());
}

/// Median (mean of the two middle values for even sizes). Requires a
/// non-empty input.
double Median(std::vector<double> samples);

/// A tail percentile is reported only when at least this many samples lie
/// strictly beyond it; fewer would make it an anecdote, not a statistic.
inline constexpr std::size_t kMinTailSamples = 10;

/// Nearest-rank `q`-quantile of `samples` (0 < q < 1), or nullopt when
/// fewer than kMinTailSamples samples lie beyond it.
std::optional<double> TailPercentile(std::vector<double> samples, double q);

/// FNV-1a over the full-fidelity encoding of every simulated field of a
/// result (SaveNetworkSimResult): two results digest equal iff they are
/// bitwise identical.
std::uint64_t ResultDigest(const NetworkSimResult& result);

/// Order-sensitive fold of ResultDigest over a batch.
std::uint64_t BatchDigest(const std::vector<NetworkSimResult>& results);

/// Points or requests attempted, and how many of them failed: an error
/// slot, an exec failure, a refused request, or a correctness mismatch.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void Add(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  double failed_frac() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

/// Gates one finished batch: every point must carry an ok outcome, and the
/// batch digest must equal `expected` when one is given. A digest mismatch
/// fails every point of the batch (no point of it can be trusted). Returns
/// the batch digest.
std::uint64_t CheckBatch(const std::vector<NetworkSimResult>& results,
                         std::optional<std::uint64_t> expected, Tally* tally);

/// Largest resident set, in MB, of this process and of every child it has
/// reaped (workers, daemon).
double PeakRssMb();

/// Harmonic mean: the rate over a whole run when every sample is the rate
/// of the same amount of work. Requires a non-empty, positive input.
double HarmonicMean(const std::vector<double>& samples);

/// The host's current speed: steps per second per thread of a fixed loop
/// (dependent loads around a 1 MiB random cycle, with integer mixing and a
/// data-dependent branch), run on `threads` threads at once for about
/// 12 ms after an untimed pass that warms the caches. The loop is the
/// benchmark's own and calls no program code, so no change to the program
/// moves it; only the host does.
double HostSpeed(int threads);

/// HostSpeed on the reference host (README.md, "Host speed").
inline constexpr double kReferenceHostSpeed = 9.0e7;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The result line: {"correct", "attempted", "failed", "metrics"}, values
/// printed with every digit.
std::string ResultJson(bool correct, const Tally& tally,
                       const std::vector<Metric>& metrics);

/// "%016llx" of a 64-bit value.
std::string Hex(std::uint64_t v);

}  // namespace vixnoc::perfbench
