// Statistics accumulators used by the simulator and the bench harnesses.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/check.hpp"

namespace vixnoc {

/// Streaming mean/min/max/variance accumulator (Welford's algorithm).
class RunningStat {
 public:
  void Add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
    sum_ += x;
  }

  void Reset() { *this = RunningStat{}; }

  std::uint64_t Count() const { return n_; }
  double Sum() const { return sum_; }
  double Mean() const { return n_ == 0 ? 0.0 : mean_; }
  double Min() const { return n_ == 0 ? 0.0 : min_; }
  double Max() const { return n_ == 0 ? 0.0 : max_; }

  double Variance() const {
    return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
  }

  /// Raw accumulator state, for checkpoint/restore. Restoring a captured
  /// state makes subsequent Add() calls bitwise identical to a stat that
  /// never stopped.
  struct State {
    std::uint64_t n = 0;
    double mean = 0.0;
    double m2 = 0.0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
  };
  State state() const { return {n_, mean_, m2_, sum_, min_, max_}; }
  void set_state(const State& s) {
    n_ = s.n;
    mean_ = s.mean;
    m2_ = s.m2;
    sum_ = s.sum;
    if (n_ == 0) {
      min_ = std::numeric_limits<double>::infinity();
      max_ = -std::numeric_limits<double>::infinity();
    } else {
      min_ = s.min;
      max_ = s.max;
    }
  }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Fixed-bucket histogram for latency distributions.
class Histogram {
 public:
  /// Buckets are [0,w), [w,2w), ... plus one overflow bucket.
  Histogram(double bucket_width, std::size_t num_buckets)
      : width_(bucket_width), counts_(num_buckets + 1, 0) {
    VIXNOC_CHECK(bucket_width > 0.0);
    VIXNOC_CHECK(num_buckets > 0);
  }

  void Add(double x) {
    ++total_;
    if (x < 0) x = 0;
    auto idx = static_cast<std::size_t>(x / width_);
    if (idx >= counts_.size() - 1) idx = counts_.size() - 1;
    ++counts_[idx];
  }

  std::uint64_t TotalCount() const { return total_; }
  std::uint64_t BucketCount(std::size_t i) const { return counts_[i]; }
  /// Samples that landed at or beyond num_buckets * width. A non-zero count
  /// means quantiles near the tail are lower bounds, not point estimates.
  std::uint64_t OverflowCount() const { return counts_.back(); }

  /// Approximate p-quantile (q in [0,1]) from bucket midpoints. Quantiles
  /// that land in the overflow bucket are reported as that bucket's lower
  /// bound (num_buckets * width): the true value is at least this large.
  double Quantile(double q) const;

  /// Raw bucket state, for checkpoint/restore. `counts` must match this
  /// histogram's bucket count (checked) — the geometry itself (width,
  /// bucket count) is construction-time configuration, not restored state.
  const std::vector<std::uint64_t>& raw_counts() const { return counts_; }
  void set_state(std::vector<std::uint64_t> counts, std::uint64_t total) {
    VIXNOC_CHECK(counts.size() == counts_.size());
    counts_ = std::move(counts);
    total_ = total;
  }

 private:
  double width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

/// Per-node packet accounting used for throughput and fairness metrics.
struct NodeCounters {
  std::uint64_t packets_injected = 0;
  std::uint64_t packets_ejected = 0;   ///< packets whose destination is here
  std::uint64_t flits_injected = 0;
  std::uint64_t flits_ejected = 0;
  std::uint64_t packets_delivered = 0; ///< packets *sourced* here that arrived
};

}  // namespace vixnoc
