// In-memory span recorder for the traced run.
//
// Spans are recorded only in the benchmark's own code, around its calls
// into the simulator's layers: one per point, request, store operation and
// codec call. Per-cycle calls (Network::Step, injection) are too fine for a
// span each; they are aggregated into a named count and total instead.
// Everything stays in memory until Write, called once at exit.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core.hpp"

namespace vixnoc::perfbench {

class Tracer {
 public:
  static constexpr std::int64_t kNoParent = -1;

  struct Span {
    std::string name;
    std::uint64_t start_ns = 0;  ///< since the tracer was created
    std::uint64_t end_ns = 0;
    std::int64_t parent = kNoParent;
    std::uint64_t request = 0;  ///< spans of one request share this id
  };
  struct Aggregate {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
  };

  Tracer() : origin_(Clock::now()) {}

  /// Opens a span starting now; returns its id.
  std::int64_t Begin(const std::string& name, std::int64_t parent = kNoParent,
                     std::uint64_t request = 0);
  void End(std::int64_t id);
  /// Records a finished span whose bounds were taken elsewhere.
  std::int64_t Add(const std::string& name, Clock::time_point start,
                   Clock::time_point end, std::int64_t parent = kNoParent,
                   std::uint64_t request = 0);
  /// Folds `count` calls totalling `total_ns` into the aggregate `name`.
  void Count(const std::string& name, std::uint64_t count,
             std::uint64_t total_ns);

  /// Durations, in seconds, of every span named `name`.
  std::vector<double> Durations(const std::string& name) const;

  /// Writes spans and aggregates as JSON, with `provenance_json` (an
  /// object) under "provenance". Returns false on I/O failure.
  bool Write(const std::string& path,
             const std::string& provenance_json) const;

 private:
  std::uint64_t Ns(Clock::time_point t) const;

  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::map<std::string, Aggregate> aggregates_;
};

/// RAII span; a null tracer makes it free (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name,
             std::int64_t parent = Tracer::kNoParent,
             std::uint64_t request = 0)
      : tracer_(tracer),
        id_(tracer ? tracer->Begin(name, parent, request)
                   : Tracer::kNoParent) {}
  ~ScopedSpan() {
    if (tracer_) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  std::int64_t id_;
};

}  // namespace vixnoc::perfbench
