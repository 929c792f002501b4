#include "tracer.hpp"

#include <cstdio>

#include "bench_util.hpp"

namespace vixnoc::perfbench {

std::uint64_t Tracer::Ns(Clock::time_point t) const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
          .count());
}

std::int64_t Tracer::Begin(const std::string& name, std::int64_t parent,
                           std::uint64_t request) {
  const std::uint64_t now = Ns(Clock::now());
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, now, now, parent, request});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void Tracer::End(std::int64_t id) {
  const std::uint64_t now = Ns(Clock::now());
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = now;
}

std::int64_t Tracer::Add(const std::string& name, Clock::time_point start,
                         Clock::time_point end, std::int64_t parent,
                         std::uint64_t request) {
  const Span span{name, Ns(start), Ns(end), parent, request};
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void Tracer::Count(const std::string& name, std::uint64_t count,
                   std::uint64_t total_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  Aggregate& a = aggregates_[name];
  a.count += count;
  a.total_ns += total_ns;
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
  }
  return out;
}

bool Tracer::Write(const std::string& path,
                   const std::string& provenance_json) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(f, "{\"provenance\": %s,\n\"aggregates\": {",
               provenance_json.c_str());
  bool first = true;
  for (const auto& [name, a] : aggregates_) {
    std::fprintf(f, "%s\"%s\": {\"count\": %llu, \"total_ns\": %llu}",
                 first ? "" : ", ", bench::EscapeJson(name).c_str(),
                 static_cast<unsigned long long>(a.count),
                 static_cast<unsigned long long>(a.total_ns));
    first = false;
  }
  std::fprintf(f, "},\n\"spans\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %llu, "
                 "\"end_ns\": %llu, \"parent\": %lld, \"request\": %llu}",
                 i ? ",\n" : "", i, bench::EscapeJson(s.name).c_str(),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace vixnoc::perfbench
