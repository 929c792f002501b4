#include "traffic/trace.hpp"

#include <cinttypes>
#include <cstring>
#include <sstream>

#include "common/check.hpp"
#include "common/error.hpp"

namespace vixnoc {

void PacketTrace::Add(const TraceRecord& record) {
  VIXNOC_REQUIRE(record.size_flits >= 1,
                 "trace record needs size_flits >= 1, got %d",
                 record.size_flits);
  VIXNOC_REQUIRE(
      records_.empty() || records_.back().cycle <= record.cycle,
      "trace records must be in non-decreasing cycle order (%lld after %lld)",
      static_cast<long long>(record.cycle),
      static_cast<long long>(records_.back().cycle));
  records_.push_back(record);
}

Cycle PacketTrace::LastCycle() const {
  return records_.empty() ? 0 : records_.back().cycle;
}

std::string PacketTrace::ToText() const {
  std::ostringstream out;
  out << "# vixnoc packet trace v1: cycle src dst size_flits\n";
  for (const TraceRecord& r : records_) {
    out << r.cycle << ' ' << r.src << ' ' << r.dst << ' ' << r.size_flits
        << '\n';
  }
  return out.str();
}

PacketTrace PacketTrace::FromText(const std::string& text, int num_nodes) {
  PacketTrace trace;
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    TraceRecord r;
    long long cycle, src, dst, size;
    const int fields =
        std::sscanf(line.c_str(), "%lld %lld %lld %lld", &cycle, &src, &dst,
                    &size);
    VIXNOC_REQUIRE(fields == 4,
                   "malformed trace line (want \"cycle src dst size\"): %s",
                   line.c_str());
    VIXNOC_REQUIRE(cycle >= 0 && src >= 0 && dst >= 0 && size >= 1,
                   "trace line has out-of-range fields: %s", line.c_str());
    if (num_nodes > 0) {
      VIXNOC_REQUIRE(src < num_nodes && dst < num_nodes,
                     "trace line names node >= num_nodes (%d): %s",
                     num_nodes, line.c_str());
    }
    r.cycle = static_cast<Cycle>(cycle);
    r.src = static_cast<NodeId>(src);
    r.dst = static_cast<NodeId>(dst);
    r.size_flits = static_cast<int>(size);
    trace.Add(r);  // Add() enforces cycle ordering
  }
  return trace;
}

void PacketTrace::Save(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  VIXNOC_REQUIRE(f != nullptr, "cannot open trace file for writing: %s",
                 path.c_str());
  const std::string text = ToText();
  const std::size_t written = std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  VIXNOC_CHECK(written == text.size());
}

PacketTrace PacketTrace::Load(const std::string& path, int num_nodes) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  VIXNOC_REQUIRE(f != nullptr, "cannot open trace file for reading: %s",
                 path.c_str());
  std::string text;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
    text.append(buf, n);
  }
  std::fclose(f);
  return FromText(text, num_nodes);
}

std::span<const TraceRecord> TraceReplayer::TakeDue(Cycle cycle) {
  const auto& records = trace_.records();
  const std::size_t first = next_;
  while (next_ < records.size() && records[next_].cycle <= cycle) {
    VIXNOC_DCHECK(records[next_].cycle == cycle);
    ++next_;
  }
  return {records.data() + first, next_ - first};
}

}  // namespace vixnoc
