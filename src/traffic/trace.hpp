// Packet-trace recording and replay.
//
// The paper's application results come from a trace-driven simulator; this
// module provides the equivalent plumbing for the network: capture the
// packet stream of any simulation to a portable text format, and replay a
// trace as an injection schedule (e.g. to compare allocators on *exactly*
// the same offered traffic, or to feed externally produced traces in).
//
// Format: one record per line, `cycle src dst size_flits`, sorted by
// cycle; lines starting with '#' are comments.
#pragma once

#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"

namespace vixnoc {

struct TraceRecord {
  Cycle cycle = 0;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  int size_flits = 1;

  friend bool operator==(const TraceRecord&, const TraceRecord&) = default;
};

class PacketTrace {
 public:
  void Add(const TraceRecord& record);
  /// Records must be appended in non-decreasing cycle order; Add checks.
  const std::vector<TraceRecord>& records() const { return records_; }
  std::size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }
  Cycle LastCycle() const;

  /// Serialize to / parse from the text format. Load replaces contents and
  /// validates ordering and field ranges against `num_nodes` (pass 0 to
  /// skip the node-range check).
  void Save(const std::string& path) const;
  static PacketTrace Load(const std::string& path, int num_nodes = 0);

  /// In-memory (de)serialization used by tests and by Save/Load.
  std::string ToText() const;
  static PacketTrace FromText(const std::string& text, int num_nodes = 0);

 private:
  std::vector<TraceRecord> records_;
};

/// Replays a trace's records in cycle order. The sim driver calls
/// `TakeDue(cycle)` once per cycle and enqueues the returned packets.
class TraceReplayer {
 public:
  explicit TraceReplayer(const PacketTrace& trace) : trace_(trace) {}

  /// Records with record.cycle == `cycle`, viewed in place. Must be called
  /// with strictly increasing cycles.
  std::span<const TraceRecord> TakeDue(Cycle cycle);

  bool Exhausted() const { return next_ == trace_.size(); }
  void Reset() { next_ = 0; }

  /// Replay cursor — records already consumed — for checkpoint/restore.
  std::size_t position() const { return next_; }
  void set_position(std::size_t pos) {
    VIXNOC_CHECK(pos <= trace_.size());
    next_ = pos;
  }

 private:
  const PacketTrace& trace_;
  std::size_t next_ = 0;
};

}  // namespace vixnoc
