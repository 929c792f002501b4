// Maximum-matching switch allocator via augmenting paths (paper's "AP"
// scheme; Ford & Fulkerson [8]).
//
// The port-level request matrix defines a bipartite graph between input and
// output ports. Kuhn's algorithm seeds a greedy matching in fixed input-port
// order and then augments it with DFS paths until no augmenting path exists,
// which yields a matching of maximum cardinality — the paper's definition of
// optimal *matching* (but not optimal *allocation*: the one-crossbar-input-
// per-port constraint still applies).
//
// Determinism is intentional and faithful: the paper attributes AP's poor
// network-level behaviour (Fig 8, Fig 9) to its locally-greedy decisions
// causing severe unfairness; a fixed exploration order is exactly what a
// combinational maximum-matching circuit would commit to every cycle.
// VC selection within a matched pair uses per-pair round-robin so VCs of a
// port cannot starve each other.
#pragma once

#include <memory>

#include "alloc/switch_allocator.hpp"

namespace vixnoc {

/// The AP allocator's state and knobs; its Allocate kernel (one template
/// over the row storage) lives in augmenting_path.cpp.
class AugmentingPathAllocator : public SwitchAllocator {
 public:
  void Reset() override;
  void SaveState(SnapshotWriter& w) const override;
  void LoadState(SnapshotReader& r) override;
  std::string Name() const override { return "augmenting-path"; }

  /// Number of augmenting-path iterations executed on the last Allocate
  /// call; exposed for the timing model (AP delay grows with iterations).
  int last_iterations() const { return last_iterations_; }

  /// Upper bound on DFS probes per Allocate call. Kuhn's algorithm is
  /// worst-case P augmentations x P^2 probes each, so the default
  /// (P^3 + P^2) can never trip on a correct run; lowering it turns a
  /// pathological large-radix blow-up into a recoverable SimError instead
  /// of an apparent hang wedging a sweep point. Must be positive.
  void set_work_limit(std::int64_t limit);
  std::int64_t work_limit() const { return work_limit_; }

 protected:
  AugmentingPathAllocator(const SwitchGeometry& g, bool rotate_vcs);

  bool rotate_vcs_;
  std::int64_t work_limit_ = 0;

  std::vector<int> match_of_out_;  // output -> matched input (-1 free)
  std::vector<int> match_of_in_;   // input -> matched output (-1 free)
  std::vector<int> vc_rr_;         // per (in,out) vc round-robin pointer
  int last_iterations_ = 0;
};

/// `rotate_vcs`: when true, VC selection within a matched (input, output)
/// pair round-robins so VCs of a port cannot starve each other; when false
/// the allocator is fully combinational-deterministic (lowest VC wins),
/// matching a hardware maximum-matching circuit with no fairness state at
/// all.
std::unique_ptr<SwitchAllocator> MakeAugmentingPathAllocator(
    const SwitchGeometry& g, bool rotate_vcs = true);

}  // namespace vixnoc
