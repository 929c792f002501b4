// Output-VC assignment policies (the VA stage's selection rule).
//
// Baseline (paper §2.3): "the output VC with maximum number of free
// flit-buffers is assigned".
//
// VIX adds sub-group steering: output VCs map to virtual inputs of the
// downstream crossbar, so the upstream router chooses which virtual input a
// packet will occupy. Steering by the packet's output-port *dimension at the
// downstream router* puts requests that will head to different outputs into
// different sub-groups, and load balancing keeps every virtual input fed.
//
// The candidate set may be a sub-range of the downstream port's VCs
// (message class or dateline restrictions). The pick reads the words its
// caller already keeps: a free-VC bit set and the credit counts, through a
// VcWindow. VinMasks tells the policy which VCs belong to each virtual
// input, for both the contiguous (vc / (v/k)) and interleaved (vc % k)
// crossbar wirings. A window of at most 64 VCs is handled in one word;
// wider windows are scanned a word at a time.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "routing/routing_algorithm.hpp"

namespace vixnoc {

enum class VcAssignPolicy {
  kMaxCredits,    ///< baseline: free VC with most credits
  kVixDimension,  ///< VIX: dimension-preferred sub-group, balance fallback
  kVixBalance,    ///< VIX ablation: pure load balancing across sub-groups
  kRandomFree,    ///< control arm: uniform over free VCs, ignoring sub-groups
};

/// The VCs of a port that feed each virtual input of the downstream
/// crossbar: one row of num_vcs bits per virtual input, built once per
/// layout.
class VinMasks {
 public:
  VinMasks() = default;
  VinMasks(int num_vins, int num_vcs, bool interleaved);

  int num_vins() const { return num_vins_; }
  /// Bits [first, first + len) of virtual input `vin`'s row, bit `first`
  /// in bit 0 (1 <= len <= 64).
  std::uint64_t Window(int vin, VcId first, int len) const;

 private:
  int num_vins_ = 1;
  int words_per_row_ = 0;
  std::vector<std::uint64_t> rows_;
};

/// The candidate VCs [first, first + span) of one port as the VA stage
/// sees them: VC `vc` is free (assignable) when bit `base + vc` of `free`
/// is set, and `credits[base + vc]` flit-buffers are free downstream.
struct VcWindow {
  const std::uint64_t* free = nullptr;
  const std::int32_t* credits = nullptr;
  int base = 0;
  VcId first = 0;
  int span = 0;

  /// True when some VC of the window is free.
  bool AnyFree() const;
};

class Rng;

/// Picks a candidate (an index into the window, 0 = VC `first`), or -1 if
/// none is free. `downstream_dim` is the dimension of the port the packet
/// will request at the downstream router (kLocal when the next hop ejects
/// or is unknown). `rng` is consulted only by kRandomFree, with one
/// NextBounded draw when two or more VCs are free (the others never draw
/// from it, so deterministic policies stay bitwise reproducible regardless
/// of what stream is passed); it must be non-null for that policy.
int PickOutputVc(VcAssignPolicy policy, const VcWindow& window,
                 const VinMasks& vins, PortDimension downstream_dim,
                 Rng* rng = nullptr);

}  // namespace vixnoc
