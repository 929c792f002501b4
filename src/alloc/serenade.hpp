// SERENADE-style randomized matching allocator (extension; PAPERS.md:
// "SERENADE: A Parallel Randomized Algorithm Suite for Crossbar Scheduling
// in Input-Queued Switches", the O-SERENADE variant).
//
// SERENA/SERENADE schedule a crossbar by *merging* the previous cycle's
// matching with a fresh randomized proposal matching: the union of two
// matchings decomposes into disjoint alternating paths and even cycles
// ("knots"), and within each knot the heavier sub-matching wins. SERENADE's
// contribution is computing that decomposition with O(log N) parallel
// knotting rounds instead of an O(N) serial walk; in hardware every
// input/output pair resolves its knot by halving/doubling pointer jumps.
// This model computes the identical result centrally (a linear walk over
// each knot) — the *outcome* is what the simulation needs, the O(log N)
// depth is what the delay model (`SerenadeDelayPs`) charges for it.
//
// Determinism contract: all randomness comes from the per-instance `Rng`
// seeded at construction. Each cycle draws exactly one bounded variate per
// input port that presents at least one request, in ascending input-port
// order, so the stream is a pure function of (seed, request history) —
// independent of thread count or process placement. The stream is new in
// this PR; no pre-existing configuration consumes it (same rule as the
// fault subsystem's kRandomFree stream: existing seeds keep their
// historical sequences).
//
// Edge weights are the number of distinct VCs requesting the (input,
// output) pair this cycle — a VOQ-occupancy proxy available to the switch
// allocator without new router plumbing. Carried-over edges whose request
// disappeared weigh zero, so stale pairings lose to any live proposal and
// decay out of the matching.
#pragma once

#include <cstdint>
#include <memory>

#include "alloc/switch_allocator.hpp"
#include "common/rng.hpp"

namespace vixnoc {

/// SERENADE's checkpointed state and per-cycle scratch; its Allocate
/// kernel (one template over the row storage) lives in serenade.cpp.
class SerenadeAllocator : public SwitchAllocator {
 public:
  void Reset() override;
  void Visit(StateArchive& ar) override;
  std::string Name() const override { return "serenade"; }

 protected:
  SerenadeAllocator(const SwitchGeometry& g, std::uint64_t seed);

  std::uint64_t seed_;
  Rng rng_;
  // Persistent across cycles (checkpointed).
  std::vector<int> prev_match_;  // input -> output carried over (-1 free)
  std::vector<int> vc_rr_;       // per (in,out): VC round-robin pointer
  // Per-cycle scratch. Between Allocate calls prop_in_, prop_out_ and
  // prev_out_ hold -1 and in_seen_ 0: each call undoes what it wrote.
  std::vector<int> prop_in_;    // proposal matching, input -> output
  std::vector<int> prop_out_;   // proposal matching, output -> input
  std::vector<int> prop_w_;     // per output: weight of accepted proposal
  std::vector<int> prev_out_;   // inverse of prev_match_
  std::vector<std::uint8_t> in_seen_;  // input already walked this cycle
  std::vector<int> walked_;     // inputs walked this cycle, knot by knot
};

std::unique_ptr<SwitchAllocator> MakeSerenadeAllocator(const SwitchGeometry& g,
                                                       std::uint64_t seed);

}  // namespace vixnoc
