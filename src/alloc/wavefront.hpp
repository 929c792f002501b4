// Wavefront allocator (Tamir & Chi [21]; paper §4.1).
//
// Operates on the P x P port-level request matrix. A rotating priority
// diagonal sweeps the matrix; all cells on one diagonal touch distinct rows
// and columns, so conflict-free grants on a diagonal are made in parallel.
// Later diagonals only grant cells whose row and column are still free, so
// the result is a maximal (not necessarily maximum) matching. Matching
// quality is better than separable IF because *all* port-level requests are
// visible, not only the per-port phase-1 winners — at the cost of a 39%
// longer critical path (paper Table 3).
//
// The request matrix is held as bitmask rows (one word of output bits per
// input) and the per-cell VC sets as bitmask rows of a (in x out) x vcs
// matrix, so the diagonal sweep only visits inputs that still have requests
// and the VC pick is a masked rotate instead of a list scan. The sweep
// stops early once no free input has a request left: later diagonals could
// grant nothing.
//
// VC selection within a granted (input, output) pair uses a per-pair
// round-robin pointer, matching the reference implementation's behaviour of
// rotating among the VCs that request the same output.
#pragma once

#include <memory>

#include "alloc/switch_allocator.hpp"

namespace vixnoc {

/// The wavefront allocator's priority state; its Allocate kernel (one
/// template over the row storage) lives in wavefront.cpp.
class WavefrontAllocator : public SwitchAllocator {
 public:
  void Reset() override;
  /// An empty Allocate only rotates the priority diagonal.
  void AdvanceIdle(std::uint64_t n) override;
  void Visit(StateArchive& ar) override;
  std::string Name() const override { return "wavefront"; }

 protected:
  explicit WavefrontAllocator(const SwitchGeometry& g);

  int n_;                    // square matrix dimension
  int priority_diagonal_ = 0;
  // Per (in, out) round-robin pointer over VCs.
  std::vector<int> vc_rr_;
};

std::unique_ptr<SwitchAllocator> MakeWavefrontAllocator(
    const SwitchGeometry& g);

}  // namespace vixnoc
