// Iterative SLIP allocator (McKeown [14]) — extension beyond the paper's
// four headline schemes; the paper cites iSLIP as the canonical iterative
// improver of separable allocation, so we provide it for ablations.
//
// Each iteration runs request -> grant -> accept over the *unmatched* ports:
//   grant:  every free output picks one requesting free input (rotating ptr);
//   accept: every free input picks one granting output (rotating ptr).
// Pointers advance only when a grant is accepted in the FIRST iteration,
// which is the published starvation-freedom rule.
//
// The grant phase searches the word-AND of "inputs requesting this output"
// and "inputs still free" with a masked rotate, and the accept phase scans a
// per-input bitmask of granting outputs, so neither phase walks ports one
// element at a time.
#pragma once

#include "alloc/request_matrix.hpp"
#include "alloc/switch_allocator.hpp"

namespace vixnoc {

class IslipAllocator final : public SwitchAllocator {
 public:
  IslipAllocator(const SwitchGeometry& g, int iterations = 2);

  void Reset() override;
  void Visit(StateArchive& ar) override;
  std::string Name() const override {
    return "islip-" + std::to_string(iterations_);
  }

 protected:
  void Kernel(const SwitchRequestView& requests,
              std::vector<SaGrant>* grants) override;

 private:
  int iterations_;
  std::vector<int> grant_ptr_;   // per output
  std::vector<int> accept_ptr_;  // per input
  std::vector<int> vc_rr_;       // per (in,out)
  // Per-cycle scratch, dirty-row cleared.
  RequestMatrix out_req_;   // row out: requesting input bits
  RequestMatrix cell_vc_;   // row (in * num_outports + out): requesting VCs
  RequestMatrix grant_req_; // row in: outputs granting it this iteration
  BitWords free_in_;        // inputs not yet matched
  std::vector<int> match_in_;    // input -> matched output (-1 free)
  std::vector<int> match_out_;   // output -> matched input (-1 free)
};

}  // namespace vixnoc
