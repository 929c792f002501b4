// Packet Chaining allocator, SameInput/anyVC scheme (Michelogiannakis et
// al., MICRO-44 [15]; paper §4.4).
//
// The allocator remembers last cycle's granted (input port -> output port)
// connections. At the start of a cycle, every remembered connection whose
// input port still has *any* VC requesting the same output port is renewed
// without arbitration ("chained"). Chained input and output ports are then
// masked out of a conventional separable input-first pass that allocates the
// remaining ports. Newly formed grants seed next cycle's chains.
//
// By eliminating requests from the matrix, chaining reduces the chance that
// independent input arbiters collide on one output — the "elimination"
// strategy the paper contrasts with VIX's "exposure" strategy.
#pragma once

#include "alloc/separable.hpp"
#include "alloc/switch_allocator.hpp"

namespace vixnoc {

class PacketChainingAllocator final : public SwitchAllocator {
 public:
  PacketChainingAllocator(const SwitchGeometry& g, ArbiterKind kind);

  void Reset() override;
  void Visit(StateArchive& ar) override;
  std::string Name() const override { return "packet-chaining"; }

  /// Grants made by renewing a previous-cycle connection (diagnostics).
  std::uint64_t chained_grants() const { return chained_grants_; }

 protected:
  void Kernel(const SwitchRequestView& requests,
              std::vector<SaGrant>* grants) override;

 private:
  // chain_[out] = input port chained to this output last cycle, or -1.
  std::vector<int> chain_;
  // Per (in,out) round-robin over VCs continuing a chain.
  std::vector<int> chain_vc_rr_;
  std::unique_ptr<SwitchAllocator> separable_;  // residual IF pass
  std::vector<std::uint64_t> residual_ready_;    // the residual requests
  std::vector<SaGrant> residual_grants_;
  std::uint64_t chained_grants_ = 0;
};

}  // namespace vixnoc
