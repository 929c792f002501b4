// SPAROFLO-style allocator (Kumar et al., ICCD'07; paper §5 related work).
//
// Like VIX, SPAROFLO exposes more than one request per input port to the
// output arbiters. Unlike VIX there are no extra crossbar inputs, so when
// two of a port's exposed requests both win their output arbiters, only
// one can actually traverse — the other grant is killed *after* output
// arbitration, leaving that output idle for the cycle. The paper argues
// this post-arbitration conflict is what limits SPAROFLO relative to VIX;
// this implementation exists to make that comparison measurable.
//
// Exposure policy: each input port exposes up to `max_exposed` requests to
// distinct output ports (the published design varies this with load; a
// fixed budget of 2 matches the regime where SPAROFLO is most effective
// and mirrors VIX's two virtual inputs). Older-request prioritization is
// approximated by the rotating input arbiter.
#pragma once

#include "alloc/request_matrix.hpp"
#include "alloc/switch_allocator.hpp"

namespace vixnoc {

class SparofloAllocator final : public SwitchAllocator {
 public:
  SparofloAllocator(const SwitchGeometry& g, ArbiterKind kind,
                    int max_exposed = 2);

  void Reset() override;
  void Visit(StateArchive& ar) override;
  std::string Name() const override { return "sparoflo"; }

  /// Output grants killed by the one-crossbar-input-per-port constraint on
  /// the last Allocate call (the mechanism VIX removes).
  int last_killed_grants() const { return last_killed_grants_; }

 protected:
  void Kernel(const SwitchRequestView& requests,
              std::vector<SaGrant>* grants) override;

 private:
  struct Tentative {
    PortId in_port;
    VcId vc;
    PortId out_port;
  };

  int max_exposed_;
  std::vector<std::unique_ptr<Arbiter>> input_arbiters_;   // per port
  std::vector<std::unique_ptr<Arbiter>> output_arbiters_;  // per out port
  std::vector<std::unique_ptr<Arbiter>> conflict_arbiters_;  // per in port
  int last_killed_grants_ = 0;

  // Per-cycle scratch, sized once at construction.
  RequestMatrix port_req_;   // row port: requesting VC bits
  RequestMatrix out_req_;    // row out: exposed (port * vcs + vc) bits
  BitWords candidate_;       // per-VC exposure candidates
  std::vector<Tentative> tentative_;  // phase-2 winners
  std::vector<std::vector<Tentative>> by_port_;  // phase-3 grouping
  BitWords outs_;            // conflict-arbiter request vector
};

}  // namespace vixnoc
