// Input-first separable switch allocator (paper §2.2, Fig 3).
//
// Phase 1: one input arbiter per crossbar input (per (port, virtual input)
// pair) selects a winning VC among the sub-group's requesting VCs.
// Phase 2: one output arbiter per output port selects a winning crossbar
// input among those whose phase-1 winner requests it.
//
// With num_vins == 1 this is the paper's baseline IF allocator (P input
// arbiters of size v:1, P output arbiters of size P:1). With num_vins == 2
// it is the VIX allocator (2P input arbiters of size v/2:1, P output
// arbiters of size 2P:1). With num_vins == v it degenerates to pure output
// arbitration, the paper's "ideal" allocator.
//
// Requests are held in bitmask matrices (alloc/request_matrix.hpp): one
// row of VC-request bits per crossbar input for phase 1 and one row of
// crossbar-input bits per output port for phase 2, so both phases iterate
// only over populated rows and hand the arbiters word masks directly. The
// kernel is one template over the row storage and the arbiter type, both
// fixed at construction: one-word rows whenever the switch has at most 64
// crossbar inputs, ports and VCs per virtual input, and arbiters held by
// value and called through their final type.
#pragma once

#include <memory>

#include "alloc/switch_allocator.hpp"

namespace vixnoc {

/// `update_on_grant_only`: when true (default), an arbiter's rotating
/// priority advances only if its pick was ultimately granted, the
/// starvation-free pointer-update rule from iSLIP that NoC separable
/// allocators commonly adopt. When false, pointers advance on every pick.
std::unique_ptr<SwitchAllocator> MakeSeparableAllocator(
    const SwitchGeometry& g, ArbiterKind kind,
    bool update_on_grant_only = true);

}  // namespace vixnoc
