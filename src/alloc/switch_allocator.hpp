// Switch-allocator interface.
//
// Every cycle the router presents the *request matrix* in place, as a
// SwitchRequestView over words it already keeps: one ready bit per input VC
// whose head-of-line flit may request the switch (output VC held, buffer
// non-empty, downstream credit available, not masked this cycle), and the
// output port each input VC holds. Nothing is copied into a request list.
// The allocator returns a set of grants subject to the crossbar's
// structural constraints:
//
//   * at most one grant per output port, and
//   * at most one grant per crossbar input, where a crossbar input is a
//     (input port, virtual input) pair.
//
// The baseline crossbar has one virtual input per port; a 1:2 VIX crossbar
// has two; the "ideal VIX" crossbar has one per VC. VCs are statically
// partitioned across the k = num_vins virtual inputs, either in contiguous
// sub-groups (paper §2.1, Fig 2: vc's virtual input is vc / (num_vcs / k))
// or interleaved (SwitchGeometry::interleaved_vins: vc % k).
//
// Each scheme has one kernel, which reads the view: separable allocators
// take a crossbar input's row straight out of the ready words, the others
// walk the set bits into the rows they keep. A request list (SaRequest)
// is still accepted by a thin adapter that fills a view first, for
// benchmarks, tools and tests.
//
// MakeSwitchAllocator picks each kernel's row storage once, from the
// geometry: single-word rows when every row fits 64 bits (all switches of
// the paper), multi-word rows otherwise (alloc/request_matrix.hpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "alloc/request_matrix.hpp"
#include "arbiter/arbiter.hpp"
#include "common/check.hpp"
#include "common/types.hpp"

namespace vixnoc {

class StateArchive;

/// Static shape of one router's switch.
struct SwitchGeometry {
  int num_inports = 0;   ///< physical input ports (P)
  int num_outports = 0;  ///< physical output ports (P)
  int num_vcs = 0;       ///< virtual channels per input port (v)
  int num_vins = 1;      ///< virtual inputs (crossbar inputs) per port (k)
  /// VC -> virtual-input mapping: contiguous blocks (vc / (v/k), the
  /// paper's Fig 2 wiring) or interleaved (vc % k). Interleaving keeps
  /// every virtual input reachable from within any contiguous VC subset,
  /// which matters when VCs are also partitioned by message class or
  /// dateline state.
  bool interleaved_vins = false;

  int VcsPerVin() const { return num_vcs / num_vins; }
  VinId VinOfVc(VcId vc) const {
    return interleaved_vins ? vc % num_vins : vc / VcsPerVin();
  }
  /// Position of `vc` within its virtual input's sub-group.
  int SubIndexOfVc(VcId vc) const {
    return interleaved_vins ? vc / num_vins : vc % VcsPerVin();
  }
  /// Inverse of (VinOfVc, SubIndexOfVc).
  VcId VcOf(VinId vin, int sub) const {
    return interleaved_vins ? sub * num_vins + vin : vin * VcsPerVin() + sub;
  }
  int NumCrossbarInputs() const { return num_inports * num_vins; }

  bool Valid() const {
    return num_inports > 0 && num_outports > 0 && num_vcs > 0 &&
           num_vins > 0 && num_vins <= num_vcs &&
           num_vcs % num_vins == 0;
  }
};

/// SwitchGeometry's VC <-> (virtual input, sub-index) and crossbar input
/// <-> (port, virtual input) maps, tabulated once so the per-request path
/// of an allocator does no division.
class CrossbarMap {
 public:
  explicit CrossbarMap(const SwitchGeometry& g);

  VinId VinOfVc(VcId vc) const { return table_[vc]; }
  int SubIndexOfVc(VcId vc) const { return table_[num_vcs_ + vc]; }
  VcId VcOf(VinId vin, int sub) const {
    return table_[2 * num_vcs_ + vin * vcs_per_vin_ + sub];
  }
  PortId PortOfXin(int xin) const { return table_[3 * num_vcs_ + xin]; }
  VinId VinOfXin(int xin) const {
    return table_[3 * num_vcs_ + num_xins_ + xin];
  }

 private:
  int num_vcs_ = 0;
  int vcs_per_vin_ = 0;
  int num_xins_ = 0;
  // [vin of vc | sub of vc | vc of (vin, sub) | port of xin | vin of xin]
  std::vector<std::int32_t> table_;
};

/// One input VC's request for an output port. At most one request per
/// (in_port, vc) pair may be presented per cycle.
struct SaRequest {
  PortId in_port = kInvalidPort;
  VcId vc = kInvalidVc;
  PortId out_port = kInvalidPort;
};

/// One cycle's switch requests, read in place: input VC
/// idx = in_port * num_vcs + vc requests output `out_port[idx]` when bit
/// idx of `ready` is set. The ready words' bits past num_inports * num_vcs
/// are zero; `out_port` is read only under a set bit.
struct SwitchRequestView {
  const std::uint64_t* ready = nullptr;
  const PortId* out_port = nullptr;
  int num_inports = 0;
  int num_vcs = 0;

  int size() const { return num_inports * num_vcs; }
  int word_count() const { return bits::WordCount(size()); }
  int Count() const { return bits::CountSet(ready, word_count()); }
  bool Test(PortId in, VcId vc) const {
    return BitSpan(ready, size()).Test(in * num_vcs + vc);
  }
  /// f(in_port, vc, out_port) for every request, in ascending
  /// (in_port, vc) order. The port advances by compare, not division.
  template <typename F>
  void ForEach(F&& f) const {
    PortId p = 0;
    int port_base = 0;
    bits::ForEachSet(ready, word_count(), [&](int idx) {
      while (idx >= port_base + num_vcs) {
        ++p;
        port_base += num_vcs;
      }
      f(p, idx - port_base, out_port[idx]);
    });
  }
  /// f(vc, out_port) for every request of input port `in`, ascending.
  template <typename F>
  void ForEachOf(PortId in, F&& f) const {
    const int base = in * num_vcs;
    bits::ForEachSetInRange(ready, base, base + num_vcs, [&](int idx) {
      f(idx - base, out_port[idx]);
    });
  }
};

/// Owning storage behind a SwitchRequestView, filled from a request list
/// (a later request for the same input VC replaces an earlier one).
class SwitchRequestSet {
 public:
  explicit SwitchRequestSet(const SwitchGeometry& g);
  SwitchRequestSet(const SwitchGeometry& g,
                   const std::vector<SaRequest>& requests)
      : SwitchRequestSet(g) {
    Assign(requests);
  }

  void Assign(const std::vector<SaRequest>& requests);
  SwitchRequestView view() const {
    return SwitchRequestView{ready_.data(), out_port_.data(), num_inports_,
                             num_vcs_};
  }

 private:
  int num_inports_ = 0;
  int num_vcs_ = 0;
  std::vector<std::uint64_t> ready_;
  std::vector<PortId> out_port_;
};

/// Request masks a router applies to the ready bits before handing them
/// over; each clears requests in place and only touches set bits.
///
/// Clears every request whose output port is set in `blocked`.
void DropRequestsTo(BitView ready, const PortId* out_port, BitSpan blocked);
/// Becker & Dally's priority rule: clears every request in `speculative`
/// whose output port is also requested by a request outside it. `wants`
/// is scratch with one bit per output port.
void DropSpeculativeConflicts(BitView ready, const PortId* out_port,
                              BitSpan speculative, BitView wants);

/// A granted crossbar connection for this cycle.
struct SaGrant {
  PortId in_port = kInvalidPort;
  VinId vin = 0;
  VcId vc = kInvalidVc;
  PortId out_port = kInvalidPort;
};

/// Per-arbiter telemetry counters exposed by separable allocators (the
/// schemes built from Arbiter instances). Filled only while a telemetry
/// sink is attached via SwitchAllocator::set_telemetry; the hot path pays
/// one pointer test per Allocate otherwise.
struct AllocTelemetry {
  /// Per crossbar input (in_port * num_vins + vin): VCs presented to the
  /// input arbiter, and picks that were ultimately granted by an output
  /// arbiter. requests >> grants means head-of-line serialization at this
  /// virtual input.
  std::vector<std::uint64_t> input_requests;
  std::vector<std::uint64_t> input_grants;
  /// Per output port: phase-1 winners presented to the output arbiter, and
  /// grants it issued. The gap is output-side conflict loss.
  std::vector<std::uint64_t> output_requests;
  std::vector<std::uint64_t> output_grants;
  /// Cycles in which some output arbiter saw two or more competing
  /// crossbar inputs.
  std::uint64_t output_conflict_cycles = 0;

  void Resize(const SwitchGeometry& g) {
    input_requests.assign(g.NumCrossbarInputs(), 0);
    input_grants.assign(g.NumCrossbarInputs(), 0);
    output_requests.assign(g.num_outports, 0);
    output_grants.assign(g.num_outports, 0);
    output_conflict_cycles = 0;
  }
  void Clear() {
    std::fill(input_requests.begin(), input_requests.end(), 0);
    std::fill(input_grants.begin(), input_grants.end(), 0);
    std::fill(output_requests.begin(), output_requests.end(), 0);
    std::fill(output_grants.begin(), output_grants.end(), 0);
    output_conflict_cycles = 0;
  }
};

/// Abstract switch allocator. Implementations are stateful (rotating
/// priorities, chains); Reset() restores the post-construction state.
class SwitchAllocator {
 public:
  explicit SwitchAllocator(const SwitchGeometry& g)
      : geom_(g), idle_requests_(g), list_requests_(g) {
    VIXNOC_CHECK(g.Valid());
  }
  virtual ~SwitchAllocator() = default;

  SwitchAllocator(const SwitchAllocator&) = delete;
  SwitchAllocator& operator=(const SwitchAllocator&) = delete;

  const SwitchGeometry& geometry() const { return geom_; }

  /// Compute this cycle's grants. `grants` is cleared first.
  void Allocate(const SwitchRequestView& requests,
                std::vector<SaGrant>* grants) {
    VIXNOC_DCHECK(requests.num_inports == geom_.num_inports &&
                  requests.num_vcs == geom_.num_vcs);
    Kernel(requests, grants);
  }
  /// The same from a request list: fills a view, then runs the kernel.
  void Allocate(const std::vector<SaRequest>& requests,
                std::vector<SaGrant>* grants);

  virtual void Reset() = 0;

  /// Replays the state change of `n` consecutive Allocate calls with no
  /// requests, for routers that skip their idle cycles. For every scheme
  /// one empty call is idempotent after the first, so the default runs the
  /// kernel once on an all-zero request view (none when n == 0); schemes
  /// that rotate on every call override.
  virtual void AdvanceIdle(std::uint64_t n);

  virtual std::string Name() const = 0;

  /// Checkpoint/restore of the allocator's mutable priority state
  /// (rotating pointers, matrix arbiters, chains); geometry and scratch are
  /// construction-time and excluded. Restoring into an allocator built with
  /// the same configuration makes subsequent Allocate calls bitwise
  /// identical to one that never stopped.
  virtual void Visit(StateArchive& ar) = 0;

  /// Attach (or detach, with nullptr) a per-arbiter telemetry sink. Only
  /// the separable allocators fill it; matching-based schemes (WF, AP)
  /// have no per-arbiter structure and leave it untouched. The sink must
  /// be sized for this allocator's geometry and outlive the attachment.
  void set_telemetry(AllocTelemetry* sink) { telemetry_ = sink; }

 protected:
  /// The scheme's allocation kernel (see Allocate).
  virtual void Kernel(const SwitchRequestView& requests,
                      std::vector<SaGrant>* grants) = 0;

  SwitchGeometry geom_;
  AllocTelemetry* telemetry_ = nullptr;

 private:
  SwitchRequestSet idle_requests_;  ///< never assigned: no requests
  SwitchRequestSet list_requests_;  ///< the list adapter's view
};

/// Returns true iff `grants` is structurally legal for `geom` against
/// `requests`: every grant matches a presented request, no output port is
/// granted twice, and no (in_port, vin) crossbar input is granted twice.
/// Used by tests and by the router's debug checks; the list form fills a
/// view first.
bool GrantsAreLegal(const SwitchGeometry& geom,
                    const SwitchRequestView& requests,
                    const std::vector<SaGrant>& grants);
bool GrantsAreLegal(const SwitchGeometry& geom,
                    const std::vector<SaRequest>& requests,
                    const std::vector<SaGrant>& grants);

/// Instantiates `Kernel<OneWordRows>` when `one_word`, else
/// `Kernel<MultiWordRows>` (alloc/request_matrix.hpp): an allocator's row
/// width is fixed when it is built.
template <template <typename> class Kernel, typename... Args>
std::unique_ptr<SwitchAllocator> MakeWithRows(bool one_word, Args&&... args) {
  if (one_word) {
    return std::make_unique<Kernel<OneWordRows>>(std::forward<Args>(args)...);
  }
  return std::make_unique<Kernel<MultiWordRows>>(std::forward<Args>(args)...);
}

/// Factory covering every scheme in the paper's evaluation (§4.1) plus the
/// extension arms. The geometry's num_vins must agree with the scheme (1
/// for IF/WF/AP/PC/iSLIP/SERENADE, 2 for kVix, num_vcs for kVixIdeal).
/// `seed` feeds the per-instance RNG stream of randomized allocators
/// (currently only kSerenade); deterministic schemes ignore it.
std::unique_ptr<SwitchAllocator> MakeSwitchAllocator(
    AllocScheme scheme, const SwitchGeometry& geom,
    ArbiterKind arbiter_kind = ArbiterKind::kRoundRobin,
    std::uint64_t seed = 0);

/// Number of virtual inputs the scheme requires per physical port.
inline int VirtualInputsForScheme(AllocScheme scheme, int num_vcs) {
  switch (scheme) {
    case AllocScheme::kVix:
      return 2;
    case AllocScheme::kVixIdeal:
      return num_vcs;
    default:
      return 1;
  }
}

}  // namespace vixnoc
