// Scalar reference implementations of the arbiters and switch allocators,
// retained verbatim from the pre-bitmask code so the word-parallel kernels
// in src/alloc/ and src/arbiter/ can be checked grant-for-grant against the
// original nested-loop logic on randomized request matrices.
//
// These are TEST-ONLY. They carry the full priority state (rotating
// pointers, LRG matrices, per-cell VC pointers) so an equivalence test can
// drive both implementations through long randomized request sequences and
// require identical grants at every cycle, not just on the first one.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "alloc/switch_allocator.hpp"
#include "common/rng.hpp"

namespace vixnoc::ref {

// ---------------------------------------------------------------------------
// Scalar arbiters (pre-rewrite RoundRobinArbiter / MatrixArbiter).

class RefArbiter {
 public:
  explicit RefArbiter(int n) : n_(n) {}
  virtual ~RefArbiter() = default;
  virtual int Pick(const std::vector<bool>& requests) const = 0;
  virtual void Commit(int winner) = 0;
  virtual void Reset() = 0;

 protected:
  int n_;
};

class RefRoundRobin final : public RefArbiter {
 public:
  explicit RefRoundRobin(int n) : RefArbiter(n) {}
  int Pick(const std::vector<bool>& requests) const override {
    for (int off = 0; off < n_; ++off) {
      const int i = (next_priority_ + off) % n_;
      if (requests[i]) return i;
    }
    return -1;
  }
  void Commit(int winner) override { next_priority_ = (winner + 1) % n_; }
  void Reset() override { next_priority_ = 0; }

 private:
  int next_priority_ = 0;
};

class RefMatrix final : public RefArbiter {
 public:
  explicit RefMatrix(int n)
      : RefArbiter(n), pri_(static_cast<std::size_t>(n) * n) {
    Reset();
  }
  int Pick(const std::vector<bool>& requests) const override {
    for (int i = 0; i < n_; ++i) {
      if (!requests[i]) continue;
      bool beaten = false;
      for (int j = 0; j < n_; ++j) {
        if (j == i || !requests[j]) continue;
        if (pri_[static_cast<std::size_t>(j) * n_ + i]) {
          beaten = true;
          break;
        }
      }
      if (!beaten) return i;
    }
    return -1;
  }
  void Commit(int winner) override {
    for (int j = 0; j < n_; ++j) {
      if (j == winner) continue;
      pri_[static_cast<std::size_t>(winner) * n_ + j] = false;
      pri_[static_cast<std::size_t>(j) * n_ + winner] = true;
    }
  }
  void Reset() override {
    for (int i = 0; i < n_; ++i) {
      for (int j = 0; j < n_; ++j) {
        pri_[static_cast<std::size_t>(i) * n_ + j] = i < j;
      }
    }
  }

 private:
  std::vector<bool> pri_;
};

std::unique_ptr<RefArbiter> MakeRefArbiter(ArbiterKind kind, int n);

// ---------------------------------------------------------------------------
// Scalar allocators. Same Allocate semantics and internal priority state as
// the pre-rewrite implementations; no snapshot/telemetry support.

class RefAllocator {
 public:
  explicit RefAllocator(const SwitchGeometry& g) : geom_(g) {}
  virtual ~RefAllocator() = default;
  virtual void Allocate(const std::vector<SaRequest>& requests,
                        std::vector<SaGrant>* grants) = 0;

 protected:
  SwitchGeometry geom_;
};

class RefSeparableInputFirst final : public RefAllocator {
 public:
  RefSeparableInputFirst(const SwitchGeometry& g, ArbiterKind kind,
                         bool update_on_grant_only = true);
  void Allocate(const std::vector<SaRequest>& requests,
                std::vector<SaGrant>* grants) override;

 private:
  bool update_on_grant_only_;
  std::vector<std::unique_ptr<RefArbiter>> input_arbiters_;
  std::vector<std::unique_ptr<RefArbiter>> output_arbiters_;
  std::vector<bool> vc_request_scratch_;
  std::vector<int> phase1_vc_;
  std::vector<PortId> phase1_out_;
  std::vector<bool> out_request_scratch_;
  std::vector<PortId> out_port_of_;
};

class RefWavefront final : public RefAllocator {
 public:
  explicit RefWavefront(const SwitchGeometry& g);
  void Allocate(const std::vector<SaRequest>& requests,
                std::vector<SaGrant>* grants) override;

 private:
  int n_;
  int priority_diagonal_ = 0;
  std::vector<int> vc_rr_;
  std::vector<std::vector<VcId>> cell_vcs_;
  std::vector<bool> row_free_;
  std::vector<bool> col_free_;
};

class RefIslip final : public RefAllocator {
 public:
  RefIslip(const SwitchGeometry& g, int iterations = 2);
  void Allocate(const std::vector<SaRequest>& requests,
                std::vector<SaGrant>* grants) override;

 private:
  int iterations_;
  std::vector<int> grant_ptr_;
  std::vector<int> accept_ptr_;
  std::vector<int> vc_rr_;
  std::vector<std::vector<VcId>> cell_vcs_;
  std::vector<int> match_in_;
  std::vector<int> match_out_;
  std::vector<int> granted_to_;
};

class RefAugmentingPath final : public RefAllocator {
 public:
  explicit RefAugmentingPath(const SwitchGeometry& g, bool rotate_vcs = true);
  void Allocate(const std::vector<SaRequest>& requests,
                std::vector<SaGrant>* grants) override;

 private:
  bool TryAugment(int in, std::vector<bool>* visited);

  bool rotate_vcs_;
  std::vector<bool> request_;
  std::vector<int> match_of_out_;
  std::vector<int> match_of_in_;
  std::vector<int> vc_rr_;
  std::vector<std::vector<VcId>> cell_vcs_;
  std::vector<bool> visited_;
};

class RefSparoflo final : public RefAllocator {
 public:
  RefSparoflo(const SwitchGeometry& g, ArbiterKind kind, int max_exposed = 2);
  void Allocate(const std::vector<SaRequest>& requests,
                std::vector<SaGrant>* grants) override;

 private:
  struct Tentative {
    PortId in_port;
    VcId vc;
    PortId out_port;
  };

  int max_exposed_;
  std::vector<std::unique_ptr<RefArbiter>> input_arbiters_;
  std::vector<std::unique_ptr<RefArbiter>> output_arbiters_;
  std::vector<std::unique_ptr<RefArbiter>> conflict_arbiters_;
};

// Scalar SERENADE mirror. Unlike the other references this one is not a
// pre-rewrite retention — SERENADE was born word-parallel — but it plays
// the same role: nested-loop logic with plain vectors, consuming the
// identical RNG draw sequence (one bounded draw per requesting input, in
// ascending input order), so the bitmask kernel's proposal selection, knot
// decomposition, and VC rotation are pinned grant-for-grant.
class RefSerenade final : public RefAllocator {
 public:
  RefSerenade(const SwitchGeometry& g, std::uint64_t seed);
  void Allocate(const std::vector<SaRequest>& requests,
                std::vector<SaGrant>* grants) override;

 private:
  int EdgeWeight(int in, int out) const;

  Rng rng_;
  std::vector<int> prev_match_;
  std::vector<int> vc_rr_;
  std::vector<std::vector<bool>> request_row_;
  std::vector<std::vector<bool>> cell_vc_;
  std::vector<int> prop_in_;
  std::vector<int> prop_out_;
  std::vector<int> prop_w_;
  std::vector<int> prev_out_;
  std::vector<int> match_in_;
  std::vector<bool> in_seen_;
  std::vector<bool> out_seen_;
};

// Packet chaining over request lists, as it ran before the allocators
// read the router's request words: chains renewed by scanning the list,
// and the residual input-first pass run on the scalar separable reference.
class RefPacketChaining final : public RefAllocator {
 public:
  RefPacketChaining(const SwitchGeometry& g, ArbiterKind kind);
  void Allocate(const std::vector<SaRequest>& requests,
                std::vector<SaGrant>* grants) override;

 private:
  std::vector<int> chain_;
  std::vector<int> chain_vc_rr_;
  RefSeparableInputFirst separable_;
  std::vector<SaRequest> residual_requests_;
  std::vector<SaGrant> residual_grants_;
};

/// Factory mirroring MakeSwitchAllocator for every scheme (separable
/// IF/VIX/VIX-ideal, wavefront, AP, packet chaining, iSLIP, SPAROFLO,
/// SERENADE). `seed` only matters for the randomized schemes and must
/// match the seed handed to MakeSwitchAllocator.
std::unique_ptr<RefAllocator> MakeRefAllocator(AllocScheme scheme,
                                               const SwitchGeometry& g,
                                               ArbiterKind kind,
                                               std::uint64_t seed = 0);

}  // namespace vixnoc::ref
