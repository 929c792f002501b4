// Single-resource arbiters used as building blocks of the switch allocators.
//
// An arbiter owns a grant policy over N requesters. Each cycle the caller
// presents a request vector and receives the index of the winner (or -1 when
// nothing requested). State (rotating priority / LRG matrix) only advances
// when the caller commits the grant via `Commit`, mirroring hardware where a
// speculative grant that is later killed must not rotate the priority.
//
// Request vectors are bitmasks (`BitSpan`, one uint64_t per 64 requesters,
// or a by-value `WordSpan` when there are at most 64):
// the priority search is a masked rotate + ctz rather than an element scan,
// but the winner for any given (state, requests) pair is identical to the
// original element-at-a-time implementations (tests/reference_alloc.hpp
// keeps those and tests/alloc_equiv_test.cpp checks the equivalence).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "alloc/request_matrix.hpp"
#include "common/check.hpp"

namespace vixnoc {

class StateArchive;

class Arbiter {
 public:
  explicit Arbiter(int num_requesters) : n_(num_requesters) {
    VIXNOC_CHECK(num_requesters > 0);
  }
  virtual ~Arbiter() = default;

  Arbiter(const Arbiter&) = delete;
  Arbiter& operator=(const Arbiter&) = delete;

  int NumRequesters() const { return n_; }

  /// Pick a winner among `requests` (size == NumRequesters()). Returns the
  /// winning index, or -1 if no bit is set. Does NOT update internal state.
  virtual int Pick(BitSpan requests) const = 0;

  /// Advance the priority state after `winner` was actually granted.
  virtual void Commit(int winner) = 0;

  /// Reset priority state to the post-construction value.
  virtual void Reset() = 0;

  /// Checkpoint/restore of the priority state (snapshot/state_archive.hpp).
  /// Restoring makes subsequent Pick/Commit sequences bitwise identical to
  /// an arbiter that never stopped.
  virtual void Visit(StateArchive& ar) = 0;

 protected:
  // Movable so allocators can hold their concrete arbiters by value.
  Arbiter(Arbiter&&) = default;
  Arbiter& operator=(Arbiter&&) = default;

  int n_;
};

/// Rotating-priority (round-robin) arbiter: the highest priority is the
/// requester just after the previous committed winner. This is the canonical
/// arbiter of separable NoC allocators (Becker & Dally, SC'09).
class RoundRobinArbiter final : public Arbiter {
 public:
  explicit RoundRobinArbiter(int num_requesters) : Arbiter(num_requesters) {}

  int Pick(BitSpan requests) const override {
    VIXNOC_DCHECK(requests.size() == n_);
    return requests.FirstFrom(next_priority_);
  }
  /// One-word requests (n <= 64): a masked rotate.
  int Pick(WordSpan requests) const {
    VIXNOC_DCHECK(requests.size() == n_);
    return requests.FirstFrom(next_priority_);
  }
  void Commit(int winner) override {
    VIXNOC_DCHECK(winner >= 0 && winner < n_);
    next_priority_ = bits::NextWrapped(winner, n_);
  }
  void Reset() override { next_priority_ = 0; }
  void Visit(StateArchive& ar) override;

 private:
  int next_priority_ = 0;
};

/// Matrix arbiter implementing least-recently-granted (LRG) priority, as used
/// by the self-updating switch fabrics the paper cites [20]. Logical state is
/// a strict priority matrix pri_[i][j] ("i beats j"); it is stored by COLUMN
/// — beaters_of_[i] is the bitmask of requesters that beat i — so the Pick
/// test "is requester i beaten by any other requester" is one AND over the
/// request words. Snapshots keep the original row-major VecBool layout.
class MatrixArbiter final : public Arbiter {
 public:
  explicit MatrixArbiter(int num_requesters);

  int Pick(BitSpan requests) const override;
  /// One-word requests: the same search over a one-word span.
  int Pick(WordSpan requests) const {
    const std::uint64_t w = requests.word();
    return Pick(BitSpan(&w, requests.size()));
  }
  void Commit(int winner) override;
  void Reset() override;
  void Visit(StateArchive& ar) override;

 private:
  int words_ = 0;  // words per column mask
  // beaters_of_[i * words_ + w]: word w of the "requesters beating i" mask.
  std::vector<std::uint64_t> beaters_of_;
};

enum class ArbiterKind { kRoundRobin, kMatrix };

std::unique_ptr<Arbiter> MakeArbiter(ArbiterKind kind, int num_requesters);

}  // namespace vixnoc
