#include "arbiter/arbiter.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "snapshot/state_archive.hpp"

namespace vixnoc {

void RoundRobinArbiter::Visit(StateArchive& ar) {
  ar.I32(next_priority_, 0, n_, "round-robin pointer");
}

MatrixArbiter::MatrixArbiter(int num_requesters)
    : Arbiter(num_requesters),
      words_(bits::WordCount(num_requesters)),
      beaters_of_(static_cast<std::size_t>(num_requesters) * words_) {
  Reset();
}

void MatrixArbiter::Reset() {
  // Initial total order: lower index beats higher index, so requester i is
  // beaten exactly by requesters 0..i-1.
  for (int i = 0; i < n_; ++i) {
    std::uint64_t* col = beaters_of_.data() +
                         static_cast<std::size_t>(i) * words_;
    for (int w = 0; w < words_; ++w) {
      const int lo = w * bits::kWordBits;
      if (i <= lo) {
        col[w] = 0;
      } else if (i >= lo + bits::kWordBits) {
        col[w] = ~std::uint64_t{0};
      } else {
        col[w] = (std::uint64_t{1} << (i - lo)) - 1;
      }
    }
  }
}

int MatrixArbiter::Pick(BitSpan requests) const {
  VIXNOC_DCHECK(requests.size() == n_);
  // Winner: the lowest-index requester not beaten by any other requester.
  const std::uint64_t* req = requests.words();
  int winner = -1;
  requests.ForEach([&](int i) {
    if (winner >= 0) return;
    const std::uint64_t* col = beaters_of_.data() +
                               static_cast<std::size_t>(i) * words_;
    for (int w = 0; w < words_; ++w) {
      if (req[w] & col[w]) return;
    }
    winner = i;
  });
  return winner;
}

void MatrixArbiter::Commit(int winner) {
  VIXNOC_DCHECK(winner >= 0 && winner < n_);
  // The winner becomes lowest priority: it no longer beats anyone (clear its
  // bit in every other column) and everyone beats it (its own column becomes
  // all-ones minus itself).
  const int ww = winner / bits::kWordBits;
  const std::uint64_t wbit = std::uint64_t{1} << (winner % bits::kWordBits);
  for (int i = 0; i < n_; ++i) {
    beaters_of_[static_cast<std::size_t>(i) * words_ + ww] &= ~wbit;
  }
  std::uint64_t* col = beaters_of_.data() +
                       static_cast<std::size_t>(winner) * words_;
  for (int w = 0; w < words_; ++w) col[w] = ~std::uint64_t{0};
  col[words_ - 1] = bits::TailMask(n_);
  col[ww] &= ~wbit;
}

void MatrixArbiter::Visit(StateArchive& ar) {
  // Stored in the pre-bitmask layout: the full row-major pri_[i][j]
  // matrix as VecBool. pri_[i][j] ("i beats j") == bit i of column j.
  const std::size_t n = static_cast<std::size_t>(n_);
  std::vector<bool> pri(n * n);
  for (std::size_t j = 0; j < n; ++j) {
    const std::uint64_t* col = beaters_of_.data() + j * words_;
    for (std::size_t i = 0; i < n; ++i) {
      pri[i * n + j] = (col[i / bits::kWordBits] >> (i % bits::kWordBits)) & 1;
    }
  }
  ar.VecBool(pri, "matrix arbiter state");
  if (!ar.loading()) return;
  std::fill(beaters_of_.begin(), beaters_of_.end(), 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (pri[i * n + j]) {
        beaters_of_[j * words_ + i / bits::kWordBits] |=
            std::uint64_t{1} << (i % bits::kWordBits);
      }
    }
  }
}

std::unique_ptr<Arbiter> MakeArbiter(ArbiterKind kind, int num_requesters) {
  switch (kind) {
    case ArbiterKind::kRoundRobin:
      return std::make_unique<RoundRobinArbiter>(num_requesters);
    case ArbiterKind::kMatrix:
      return std::make_unique<MatrixArbiter>(num_requesters);
  }
  // Setup-path error policy (common/error.hpp): an out-of-range kind (e.g.
  // a bad cast from parsed input) is a recoverable configuration error, not
  // corrupted in-memory state — throw SimError so sweep drivers can mark
  // the point failed instead of aborting the whole process.
  VIXNOC_REQUIRE(false, "unknown arbiter kind %d", static_cast<int>(kind));
  return nullptr;
}

}  // namespace vixnoc
