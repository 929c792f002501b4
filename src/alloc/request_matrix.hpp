// Word-parallel bit-set primitives for the allocation hot path.
//
// The switch allocators and arbiters operate on dense boolean vectors and
// matrices (request vectors, priority matrices, per-cell VC sets). Storing
// them one `uint64_t` word per 64 entries turns the inner scans — "first
// requester at or after the priority pointer", "any requester present",
// "how many competitors" — into ctz/popcount instructions over a handful of
// words instead of element-at-a-time loops.
//
// Three layers:
//
//   * `bits::` free functions over raw words (FirstSet, FirstSetFrom, ...).
//     All scans are ascending-index, so a masked scan visits exactly the
//     indices a scalar `for (i = 0; ...)` loop would visit, in the same
//     order — this is what keeps the bitmask kernels grant-for-grant
//     identical to the scalar reference implementations in tests/.
//   * `BitSpan` / `BitWords` / `BitView`: a read-only view, an owning
//     fixed-size bit vector, and a mutable view into a shared word block.
//     The mutable two guarantee the unused tail bits of the last word are
//     zero after every mutation, so scans never need a tail mask.
//   * `RequestMatrix`: a rows x cols bit matrix with dirty-row tracking.
//     Allocators rebuild their request state every cycle; clearing only the
//     rows touched last cycle makes the per-cycle reset O(active requests)
//     instead of O(rows x cols).
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "common/check.hpp"

namespace vixnoc {

namespace bits {

inline constexpr int kWordBits = 64;

inline constexpr int WordCount(int nbits) {
  return (nbits + kWordBits - 1) / kWordBits;
}

/// Mask selecting the valid bits of the last word of an `nbits`-bit vector
/// (all ones when nbits is a multiple of 64).
inline constexpr std::uint64_t TailMask(int nbits) {
  const int rem = nbits % kWordBits;
  return rem == 0 ? ~std::uint64_t{0} : (std::uint64_t{1} << rem) - 1;
}

/// Lowest set bit index in `words[0..nwords)`, or -1 when empty.
inline int FirstSet(const std::uint64_t* words, int nwords) {
  for (int w = 0; w < nwords; ++w) {
    if (words[w] != 0) {
      return w * kWordBits + std::countr_zero(words[w]);
    }
  }
  return -1;
}

/// Lowest set bit at index >= `start`, NOT wrapping; -1 when none.
inline int FirstSetAtOrAfter(const std::uint64_t* words, int nwords,
                             int start) {
  int w = start / kWordBits;
  if (w >= nwords) return -1;
  std::uint64_t cur = words[w] & (~std::uint64_t{0} << (start % kWordBits));
  while (true) {
    if (cur != 0) return w * kWordBits + std::countr_zero(cur);
    if (++w >= nwords) return -1;
    cur = words[w];
  }
}

/// Rotating-priority scan: lowest set bit at index >= `start`, wrapping to
/// the lowest set bit overall when nothing at or after `start` is set.
/// Returns -1 when no bit is set. Equivalent to the scalar loop
/// `for (off = 0; off < n; ++off) if (req[(start + off) % n]) ...`.
inline int FirstSetFrom(const std::uint64_t* words, int nwords, int start) {
  const int hi = FirstSetAtOrAfter(words, nwords, start);
  if (hi >= 0) return hi;
  return FirstSet(words, nwords);
}

/// FirstSet / FirstSetAtOrAfter / FirstSetFrom over the AND of two word
/// arrays, without materializing the intersection.
inline int FirstSetAnd(const std::uint64_t* a, const std::uint64_t* b,
                       int nwords) {
  for (int w = 0; w < nwords; ++w) {
    const std::uint64_t cur = a[w] & b[w];
    if (cur != 0) return w * kWordBits + std::countr_zero(cur);
  }
  return -1;
}

inline int FirstSetAtOrAfterAnd(const std::uint64_t* a,
                                const std::uint64_t* b, int nwords,
                                int start) {
  int w = start / kWordBits;
  if (w >= nwords) return -1;
  std::uint64_t cur =
      (a[w] & b[w]) & (~std::uint64_t{0} << (start % kWordBits));
  while (true) {
    if (cur != 0) return w * kWordBits + std::countr_zero(cur);
    if (++w >= nwords) return -1;
    cur = a[w] & b[w];
  }
}

inline int FirstSetFromAnd(const std::uint64_t* a, const std::uint64_t* b,
                           int nwords, int start) {
  const int hi = FirstSetAtOrAfterAnd(a, b, nwords, start);
  if (hi >= 0) return hi;
  return FirstSetAnd(a, b, nwords);
}

/// Lowest set bit of `a & ~b`, or -1 when empty.
inline int FirstSetAndNot(const std::uint64_t* a, const std::uint64_t* b,
                          int nwords) {
  for (int w = 0; w < nwords; ++w) {
    const std::uint64_t cur = a[w] & ~b[w];
    if (cur != 0) return w * kWordBits + std::countr_zero(cur);
  }
  return -1;
}

inline bool AnySet(const std::uint64_t* words, int nwords) {
  for (int w = 0; w < nwords; ++w) {
    if (words[w] != 0) return true;
  }
  return false;
}

inline int CountSet(const std::uint64_t* words, int nwords) {
  int count = 0;
  for (int w = 0; w < nwords; ++w) {
    count += std::popcount(words[w]);
  }
  return count;
}

/// Invoke `f(index)` for every bit set in `a` but not in `b` with
/// lo <= index < hi, ascending.
template <typename F>
inline void ForEachSetAndNotInRange(const std::uint64_t* a,
                                    const std::uint64_t* b, int lo, int hi,
                                    F&& f) {
  if (lo >= hi) return;
  const int wlo = lo / kWordBits;
  const int whi = (hi - 1) / kWordBits;
  for (int w = wlo; w <= whi; ++w) {
    std::uint64_t cur = a[w] & ~b[w];
    if (w == wlo) cur &= ~std::uint64_t{0} << (lo % kWordBits);
    if (w == whi) {
      const int rem = hi - w * kWordBits;
      if (rem < kWordBits) cur &= (std::uint64_t{1} << rem) - 1;
    }
    while (cur != 0) {
      f(w * kWordBits + std::countr_zero(cur));
      cur &= cur - 1;
    }
  }
}

/// Invoke `f(index)` for every set bit in ascending order.
template <typename F>
inline void ForEachSet(const std::uint64_t* words, int nwords, F&& f) {
  for (int w = 0; w < nwords; ++w) {
    std::uint64_t cur = words[w];
    while (cur != 0) {
      f(w * kWordBits + std::countr_zero(cur));
      cur &= cur - 1;
    }
  }
}

}  // namespace bits

/// Non-owning view of an `nbits`-bit vector whose tail bits are zero.
class BitSpan {
 public:
  BitSpan() = default;
  BitSpan(const std::uint64_t* words, int nbits)
      : words_(words), nbits_(nbits) {}

  int size() const { return nbits_; }
  const std::uint64_t* words() const { return words_; }
  int word_count() const { return bits::WordCount(nbits_); }

  bool Test(int i) const {
    VIXNOC_DCHECK(i >= 0 && i < nbits_);
    return (words_[i / bits::kWordBits] >>
            (i % bits::kWordBits)) & std::uint64_t{1};
  }
  bool Any() const { return bits::AnySet(words_, word_count()); }
  int Count() const { return bits::CountSet(words_, word_count()); }
  int First() const { return bits::FirstSet(words_, word_count()); }
  int FirstFrom(int start) const {
    return bits::FirstSetFrom(words_, word_count(), start);
  }
  int FirstAtOrAfter(int start) const {
    return bits::FirstSetAtOrAfter(words_, word_count(), start);
  }
  template <typename F>
  void ForEach(F&& f) const {
    bits::ForEachSet(words_, word_count(), static_cast<F&&>(f));
  }

 private:
  const std::uint64_t* words_ = nullptr;
  int nbits_ = 0;
};

/// Mutating operations shared by BitWords (owning) and BitView (a window
/// into a larger word block). `Derived` supplies data(), size() and
/// word_count(); tail bits of the last word stay zero after every mutation.
template <typename Derived>
class BitOps {
 public:
  BitSpan Span() const { return BitSpan(self().data(), self().size()); }
  operator BitSpan() const { return Span(); }

  void Set(int i) {
    VIXNOC_DCHECK(i >= 0 && i < self().size());
    self().data()[i / bits::kWordBits] |= std::uint64_t{1}
                                          << (i % bits::kWordBits);
  }
  void Clear(int i) {
    VIXNOC_DCHECK(i >= 0 && i < self().size());
    self().data()[i / bits::kWordBits] &=
        ~(std::uint64_t{1} << (i % bits::kWordBits));
  }
  void Assign(int i, bool value) { value ? Set(i) : Clear(i); }
  bool Test(int i) const { return Span().Test(i); }

  void ClearAll() {
    std::uint64_t* w = self().data();
    for (int i = 0; i < self().word_count(); ++i) w[i] = 0;
  }
  /// Copy the bits of an equally-sized span into this vector.
  void CopyFrom(BitSpan other) {
    VIXNOC_DCHECK(other.size() == self().size());
    std::uint64_t* w = self().data();
    for (int i = 0; i < self().word_count(); ++i) w[i] = other.words()[i];
  }
  /// Set every bit in [0, size()); tail bits stay zero.
  void SetAll() {
    const int n = self().word_count();
    if (n == 0) return;
    std::uint64_t* w = self().data();
    for (int i = 0; i < n; ++i) w[i] = ~std::uint64_t{0};
    w[n - 1] = bits::TailMask(self().size());
  }

  bool Any() const { return Span().Any(); }
  int Count() const { return Span().Count(); }
  int First() const { return Span().First(); }
  int FirstFrom(int start) const { return Span().FirstFrom(start); }
  template <typename F>
  void ForEach(F&& f) const {
    Span().ForEach(static_cast<F&&>(f));
  }

 private:
  Derived& self() { return static_cast<Derived&>(*this); }
  const Derived& self() const { return static_cast<const Derived&>(*this); }
};

/// Owning fixed-size bit vector.
class BitWords : public BitOps<BitWords> {
 public:
  BitWords() = default;
  explicit BitWords(int nbits) { Resize(nbits); }

  void Resize(int nbits) {
    VIXNOC_CHECK(nbits >= 0);
    nbits_ = nbits;
    words_.assign(static_cast<std::size_t>(bits::WordCount(nbits)), 0);
  }

  int size() const { return nbits_; }
  int word_count() const { return static_cast<int>(words_.size()); }
  std::uint64_t* data() { return words_.data(); }
  const std::uint64_t* data() const { return words_.data(); }

 private:
  int nbits_ = 0;
  std::vector<std::uint64_t> words_;
};

/// Non-owning fixed-size bit vector over words owned elsewhere, so several
/// bit sets can share one allocation (see BitView::Carve).
class BitView : public BitOps<BitView> {
 public:
  BitView() = default;
  BitView(std::uint64_t* words, int nbits) : words_(words), nbits_(nbits) {}

  /// Takes the next `nbits` bits' worth of words from `*cursor`, advancing
  /// it past them: views carved in turn from one zeroed block of
  /// sum(WordCount(nbits)) words never overlap.
  static BitView Carve(std::uint64_t** cursor, int nbits) {
    BitView v(*cursor, nbits);
    *cursor += bits::WordCount(nbits);
    return v;
  }

  int size() const { return nbits_; }
  int word_count() const { return bits::WordCount(nbits_); }
  std::uint64_t* data() { return words_; }
  const std::uint64_t* data() const { return words_; }

 private:
  std::uint64_t* words_ = nullptr;
  int nbits_ = 0;
};

/// Dense rows x cols bit matrix with dirty-row tracking. Built for state
/// that is rebuilt from a (usually sparse) request list every cycle: `Set`
/// marks the row dirty, `ClearDirty` zeroes only the dirty rows, and
/// `DirtyRows` exposes the set of non-empty rows for ascending iteration.
class RequestMatrix {
 public:
  RequestMatrix() = default;
  RequestMatrix(int rows, int cols) { Resize(rows, cols); }

  void Resize(int rows, int cols) {
    VIXNOC_CHECK(rows >= 0 && cols >= 0);
    rows_ = rows;
    cols_ = cols;
    words_per_row_ = bits::WordCount(cols);
    words_.assign(
        static_cast<std::size_t>(rows) * words_per_row_, 0);
    dirty_.Resize(rows);
  }

  int rows() const { return rows_; }
  int cols() const { return cols_; }

  void Set(int r, int c) {
    VIXNOC_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    words_[static_cast<std::size_t>(r) * words_per_row_ +
           c / bits::kWordBits] |=
        std::uint64_t{1} << (c % bits::kWordBits);
    dirty_.Set(r);
  }

  bool Test(int r, int c) const { return Row(r).Test(c); }

  BitSpan Row(int r) const {
    VIXNOC_DCHECK(r >= 0 && r < rows_);
    return BitSpan(
        words_.data() + static_cast<std::size_t>(r) * words_per_row_, cols_);
  }

  /// Rows that received at least one Set since the last ClearDirty.
  const BitWords& DirtyRows() const { return dirty_; }

  /// Zero every dirty row (and the dirty set). O(set bits), not O(rows).
  void ClearDirty() {
    dirty_.ForEach([this](int r) {
      std::uint64_t* row =
          words_.data() + static_cast<std::size_t>(r) * words_per_row_;
      for (int w = 0; w < words_per_row_; ++w) row[w] = 0;
    });
    dirty_.ClearAll();
  }

 private:
  int rows_ = 0;
  int cols_ = 0;
  int words_per_row_ = 0;
  std::vector<std::uint64_t> words_;
  BitWords dirty_;
};

}  // namespace vixnoc
