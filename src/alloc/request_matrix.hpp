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
//
// Each vector and matrix type has a one-word twin (`WordSpan`, `WordBits`,
// `WordRequestMatrix`) with the same methods, holding a row of at most 64
// bits in a single uint64_t. The allocator kernels are templates over a
// row policy (`OneWordRows` / `MultiWordRows`, at the end of this file), so
// each kernel is written once and a paper-sized switch runs it on single
// words.
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

/// Bits [pos, pos + len) of `words` as one word, bit pos in bit 0, for
/// 1 <= len <= 64. The word after pos's is read only when the range
/// reaches into it, so every shift stays below 64.
inline std::uint64_t Extract(const std::uint64_t* words, int pos, int len) {
  const int w = pos / kWordBits;
  const int off = pos % kWordBits;
  std::uint64_t v = words[w] >> off;
  if (off + len > kWordBits) v |= words[w + 1] << (kWordBits - off);
  return len == kWordBits ? v : v & ((std::uint64_t{1} << len) - 1);
}

/// `(i + 1) % n` for 0 <= i < n, with a compare instead of a division:
/// rotating priority pointers advance on every grant.
inline constexpr int NextWrapped(int i, int n) {
  return i + 1 == n ? 0 : i + 1;
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

/// Invoke `f(index)` for every bit set in the words `word(w)` with
/// lo <= index < hi, ascending.
template <typename Word, typename F>
inline void ForEachSetInRangeOf(int lo, int hi, Word&& word, F&& f) {
  if (lo >= hi) return;
  const int wlo = lo / kWordBits;
  const int whi = (hi - 1) / kWordBits;
  for (int w = wlo; w <= whi; ++w) {
    std::uint64_t cur = word(w);
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

/// Invoke `f(index)` for every bit set in `a` but not in `b` with
/// lo <= index < hi, ascending.
template <typename F>
inline void ForEachSetAndNotInRange(const std::uint64_t* a,
                                    const std::uint64_t* b, int lo, int hi,
                                    F&& f) {
  ForEachSetInRangeOf(
      lo, hi, [a, b](int w) { return a[w] & ~b[w]; }, static_cast<F&&>(f));
}

/// Invoke `f(index)` for every bit set in `a` with lo <= index < hi,
/// ascending.
template <typename F>
inline void ForEachSetInRange(const std::uint64_t* a, int lo, int hi, F&& f) {
  ForEachSetInRangeOf(
      lo, hi, [a](int w) { return a[w]; }, static_cast<F&&>(f));
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
  /// Index of the k-th (0-based) set bit; k must be < Count().
  int NthSet(int k) const {
    VIXNOC_DCHECK(k >= 0 && k < Count());
    for (int w = 0; w < word_count(); ++w) {
      const int pc = std::popcount(words_[w]);
      if (k < pc) {
        std::uint64_t cur = words_[w];
        while (k-- > 0) cur &= cur - 1;
        return w * bits::kWordBits + std::countr_zero(cur);
      }
      k -= pc;
    }
    return -1;
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

/// BitSpan's read interface over one word, for vectors of at most 64 bits.
/// Held by value: every scan is a single ctz/popcount.
class WordSpan {
 public:
  WordSpan() = default;
  WordSpan(std::uint64_t word, int nbits) : word_(word), nbits_(nbits) {
    VIXNOC_DCHECK(nbits >= 0 && nbits <= bits::kWordBits);
  }

  int size() const { return nbits_; }
  std::uint64_t word() const { return word_; }

  bool Test(int i) const {
    VIXNOC_DCHECK(i >= 0 && i < nbits_);
    return (word_ >> i) & std::uint64_t{1};
  }
  bool Any() const { return word_ != 0; }
  int Count() const { return std::popcount(word_); }
  int First() const { return word_ != 0 ? std::countr_zero(word_) : -1; }
  /// Rotating-priority scan (see bits::FirstSetFrom) as a masked rotate:
  /// the lowest bit at or after `start`, else the lowest bit overall.
  int FirstFrom(int start) const {
    VIXNOC_DCHECK(start >= 0 && start < bits::kWordBits);
    const std::uint64_t hi = word_ & (~std::uint64_t{0} << start);
    return hi != 0 ? std::countr_zero(hi) : First();
  }
  /// Index of the k-th (0-based) set bit; k must be < Count().
  int NthSet(int k) const {
    VIXNOC_DCHECK(k >= 0 && k < Count());
    std::uint64_t cur = word_;
    while (k-- > 0) cur &= cur - 1;
    return std::countr_zero(cur);
  }
  template <typename F>
  void ForEach(F&& f) const {
    for (std::uint64_t cur = word_; cur != 0; cur &= cur - 1) {
      f(std::countr_zero(cur));
    }
  }

 private:
  std::uint64_t word_ = 0;
  int nbits_ = 0;
};

/// Owning bit vector of at most 64 bits: BitWords' interface in one word.
class WordBits {
 public:
  WordBits() = default;
  explicit WordBits(int nbits) { Resize(nbits); }

  void Resize(int nbits) {
    VIXNOC_CHECK(nbits >= 0 && nbits <= bits::kWordBits);
    nbits_ = nbits;
    word_ = 0;
  }

  int size() const { return nbits_; }
  WordSpan Span() const { return WordSpan(word_, nbits_); }

  void Set(int i) {
    VIXNOC_DCHECK(i >= 0 && i < nbits_);
    word_ |= std::uint64_t{1} << i;
  }
  void Clear(int i) {
    VIXNOC_DCHECK(i >= 0 && i < nbits_);
    word_ &= ~(std::uint64_t{1} << i);
  }
  bool Test(int i) const { return Span().Test(i); }
  void ClearAll() { word_ = 0; }
  void SetAll() { word_ = nbits_ == 0 ? 0 : bits::TailMask(nbits_); }

  template <typename F>
  void ForEach(F&& f) const {
    Span().ForEach(static_cast<F&&>(f));
  }

 private:
  std::uint64_t word_ = 0;
  int nbits_ = 0;
};

/// Lowest set bit of `a & ~b` (equal sizes), or -1 when empty.
inline int FirstSetAndNot(BitSpan a, BitSpan b) {
  VIXNOC_DCHECK(a.size() == b.size());
  return bits::FirstSetAndNot(a.words(), b.words(), a.word_count());
}
inline int FirstSetAndNot(WordSpan a, WordSpan b) {
  return WordSpan(a.word() & ~b.word(), a.size()).First();
}

/// True when `a & b` (equal sizes) has a set bit.
inline bool AnySetAnd(BitSpan a, BitSpan b) {
  VIXNOC_DCHECK(a.size() == b.size());
  return bits::FirstSetAnd(a.words(), b.words(), a.word_count()) >= 0;
}
inline bool AnySetAnd(WordSpan a, WordSpan b) {
  return (a.word() & b.word()) != 0;
}

/// Invoke `f(index)` for every bit set in both `a` and `b`, ascending. Each
/// word of the intersection is read before its bits are visited, so `f`
/// may clear the bit it is handed in either source.
template <typename F>
inline void ForEachSetAnd(BitSpan a, BitSpan b, F&& f) {
  VIXNOC_DCHECK(a.size() == b.size());
  for (int w = 0; w < a.word_count(); ++w) {
    for (std::uint64_t cur = a.words()[w] & b.words()[w]; cur != 0;
         cur &= cur - 1) {
      f(w * bits::kWordBits + std::countr_zero(cur));
    }
  }
}
template <typename F>
inline void ForEachSetAnd(WordSpan a, WordSpan b, F&& f) {
  WordSpan(a.word() & b.word(), a.size()).ForEach(static_cast<F&&>(f));
}

/// Rows x cols bit matrix with no tracking: rows of one word each
/// (cols <= 64), or of WordCount(cols) words. Row(r) is a WordSpan or a
/// BitSpan respectively; the two share every method the kernels use.
class WordMatrix {
 public:
  void Resize(int rows, int cols) {
    VIXNOC_CHECK(rows >= 0 && cols >= 0 && cols <= bits::kWordBits);
    cols_ = cols;
    rows_.assign(static_cast<std::size_t>(rows), 0);
  }
  int rows() const { return static_cast<int>(rows_.size()); }
  int cols() const { return cols_; }

  void Set(int r, int c) {
    VIXNOC_DCHECK(r >= 0 && r < rows() && c >= 0 && c < cols_);
    rows_[static_cast<std::size_t>(r)] |= std::uint64_t{1} << c;
  }
  bool Test(int r, int c) const { return Row(r).Test(c); }
  WordSpan Row(int r) const {
    VIXNOC_DCHECK(r >= 0 && r < rows());
    return WordSpan(rows_[static_cast<std::size_t>(r)], cols_);
  }
  void ClearRow(int r) { rows_[static_cast<std::size_t>(r)] = 0; }

 private:
  int cols_ = 0;
  std::vector<std::uint64_t> rows_;
};

class BitMatrix {
 public:
  void Resize(int rows, int cols) {
    VIXNOC_CHECK(rows >= 0 && cols >= 0);
    rows_ = rows;
    cols_ = cols;
    words_per_row_ = bits::WordCount(cols);
    words_.assign(static_cast<std::size_t>(rows) * words_per_row_, 0);
  }
  int rows() const { return rows_; }
  int cols() const { return cols_; }

  void Set(int r, int c) {
    VIXNOC_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    words_[static_cast<std::size_t>(r) * words_per_row_ +
           c / bits::kWordBits] |= std::uint64_t{1} << (c % bits::kWordBits);
  }
  bool Test(int r, int c) const { return Row(r).Test(c); }
  BitSpan Row(int r) const {
    VIXNOC_DCHECK(r >= 0 && r < rows_);
    return BitSpan(
        words_.data() + static_cast<std::size_t>(r) * words_per_row_, cols_);
  }
  void ClearRow(int r) {
    std::uint64_t* row =
        words_.data() + static_cast<std::size_t>(r) * words_per_row_;
    for (int w = 0; w < words_per_row_; ++w) row[w] = 0;
  }

 private:
  int rows_ = 0;
  int cols_ = 0;
  int words_per_row_ = 0;
  std::vector<std::uint64_t> words_;
};

/// Dense rows x cols bit matrix with dirty-row tracking. Built for state
/// that is rebuilt from a (usually sparse) request list every cycle: `Set`
/// marks the row dirty, `ClearDirty` zeroes only the dirty rows, and
/// `DirtyRows` exposes the set of non-empty rows for ascending iteration.
/// `Matrix` is WordMatrix or BitMatrix, `DirtySet` WordBits or BitWords.
template <typename Matrix, typename DirtySet>
class BasicRequestMatrix {
 public:
  BasicRequestMatrix() = default;
  BasicRequestMatrix(int rows, int cols) { Resize(rows, cols); }

  void Resize(int rows, int cols) {
    matrix_.Resize(rows, cols);
    dirty_.Resize(rows);
  }

  int rows() const { return matrix_.rows(); }
  int cols() const { return matrix_.cols(); }

  void Set(int r, int c) {
    matrix_.Set(r, c);
    dirty_.Set(r);
  }
  bool Test(int r, int c) const { return matrix_.Test(r, c); }
  auto Row(int r) const { return matrix_.Row(r); }

  /// Rows that received at least one Set since the last ClearDirty.
  const DirtySet& DirtyRows() const { return dirty_; }

  /// Zero every dirty row (and the dirty set). O(set bits), not O(rows).
  void ClearDirty() {
    dirty_.ForEach([this](int r) { matrix_.ClearRow(r); });
    dirty_.ClearAll();
  }

 private:
  Matrix matrix_;
  DirtySet dirty_;
};

using RequestMatrix = BasicRequestMatrix<BitMatrix, BitWords>;
using WordRequestMatrix = BasicRequestMatrix<WordMatrix, WordBits>;

/// Row storage of an allocator kernel, fixed once at construction. Every
/// switch of the paper (radix 5-10, 6 VCs, at most 60 crossbar inputs)
/// takes OneWordRows: each request row and each dirty-row set is a single
/// uint64_t. Wider switches take MultiWordRows. A kernel written once over
/// `Rows` compiles to both.
struct OneWordRows {
  using Matrix = WordRequestMatrix;  ///< per-cycle rows with a dirty set
  using Cells = WordMatrix;          ///< rows cleared by their owner
  using Bits = WordBits;             ///< scratch bit vector
  /// True when a kernel whose rows and row sets are at most `n` bits wide
  /// may use this storage.
  static constexpr bool Fits(int n) { return n <= bits::kWordBits; }
};
struct MultiWordRows {
  using Matrix = RequestMatrix;
  using Cells = BitMatrix;
  using Bits = BitWords;
};

}  // namespace vixnoc
