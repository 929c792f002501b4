// One function per stateful type names each stored field once, and the
// same function both saves and restores it:
//
//   void WavefrontAllocator::Visit(StateArchive& ar) {
//     ar.I32(priority_diagonal_, 0, n_, "wavefront diagonal");
//     ar.VecI32(vc_rr_, 0, geom_.num_vcs, "wavefront VC pointers");
//   }
//
// A StateArchive wraps either a SnapshotWriter or a SnapshotReader. Each
// typed field call takes a reference and emits (or reads) the snapshot
// primitive of its name, so the byte layout is the sequence of calls.
// Every overload that takes a `what` argument is bounded: on load it
// throws SimError when the value read breaks the bound (a range, or the
// length the constructed geometry fixes); on save it does nothing extra.
// Counts ahead of variable-length lists are checked against the bytes
// left in the section before anything is reserved.
//
// Saving only reads the visited object. Derived state (caches, candidate
// masks, owner maps) stays out of Visit: a load rebuilds it after the
// stored fields are in, as do checks that span several fields.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "snapshot/snapshot.hpp"

namespace vixnoc {

class StateArchive {
 public:
  explicit StateArchive(SnapshotWriter& w) : w_(&w) {}
  explicit StateArchive(SnapshotReader& r) : r_(&r) {}

  bool loading() const { return r_ != nullptr; }

  /// Saves a const object (saving never writes to it) or loads one, via
  /// its member Visit or a free Visit(StateArchive&, T&).
  template <class T>
  static void Save(SnapshotWriter& w, const T& obj) {
    StateArchive ar(w);
    ar.Object(const_cast<T&>(obj));
  }
  template <class T>
  static void Load(SnapshotReader& r, T& obj) {
    StateArchive ar(r);
    ar.Object(obj);
  }
  template <class T>
  void Object(T& obj) {
    if constexpr (requires { obj.Visit(*this); }) {
      obj.Visit(*this);
    } else {
      Visit(*this, obj);
    }
  }

  void U8(std::uint8_t& v) { Io(v, &SnapshotWriter::U8, &SnapshotReader::U8); }
  void U16(std::uint16_t& v) {
    Io(v, &SnapshotWriter::U16, &SnapshotReader::U16);
  }
  void U32(std::uint32_t& v) {
    Io(v, &SnapshotWriter::U32, &SnapshotReader::U32);
  }
  void U64(std::uint64_t& v) {
    Io(v, &SnapshotWriter::U64, &SnapshotReader::U64);
  }
  void I32(std::int32_t& v) {
    Io(v, &SnapshotWriter::I32, &SnapshotReader::I32);
  }
  void F64(double& v) { Io(v, &SnapshotWriter::F64, &SnapshotReader::F64); }
  void B(bool& v) { Io(v, &SnapshotWriter::B, &SnapshotReader::B); }
  void Str(std::string& v) {
    Io(v, &SnapshotWriter::Str, &SnapshotReader::Str);
  }
  void VecU32(std::vector<std::uint32_t>& v) {
    Io(v, &SnapshotWriter::VecU32, &SnapshotReader::VecU32);
  }
  void VecU64(std::vector<std::uint64_t>& v) {
    Io(v, &SnapshotWriter::VecU64, &SnapshotReader::VecU64);
  }

  // Bounded fields: values in [lo, hi), or [0, hi) for unsigned ones.
  void I32(std::int32_t& v, std::int32_t lo, std::int32_t hi,
           const char* what) {
    I32(v);
    Bound<std::int64_t>(v, lo, hi, what);
  }
  void U8(std::uint8_t& v, unsigned hi, const char* what) {
    U8(v);
    Bound<std::uint64_t>(v, 0, hi, what);
  }
  void U32(std::uint32_t& v, std::uint64_t hi, const char* what) {
    U32(v);
    Bound<std::uint64_t>(v, 0, hi, what);
  }
  void U64(std::uint64_t& v, std::uint64_t hi, const char* what) {
    U64(v);
    Bound<std::uint64_t>(v, 0, hi, what);
  }
  /// An enum stored as one byte, at most `last`.
  template <class E>
  void Enum8(E& v, E last, const char* what) {
    auto raw = static_cast<std::uint8_t>(v);
    U8(raw, static_cast<unsigned>(last) + 1, what);
    v = static_cast<E>(raw);
  }

  // Vectors whose length the constructed geometry fixes: stored with a
  // u64 length prefix like the unbounded Vec* primitives, and on load the
  // length must equal v.size(). VecI32 also bounds each element.
  void VecU64(std::vector<std::uint64_t>& v, const char* what) {
    Sized(v, &SnapshotWriter::VecU64, &SnapshotReader::VecU64, what);
  }
  void VecBool(std::vector<bool>& v, const char* what) {
    Sized(v, &SnapshotWriter::VecBool, &SnapshotReader::VecBool, what);
  }
  void VecI32(std::vector<int>& v, int lo, int hi, const char* what) {
    Sized(v, &SnapshotWriter::VecI32, &SnapshotReader::VecI32, what);
    if (loading()) {
      for (const int x : v) Bound<std::int64_t>(x, lo, hi, what);
    }
  }

  /// A list stored as a u32 count, then each element through `elem`. On
  /// load the count is checked against the bytes left (each element takes
  /// at least `elem_bytes`) before `c` is resized to it.
  template <class C, class F>
  void List(C& c, std::size_t elem_bytes, F&& elem) {
    auto n = static_cast<std::uint32_t>(c.size());
    if (loading()) {
      n = r_->CountU32(elem_bytes);
      c.clear();
      c.resize(n);
    } else {
      w_->U32(n);
    }
    for (auto& x : c) elem(x);
  }
  /// The same, each element through its own Visit.
  template <class C>
  void List(C& c, std::size_t elem_bytes) {
    List(c, elem_bytes, [&](auto& x) { Object(x); });
  }
  /// A list the geometry sizes, stored as a u32 count that must equal
  /// c.size() on load, then each element through `elem`.
  template <class C, class F>
  void FixedList(C& c, const char* what, F&& elem) {
    auto n = static_cast<std::uint32_t>(c.size());
    U32(n);
    Require(n == c.size(), "restored %s has %u entries, expected %zu", what,
            n, c.size());
    for (auto& x : c) elem(x);
  }

  /// Load-side check of a bound that spans fields already visited; a no-op
  /// on save.
  void Require(bool ok, const char* fmt, ...) const
      __attribute__((format(printf, 3, 4)));

 private:
  template <class T, class Write, class Read>
  void Io(T& v, Write write, Read read) {
    if (r_ != nullptr) {
      v = (r_->*read)();
    } else {
      (w_->*write)(v);
    }
  }
  template <class T, class Write, class Read>
  void Sized(std::vector<T>& v, Write write, Read read, const char* what) {
    if (r_ == nullptr) {
      (w_->*write)(v);
      return;
    }
    std::vector<T> got = (r_->*read)();
    Require(got.size() == v.size(), "restored %s has %zu entries, expected %zu",
            what, got.size(), v.size());
    v = std::move(got);
  }
  template <class T>
  void Bound(T v, T lo, T hi, const char* what) const {
    if (loading() && (v < lo || v >= hi)) {
      r_->Fail("restored " + std::string(what) + " " + std::to_string(v) +
               " outside [" + std::to_string(lo) + ", " + std::to_string(hi) +
               ")");
    }
  }

  SnapshotWriter* w_ = nullptr;
  SnapshotReader* r_ = nullptr;
};

// The value types of common/.

inline void Visit(StateArchive& ar, Rng& rng) {
  Rng::State s = rng.state();
  for (std::uint64_t& x : s) ar.U64(x);
  if (ar.loading()) rng.set_state(s);
}

inline void Visit(StateArchive& ar, RunningStat& stat) {
  RunningStat::State s = stat.state();
  ar.U64(s.n);
  ar.F64(s.mean);
  ar.F64(s.m2);
  ar.F64(s.sum);
  ar.F64(s.min);
  ar.F64(s.max);
  if (ar.loading()) stat.set_state(s);
}

inline void Visit(StateArchive& ar, Histogram& h) {
  std::uint64_t total = h.TotalCount();
  std::vector<std::uint64_t> counts = h.raw_counts();
  ar.U64(total);
  ar.VecU64(counts, "histogram buckets");
  if (ar.loading()) h.set_state(std::move(counts), total);
}

inline void Visit(StateArchive& ar, NodeCounters& c) {
  ar.U64(c.packets_injected);
  ar.U64(c.packets_ejected);
  ar.U64(c.flits_injected);
  ar.U64(c.flits_ejected);
  ar.U64(c.packets_delivered);
}

}  // namespace vixnoc
