// Checkpoint serialization core: a versioned, checksummed, section-framed
// binary container for complete simulator state.
//
// Layout of a snapshot file (all integers little-endian):
//
//   magic     8 bytes  "VIXSNAP\0"
//   version   u32      kSnapshotFormatVersion; readers reject mismatches
//   fingerprint u64    caller-defined identity of the *producer* (for sim
//                      checkpoints: a hash of every evolution-relevant
//                      NetworkSimConfig field) — restoring under a different
//                      fingerprint is refused up front
//   sections  u32      section count, then per section:
//     name_len u32, name bytes        section name ("sim", "network", ...)
//     payload_len u64, payload bytes  primitive-encoded state
//     checksum u64                    FNV-1a 64 over the payload
//
// Error contract: every malformed input — truncation anywhere, a flipped
// bit in any section, an unknown version, a missing section — throws a
// recoverable SimError naming the failing section; nothing in this module
// aborts the process or silently misrestores. Writers publish atomically
// (write to "<path>.tmp", then rename) so a crash mid-save never leaves a
// torn file at the destination path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace vixnoc {

/// Bumped whenever the encoded state layout changes incompatibly.
inline constexpr std::uint32_t kSnapshotFormatVersion = 1;

/// FNV-1a 64-bit over a byte range (seedable for incremental hashing).
std::uint64_t Fnv1a64(const void* data, std::size_t size,
                      std::uint64_t seed = 0xcbf29ce484222325ull);

/// Accumulates sections of primitive-encoded state, then assembles the
/// final framed byte string. Primitives append to the currently open
/// section; opening a section while one is open is a usage error (checked).
class SnapshotWriter {
 public:
  void BeginSection(const std::string& name);
  void EndSection();

  void U8(std::uint8_t v);
  void U16(std::uint16_t v);
  void U32(std::uint32_t v);
  void U64(std::uint64_t v);
  void I32(std::int32_t v) { U32(static_cast<std::uint32_t>(v)); }
  void I64(std::int64_t v) { U64(static_cast<std::uint64_t>(v)); }
  void F64(double v);
  void B(bool v) { U8(v ? 1 : 0); }
  void Str(const std::string& s);

  void VecU64(const std::vector<std::uint64_t>& v);
  void VecU32(const std::vector<std::uint32_t>& v);
  void VecI32(const std::vector<int>& v);
  void VecBool(const std::vector<bool>& v);

  /// Assembles header + all sections into the final file bytes.
  std::string Finish(std::uint64_t fingerprint) const;

 private:
  struct Section {
    std::string name;
    std::string payload;
  };
  std::vector<Section> sections_;
  bool open_ = false;
  std::string current_;  ///< payload of the open section
};

/// Parses and validates a framed snapshot; primitives read from the
/// currently open section. All failures throw SimError with the section
/// name and byte offset.
class SnapshotReader {
 public:
  /// Parses the frame; validates magic, version and every section checksum.
  explicit SnapshotReader(std::string bytes);

  std::uint64_t fingerprint() const { return fingerprint_; }

  bool HasSection(const std::string& name) const;
  void OpenSection(const std::string& name);
  /// Requires the open section to be fully consumed (guards against a
  /// reader/writer layout drift that happens to pass the checksum).
  void CloseSection();

  std::uint8_t U8();
  std::uint16_t U16();
  std::uint32_t U32();
  std::uint64_t U64();
  std::int32_t I32() { return static_cast<std::int32_t>(U32()); }
  std::int64_t I64() { return static_cast<std::int64_t>(U64()); }
  double F64();
  bool B();
  std::string Str();

  std::vector<std::uint64_t> VecU64();
  std::vector<std::uint32_t> VecU32();
  std::vector<int> VecI32();
  std::vector<bool> VecBool();

  /// Reads a count written by a Vec*/Str length prefix and validates it
  /// against the bytes remaining in the section (so a corrupted length
  /// cannot drive a multi-gigabyte allocation).
  std::size_t Count(std::size_t elem_size);
  /// The same check for a U32 element count written by hand ahead of
  /// `elem_size`-byte (at least) elements; call it before reserve().
  std::uint32_t CountU32(std::size_t elem_size);

  /// Throws SimError naming the open section and offset.
  [[noreturn]] void Fail(const std::string& why) const;

 private:
  std::size_t CheckCount(std::uint64_t n, std::size_t elem_size) const;
  struct Section {
    std::string payload;
  };
  const std::string& Payload() const;

  std::vector<std::pair<std::string, Section>> sections_;
  std::uint64_t fingerprint_ = 0;
  int open_ = -1;       ///< index into sections_, -1 = none
  std::size_t pos_ = 0;  ///< cursor within the open section
};

/// Writes `bytes` to `path` atomically (tmp file + rename). Throws SimError
/// on any I/O failure.
void WriteSnapshotFile(const std::string& path, const std::string& bytes);

/// Reads a whole file. Throws SimError if the file cannot be opened/read.
std::string ReadSnapshotFile(const std::string& path);

}  // namespace vixnoc
