#include "snapshot/snapshot.hpp"

#include <atomic>
#include <cstdio>
#include <cstring>

#include <unistd.h>

#include "common/check.hpp"
#include "common/error.hpp"

namespace vixnoc {
namespace {

constexpr char kMagic[8] = {'V', 'I', 'X', 'S', 'N', 'A', 'P', '\0'};

void AppendU32(std::string* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void AppendU64(std::string* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

}  // namespace

std::uint64_t Fnv1a64(const void* data, std::size_t size, std::uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

void SnapshotWriter::BeginSection(const std::string& name) {
  VIXNOC_CHECK(!open_);
  open_ = true;
  current_.clear();
  sections_.push_back(Section{name, {}});
}

void SnapshotWriter::EndSection() {
  VIXNOC_CHECK(open_);
  sections_.back().payload = std::move(current_);
  current_.clear();
  open_ = false;
}

void SnapshotWriter::U8(std::uint8_t v) {
  VIXNOC_CHECK(open_);
  current_.push_back(static_cast<char>(v));
}

void SnapshotWriter::U16(std::uint16_t v) {
  U8(static_cast<std::uint8_t>(v));
  U8(static_cast<std::uint8_t>(v >> 8));
}

void SnapshotWriter::U32(std::uint32_t v) {
  VIXNOC_CHECK(open_);
  AppendU32(&current_, v);
}

void SnapshotWriter::U64(std::uint64_t v) {
  VIXNOC_CHECK(open_);
  AppendU64(&current_, v);
}

void SnapshotWriter::F64(double v) {
  std::uint64_t bits;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  U64(bits);
}

void SnapshotWriter::Str(const std::string& s) {
  U64(s.size());
  VIXNOC_CHECK(open_);
  current_.append(s);
}

void SnapshotWriter::VecU64(const std::vector<std::uint64_t>& v) {
  U64(v.size());
  for (std::uint64_t x : v) U64(x);
}

void SnapshotWriter::VecU32(const std::vector<std::uint32_t>& v) {
  U64(v.size());
  for (std::uint32_t x : v) U32(x);
}

void SnapshotWriter::VecI32(const std::vector<int>& v) {
  U64(v.size());
  for (int x : v) I32(x);
}

void SnapshotWriter::VecBool(const std::vector<bool>& v) {
  U64(v.size());
  for (bool x : v) B(x);
}

std::string SnapshotWriter::Finish(std::uint64_t fingerprint) const {
  VIXNOC_CHECK(!open_);
  std::string out(kMagic, sizeof kMagic);
  AppendU32(&out, kSnapshotFormatVersion);
  AppendU64(&out, fingerprint);
  AppendU32(&out, static_cast<std::uint32_t>(sections_.size()));
  for (const Section& s : sections_) {
    AppendU32(&out, static_cast<std::uint32_t>(s.name.size()));
    out.append(s.name);
    AppendU64(&out, s.payload.size());
    out.append(s.payload);
    AppendU64(&out, Fnv1a64(s.payload.data(), s.payload.size()));
  }
  return out;
}

namespace {

/// Frame-level cursor used only while parsing the container in the
/// constructor; section payload reads go through SnapshotReader's own
/// cursor so errors can name the section.
class FrameCursor {
 public:
  explicit FrameCursor(const std::string& bytes) : bytes_(bytes) {}

  std::size_t remaining() const { return bytes_.size() - pos_; }

  const char* Take(std::size_t n, const char* what) {
    if (remaining() < n) {
      throw SimError("checkpoint file truncated: expected " +
                     std::to_string(n) + " bytes for " + what + " at offset " +
                     std::to_string(pos_) + ", file has " +
                     std::to_string(bytes_.size()) + " bytes");
    }
    const char* p = bytes_.data() + pos_;
    pos_ += n;
    return p;
  }

  std::uint32_t U32(const char* what) {
    const unsigned char* p =
        reinterpret_cast<const unsigned char*>(Take(4, what));
    return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) |
           (static_cast<std::uint32_t>(p[3]) << 24);
  }

  std::uint64_t U64(const char* what) {
    const unsigned char* p =
        reinterpret_cast<const unsigned char*>(Take(8, what));
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
    return v;
  }

 private:
  const std::string& bytes_;
  std::size_t pos_ = 0;
};

}  // namespace

SnapshotReader::SnapshotReader(std::string bytes) {
  FrameCursor cur(bytes);
  const char* magic = cur.Take(sizeof kMagic, "magic");
  if (std::memcmp(magic, kMagic, sizeof kMagic) != 0) {
    throw SimError("not a vixnoc checkpoint file (bad magic)");
  }
  const std::uint32_t version = cur.U32("format version");
  if (version != kSnapshotFormatVersion) {
    throw SimError("checkpoint format version " + std::to_string(version) +
                   " is not supported (this build reads version " +
                   std::to_string(kSnapshotFormatVersion) + ")");
  }
  fingerprint_ = cur.U64("config fingerprint");
  const std::uint32_t num_sections = cur.U32("section count");
  // Each section frame takes at least its name length, payload length and
  // checksum fields, which bounds a count that is safe to reserve.
  constexpr std::size_t kMinSectionBytes = 4 + 8 + 8;
  if (num_sections > cur.remaining() / kMinSectionBytes) {
    throw SimError("checkpoint claims " + std::to_string(num_sections) +
                   " sections but only " + std::to_string(cur.remaining()) +
                   " bytes remain");
  }
  sections_.reserve(num_sections);
  for (std::uint32_t i = 0; i < num_sections; ++i) {
    const std::uint32_t name_len = cur.U32("section name length");
    if (name_len > cur.remaining()) {
      throw SimError("checkpoint file truncated inside section " +
                     std::to_string(i) + "'s name");
    }
    std::string name(cur.Take(name_len, "section name"), name_len);
    const std::uint64_t payload_len = cur.U64("section payload length");
    if (payload_len > cur.remaining()) {
      throw SimError("checkpoint section '" + name +
                     "' truncated: payload claims " +
                     std::to_string(payload_len) + " bytes, only " +
                     std::to_string(cur.remaining()) + " remain");
    }
    std::string payload(
        cur.Take(static_cast<std::size_t>(payload_len), "section payload"),
        static_cast<std::size_t>(payload_len));
    const std::uint64_t want = cur.U64("section checksum");
    const std::uint64_t got = Fnv1a64(payload.data(), payload.size());
    if (want != got) {
      throw SimError("checkpoint section '" + name +
                     "' failed its checksum (stored " + std::to_string(want) +
                     ", computed " + std::to_string(got) +
                     "): the file is corrupted");
    }
    sections_.emplace_back(std::move(name), Section{std::move(payload)});
  }
}

bool SnapshotReader::HasSection(const std::string& name) const {
  for (const auto& [n, s] : sections_) {
    if (n == name) return true;
  }
  return false;
}

void SnapshotReader::OpenSection(const std::string& name) {
  VIXNOC_CHECK(open_ < 0);
  for (std::size_t i = 0; i < sections_.size(); ++i) {
    if (sections_[i].first == name) {
      open_ = static_cast<int>(i);
      pos_ = 0;
      return;
    }
  }
  throw SimError("checkpoint has no '" + name + "' section");
}

void SnapshotReader::CloseSection() {
  VIXNOC_CHECK(open_ >= 0);
  if (pos_ != Payload().size()) {
    Fail("has " + std::to_string(Payload().size() - pos_) +
         " unread trailing bytes (layout mismatch)");
  }
  open_ = -1;
  pos_ = 0;
}

const std::string& SnapshotReader::Payload() const {
  VIXNOC_CHECK(open_ >= 0);
  return sections_[open_].second.payload;
}

void SnapshotReader::Fail(const std::string& why) const {
  const std::string name = open_ >= 0 ? sections_[open_].first : "<none>";
  throw SimError("checkpoint section '" + name + "' at offset " +
                 std::to_string(pos_) + ": " + why);
}

std::uint8_t SnapshotReader::U8() {
  const std::string& p = Payload();
  if (pos_ + 1 > p.size()) Fail("truncated (need 1 byte)");
  return static_cast<std::uint8_t>(p[pos_++]);
}

std::uint16_t SnapshotReader::U16() {
  const std::uint16_t lo = U8();
  return static_cast<std::uint16_t>(lo | (static_cast<std::uint16_t>(U8()) << 8));
}

std::uint32_t SnapshotReader::U32() {
  const std::string& p = Payload();
  if (pos_ + 4 > p.size()) Fail("truncated (need 4 bytes)");
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(p[pos_ + i]);
  }
  pos_ += 4;
  return v;
}

std::uint64_t SnapshotReader::U64() {
  const std::string& p = Payload();
  if (pos_ + 8 > p.size()) Fail("truncated (need 8 bytes)");
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(p[pos_ + i]);
  }
  pos_ += 8;
  return v;
}

double SnapshotReader::F64() {
  const std::uint64_t bits = U64();
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

bool SnapshotReader::B() {
  const std::uint8_t v = U8();
  if (v > 1) Fail("bool byte is " + std::to_string(v));
  return v != 0;
}

std::size_t SnapshotReader::Count(std::size_t elem_size) {
  return CheckCount(U64(), elem_size);
}

std::uint32_t SnapshotReader::CountU32(std::size_t elem_size) {
  const std::uint32_t n = U32();
  CheckCount(n, elem_size);
  return n;
}

std::size_t SnapshotReader::CheckCount(std::uint64_t n,
                                       std::size_t elem_size) const {
  const std::size_t remaining = Payload().size() - pos_;
  if (elem_size > 0 && n > remaining / elem_size) {
    Fail("count " + std::to_string(n) + " exceeds the " +
         std::to_string(remaining) + " bytes left in the section");
  }
  return static_cast<std::size_t>(n);
}

std::string SnapshotReader::Str() {
  const std::size_t n = Count(1);
  const std::string& p = Payload();
  std::string s(p.data() + pos_, n);
  pos_ += n;
  return s;
}

std::vector<std::uint64_t> SnapshotReader::VecU64() {
  const std::size_t n = Count(8);
  std::vector<std::uint64_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = U64();
  return v;
}

std::vector<std::uint32_t> SnapshotReader::VecU32() {
  const std::size_t n = Count(4);
  std::vector<std::uint32_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = U32();
  return v;
}

std::vector<int> SnapshotReader::VecI32() {
  const std::size_t n = Count(4);
  std::vector<int> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = I32();
  return v;
}

std::vector<bool> SnapshotReader::VecBool() {
  const std::size_t n = Count(1);
  std::vector<bool> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = B();
  return v;
}

void WriteSnapshotFile(const std::string& path, const std::string& bytes) {
  // The tmp name is unique per process and per call: concurrent writers
  // racing the same destination (e.g. two store processes computing the
  // same content-addressed key) each stage their own complete file and
  // the final rename decides — neither can observe the other's torn
  // intermediate state.
  static std::atomic<std::uint64_t> tmp_counter{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(tmp_counter.fetch_add(1));
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    throw SimError("cannot open checkpoint file " + tmp + " for writing");
  }
  const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool flushed = std::fflush(f) == 0;
  std::fclose(f);
  if (written != bytes.size() || !flushed) {
    std::remove(tmp.c_str());
    throw SimError("short write to checkpoint file " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw SimError("cannot publish checkpoint file " + path +
                   " (rename failed)");
  }
}

std::string ReadSnapshotFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw SimError("cannot open checkpoint file " + path);
  }
  std::string bytes;
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) bytes.append(buf, n);
  const bool bad = std::ferror(f) != 0;
  std::fclose(f);
  if (bad) throw SimError("read error on checkpoint file " + path);
  return bytes;
}

}  // namespace vixnoc
