// Binary byte images: one writer, one bounds-checked reader, and the
// crash-atomic file commit every on-disk format shares.
//
// Every binary image the controller keeps — the checkpoint state image,
// the migration, churn and site-health images, the degraded report and
// the latency recorder — is a sequence of fixed-width
// little-endian integers, doubles as their IEEE-754 bit patterns, and
// length-prefixed strings or sub-images. ByteWriter appends them;
// ByteReader<Error> reads them back and is the one place untrusted bytes
// are bounds-checked, before anything is allocated:
//
//   - every fixed-width read checks the bytes left;
//   - count<Width>(min_element_bytes) rejects an element count unless the
//     bytes left could hold that many elements of at least that size, so
//     no container is ever sized from a count the image cannot back;
//   - bytes(n) hands out a sub-image only if n bytes are left (n is
//     compared with the remainder, never added to an offset, so it
//     cannot wrap).
//
// A failed check throws the format's own error type, so each format keeps
// its error contract (SnapshotRejected, ContractViolation).
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>

#include "common/check.h"

namespace bohr {

// Images are copied to and from memory with memcpy, so the layout every
// format documents (little-endian) is the host's.
static_assert(std::endian::native == std::endian::little,
              "byte images assume a little-endian host");

/// Appends fixed-width fields to a byte image.
class ByteWriter {
 public:
  void raw(std::string_view bytes) { bytes_.append(bytes); }
  void u8(std::uint8_t v) { fixed(v); }
  void u32(std::uint32_t v) { fixed(v); }
  void u64(std::uint64_t v) { fixed(v); }
  void f64(double v) { fixed(std::bit_cast<std::uint64_t>(v)); }
  /// A `Len`-wide length (u32 or u64), then the bytes: strings and
  /// embedded sub-images.
  template <typename Len>
  void str(std::string_view s) {
    BOHR_EXPECTS(s.size() <= std::numeric_limits<Len>::max());
    fixed(static_cast<Len>(s.size()));
    raw(s);
  }

  std::size_t size() const { return bytes_.size(); }
  std::string take() { return std::move(bytes_); }

 private:
  template <typename T>
  void fixed(T v) {
    bytes_.append(reinterpret_cast<const char*>(&v), sizeof(v));
  }

  std::string bytes_;
};

/// Reads fields back from an untrusted image; any read the image cannot
/// back throws `Error` (constructed from a message naming the image).
template <typename Error>
class ByteReader {
 public:
  /// `what` names the image in error messages; it must outlive the reader.
  ByteReader(std::string_view image, std::string_view what)
      : rest_(image), what_(what) {}

  [[noreturn]] void fail(std::string_view why) const {
    throw Error(std::string(what_) + ": " + std::string(why));
  }

  /// The next `n` bytes as a sub-image of the input.
  std::string_view bytes(std::uint64_t n) {
    if (n > rest_.size()) fail("truncated");
    const std::string_view out = rest_.substr(0, static_cast<std::size_t>(n));
    rest_.remove_prefix(out.size());
    return out;
  }
  std::uint8_t u8() { return fixed<std::uint8_t>(); }
  std::uint32_t u32() { return fixed<std::uint32_t>(); }
  std::uint64_t u64() { return fixed<std::uint64_t>(); }
  double f64() { return std::bit_cast<double>(u64()); }

  /// Reads an element count stored as a `Width` (u32 or u64) and rejects
  /// it unless the bytes left could hold that many elements of at least
  /// `min_element_bytes` each.
  template <typename Width>
  std::size_t count(std::size_t min_element_bytes) {
    BOHR_EXPECTS(min_element_bytes > 0);
    const Width n = fixed<Width>();
    if (n > rest_.size() / min_element_bytes) {
      fail("count " + std::to_string(n) + " exceeds the bytes left");
    }
    return static_cast<std::size_t>(n);
  }
  /// A string written by ByteWriter::str<Len>.
  template <typename Len>
  std::string str() {
    return std::string(bytes(fixed<Len>()));
  }
  /// Reads `tag.size()` bytes and rejects the image unless they equal it.
  void magic(std::string_view tag) {
    if (bytes(tag.size()) != tag) fail("bad magic");
  }

  std::size_t remaining() const { return rest_.size(); }
  void expect_end() const {
    if (!rest_.empty()) fail("trailing bytes");
  }

 private:
  template <typename T>
  T fixed() {
    T v{};
    std::memcpy(&v, bytes(sizeof(T)).data(), sizeof(T));
    return v;
  }

  std::string_view rest_;
  std::string_view what_;
};

/// Commits `bytes` to `path` crash-atomically: writes `path + ".tmp"`,
/// flushes and closes it (a short write on a full disk may surface only
/// there), then renames it over `path`. Readers see the old file or the
/// new one, never a torn one. Throws `Error` on any failure and leaves no
/// temp file behind.
template <typename Error>
void write_file_atomically(const std::string& path, std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  if (!out.is_open()) throw Error("cannot create " + tmp);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  out.close();
  std::error_code ec;
  if (!out) {
    std::filesystem::remove(tmp, ec);
    throw Error("write failed for " + tmp);
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    const std::string why = ec.message();
    std::filesystem::remove(tmp, ec);
    throw Error("rename failed for " + path + ": " + why);
  }
}

/// The whole content of the file at `path`; throws `Error` when it cannot
/// be opened or read.
template <typename Error>
std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) throw Error("cannot open " + path);
  // Streaming the buffer (unlike iterating it) turns a failing read, such
  // as a directory's, into a stream state instead of an exception.
  std::ostringstream bytes;
  bytes << in.rdbuf();
  if (in.bad()) throw Error("read failed for " + path);
  return std::move(bytes).str();
}

}  // namespace bohr
