// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) for on-disk
// integrity checks: checkpoint manifests and the files they list.
//
// Header-only with a constexpr-generated table so the checksum is
// available to every layer without a link dependency. The incremental
// interface lets callers checksum data as it streams through without
// buffering it twice.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace bohr {

namespace detail {

constexpr std::array<std::uint32_t, 256> make_crc32_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
    }
    table[i] = crc;
  }
  return table;
}

inline constexpr std::array<std::uint32_t, 256> kCrc32Table =
    make_crc32_table();

}  // namespace detail

/// Incremental CRC-32. Feed bytes with update(), read the digest with
/// value(); a default-constructed instance over no bytes yields 0.
class Crc32 {
 public:
  void update(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    std::uint32_t crc = state_;
    for (std::size_t i = 0; i < size; ++i) {
      crc = (crc >> 8) ^ detail::kCrc32Table[(crc ^ bytes[i]) & 0xFFu];
    }
    state_ = crc;
  }
  void update(std::string_view bytes) { update(bytes.data(), bytes.size()); }

  std::uint32_t value() const { return state_ ^ 0xFFFFFFFFu; }

 private:
  std::uint32_t state_ = 0xFFFFFFFFu;
};

/// One-shot CRC-32 of a byte range.
inline std::uint32_t crc32(const void* data, std::size_t size) {
  Crc32 crc;
  crc.update(data, size);
  return crc.value();
}

inline std::uint32_t crc32(std::string_view bytes) {
  return crc32(bytes.data(), bytes.size());
}

}  // namespace bohr
