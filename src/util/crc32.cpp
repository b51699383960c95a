#include "util/crc32.hpp"

#include <array>

namespace fsdl {

namespace {

constexpr std::uint32_t kPoly = 0xEDB88320u;  // reflected IEEE 802.3

using Table = std::array<std::uint32_t, 256>;

/// kTables[0] is the classic bytewise table. kTables[k][b] is the CRC
/// register after byte b followed by k zero bytes, so eight bytes fold in
/// with eight independent lookups (slicing-by-8).
constexpr std::array<Table, 8> make_tables() {
  std::array<Table, 8> t{};
  for (std::uint32_t b = 0; b < 256; ++b) {
    std::uint32_t c = b;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? (c >> 1) ^ kPoly : c >> 1;
    }
    t[0][b] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t b = 0; b < 256; ++b) {
      t[k][b] = (t[k - 1][b] >> 8) ^ t[0][t[k - 1][b] & 0xFFu];
    }
  }
  return t;
}

constexpr auto kTables = make_tables();

/// Little-endian u32 at p, whatever the host byte order.
inline std::uint32_t load_le32(const std::uint8_t* p) noexcept {
  return std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 |
         std::uint32_t{p[2]} << 16 | std::uint32_t{p[3]} << 24;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t seed) noexcept {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint32_t c = ~seed;
  for (; size >= 8; p += 8, size -= 8) {
    const std::uint32_t lo = load_le32(p) ^ c;
    const std::uint32_t hi = load_le32(p + 4);
    c = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
        kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
        kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
        kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
  for (; size > 0; ++p, --size) {
    c = kTables[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return ~c;
}

}  // namespace fsdl
