#include "common/checksum.hpp"

#include <array>
#include <bit>
#include <cstring>

namespace gapart {

namespace {

static_assert(std::endian::native == std::endian::little,
              "the sliced CRC reads its 8-byte blocks as little-endian words");

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

// tables[0] is the bytewise table; tables[j][b] is the CRC register after
// byte b followed by j zero bytes, so eight lookups fold an 8-byte block
// (slicing-by-8).  Built at compile time: no static-init order involved.
constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) != 0 ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t j = 1; j < t.size(); ++j) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[j][i] = t[0][t[j - 1][i] & 0xffu] ^ (t[j - 1][i] >> 8);
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

}  // namespace

std::uint32_t crc32(const void* data, std::size_t len, std::uint32_t seed) {
  const auto& t = kCrcTables;
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xffffffffu;
  for (; len >= 8; p += 8, len -= 8) {
    std::uint32_t lo = 0;
    std::uint32_t hi = 0;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= c;
    c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
        t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
        t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  for (; len > 0; ++p, --len) c = t[0][(c ^ *p) & 0xffu] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

}  // namespace gapart
