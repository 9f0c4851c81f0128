#include "common/binary_io.h"

#include <array>

namespace scprt {

namespace {

// Slicing-by-8 tables: kCrcTables[0] is the byte-at-a-time table, and
// kCrcTables[k][b] is the CRC of byte b followed by k zero bytes, so eight
// lookups fold eight input bytes at once.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables BuildCrcTables() {
  CrcTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t c = tables[k - 1][i];
      tables[k][i] = (c >> 8) ^ tables[0][c & 0xFFu];
    }
  }
  return tables;
}

constexpr CrcTables kCrcTables = BuildCrcTables();

}  // namespace

std::uint32_t Crc32(std::string_view data) {
  const auto& t = kCrcTables;
  std::uint32_t crc = 0xFFFFFFFFu;
  const char* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; n -= 8, p += 8) {
    const std::uint32_t lo = LoadU32(p) ^ crc;
    const std::uint32_t hi = LoadU32(p + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) {
    crc = t[0][(crc ^ static_cast<std::uint8_t>(*p)) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace scprt
