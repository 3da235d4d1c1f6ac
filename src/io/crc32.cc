#include "io/crc32.h"

#include <array>

namespace rvar {
namespace io {
namespace {

// Reflected CRC-32 (polynomial 0xEDB88320), the zlib/IEEE variant.
constexpr uint32_t kPolynomial = 0xEDB88320u;

// Slicing-by-8 tables: tables[0] is the classic byte-at-a-time table and
// tables[k][i] is the CRC of byte i followed by k zero bytes, so eight
// input bytes fold into the CRC with eight independent lookups.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

CrcTables BuildTables() {
  CrcTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (kPolynomial ^ (c >> 1)) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < tables.size(); ++k) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

const CrcTables& Tables() {
  static const CrcTables tables = BuildTables();
  return tables;
}

uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

constexpr uint32_t kMaskDelta = 0xA282EAD8u;

}  // namespace

uint32_t Crc32(std::string_view bytes, uint32_t seed) {
  const CrcTables& t = Tables();
  uint32_t c = seed ^ 0xFFFFFFFFu;
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  size_t n = bytes.size();
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = c ^ LoadLe32(p);
    const uint32_t hi = LoadLe32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

uint32_t MaskCrc32(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + kMaskDelta;
}

uint32_t UnmaskCrc32(uint32_t masked) {
  const uint32_t rot = masked - kMaskDelta;
  return (rot << 15) | (rot >> 17);
}

}  // namespace io
}  // namespace rvar
