// Copyright 2026 The rvar Authors.
//
// CRC-32 (IEEE 802.3 polynomial, reflected) for on-disk record integrity.
// Every snapshot and WAL record carries the CRC of its payload so torn
// writes and bit rot are detected record-by-record rather than poisoning
// the whole file. Table-driven (slicing-by-8), incremental (a running CRC
// can be extended chunk by chunk), and stable across platforms.

#ifndef RVAR_IO_CRC32_H_
#define RVAR_IO_CRC32_H_

#include <cstdint>
#include <string_view>

namespace rvar {
namespace io {

/// CRC-32 of `bytes`, continuing from `seed` (pass a previous result to
/// checksum data delivered in chunks; the default starts a fresh CRC).
uint32_t Crc32(std::string_view bytes, uint32_t seed = 0);

/// Masked CRC in the LevelDB/RocksDB style: storing a raw CRC of data that
/// itself embeds CRCs makes accidental fixed points more likely, so stored
/// checksums are rotated and offset.
uint32_t MaskCrc32(uint32_t crc);
uint32_t UnmaskCrc32(uint32_t masked);

}  // namespace io
}  // namespace rvar

#endif  // RVAR_IO_CRC32_H_
