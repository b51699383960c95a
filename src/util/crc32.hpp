// CRC-32 (IEEE 802.3, polynomial 0xEDB88320, reflected) — the integrity
// check behind both corruption-proof layers of the serving stack:
//
//   * every wire frame carries crc32(payload) in its header, so a bit flip
//     anywhere between client and server is detected instead of silently
//     answering a different question (see server/protocol.hpp);
//   * the FSDL label file format (v2) appends crc32(body) so a corrupted
//     label table is rejected at load rather than decoded into garbage
//     distances (see core/serialize.hpp).
//
// Slicing-by-8: eight constexpr 1 KiB tables fold in eight bytes per step
// with independent lookups, and a bytewise loop takes the tail. Same
// polynomial, same reflection, same initial and final XOR as the classic
// one-table loop, so every value is identical to it (and to zlib.crc32):
// frames and label files are byte-for-byte unchanged. Incremental use:
// seed the next call with the previous return value.
#pragma once

#include <cstddef>
#include <cstdint>

namespace fsdl {

/// CRC-32 of `size` bytes at `data`. Pass the previous return value as
/// `seed` to continue a running checksum across chunks; the default seed
/// starts a fresh one. crc32(p, 0, s) == s for all s.
std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t seed = 0) noexcept;

}  // namespace fsdl
