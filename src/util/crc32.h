/**
 * @file
 * CRC-32 (ISO-HDLC, polynomial 0xEDB88320) over byte ranges — the
 * frame checksum of the tiered store's segment records and sidecar.
 * Table-driven, one byte per step.
 */
#ifndef POTLUCK_UTIL_CRC32_H
#define POTLUCK_UTIL_CRC32_H

#include <cstddef>
#include <cstdint>

namespace potluck {

/**
 * CRC-32 of `n` bytes starting at `data`.
 * @param seed  chain value from a previous call (0 for a fresh CRC)
 */
uint32_t crc32(const void *data, size_t n, uint32_t seed = 0);

} // namespace potluck

#endif // POTLUCK_UTIL_CRC32_H
