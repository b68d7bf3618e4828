/**
 * @file
 * CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) for the
 * integrity fields of the VAPP archive container. Covers only the
 * precisely stored metadata — approximate payloads are deliberately
 * left unchecksummed, since degrading them is the point. The wire
 * protocol CRCs every frame with it too, so it runs slicing-by-16
 * (16 bytes per table step).
 */

#ifndef VIDEOAPP_COMMON_CRC32_H_
#define VIDEOAPP_COMMON_CRC32_H_

#include <cstddef>

#include "common/types.h"

namespace videoapp {

/** CRC-32 of @p size bytes at @p data (init/final XOR 0xFFFFFFFF). */
u32 crc32(const u8 *data, std::size_t size);

/** Convenience overload over a byte vector. */
u32 crc32(const Bytes &data);

/**
 * Incremental form: continue a CRC over a further chunk. Start with
 * @p crc = 0 and feed chunks in order; equals the one-shot value.
 */
u32 crc32Update(u32 crc, const u8 *data, std::size_t size);

} // namespace videoapp

#endif // VIDEOAPP_COMMON_CRC32_H_
