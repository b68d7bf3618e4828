#include "common/crc32.h"

#include <array>

namespace videoapp {

namespace {

/**
 * Slicing-by-16 tables: t[0] is the classic bytewise table; t[k][b]
 * is the CRC contribution of byte b followed by k zero bytes, so 16
 * input bytes fold into the register with 16 independent lookups.
 */
using CrcTables = std::array<std::array<u32, 256>, 16>;

CrcTables
buildTables()
{
    CrcTables t{};
    for (u32 i = 0; i < 256; ++i) {
        u32 c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (std::size_t k = 1; k < t.size(); ++k)
        for (u32 i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    return t;
}

const CrcTables &
tables()
{
    static const CrcTables t = buildTables();
    return t;
}

/** Little-endian 32-bit load (the reflected CRC consumes the
 * lowest-addressed byte first). */
u32
loadLe32(const u8 *p)
{
    return static_cast<u32>(p[0]) | static_cast<u32>(p[1]) << 8 |
           static_cast<u32>(p[2]) << 16 | static_cast<u32>(p[3]) << 24;
}

} // namespace

u32
crc32Update(u32 crc, const u8 *data, std::size_t size)
{
    const auto &t = tables();
    crc = ~crc;
    for (; size >= 16; data += 16, size -= 16) {
        const u32 w0 = loadLe32(data) ^ crc;
        const u32 w1 = loadLe32(data + 4);
        const u32 w2 = loadLe32(data + 8);
        const u32 w3 = loadLe32(data + 12);
        crc = t[15][w0 & 0xFFu] ^ t[14][(w0 >> 8) & 0xFFu] ^
              t[13][(w0 >> 16) & 0xFFu] ^ t[12][w0 >> 24] ^
              t[11][w1 & 0xFFu] ^ t[10][(w1 >> 8) & 0xFFu] ^
              t[9][(w1 >> 16) & 0xFFu] ^ t[8][w1 >> 24] ^
              t[7][w2 & 0xFFu] ^ t[6][(w2 >> 8) & 0xFFu] ^
              t[5][(w2 >> 16) & 0xFFu] ^ t[4][w2 >> 24] ^
              t[3][w3 & 0xFFu] ^ t[2][(w3 >> 8) & 0xFFu] ^
              t[1][(w3 >> 16) & 0xFFu] ^ t[0][w3 >> 24];
    }
    // Fewer than 16 bytes left: one lookup each.
    for (; size > 0; ++data, --size)
        crc = t[0][(crc ^ *data) & 0xFFu] ^ (crc >> 8);
    return ~crc;
}

u32
crc32(const u8 *data, std::size_t size)
{
    return crc32Update(0, data, size);
}

u32
crc32(const Bytes &data)
{
    return crc32(data.data(), data.size());
}

} // namespace videoapp
