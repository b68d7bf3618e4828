#include "common/bitstream.h"

#include <algorithm>
#include <cstring>

namespace videoapp {

namespace {

/** The 64 bits of @p src starting at bit @p bit, MSB first; bits
 * past the end of @p src read as 0. */
u64
loadBits64(std::span<const u8> src, u64 bit)
{
    const u64 byte = bit >> 3;
    const unsigned shift = static_cast<unsigned>(bit & 7);
    u8 window[9] = {};
    if (byte + sizeof window <= src.size())
        std::memcpy(window, src.data() + byte, sizeof window);
    else if (byte < src.size())
        std::memcpy(window, src.data() + byte, src.size() - byte);
    u64 word = 0;
    for (int i = 0; i < 8; ++i)
        word = (word << 8) | window[i];
    if (shift != 0)
        word = (word << shift) | (window[8] >> (8 - shift));
    return word;
}

} // namespace

void
flipBit(Bytes &bytes, BitPos pos)
{
    std::size_t byte = pos >> 3;
    if (byte >= bytes.size())
        return;
    bytes[byte] ^= static_cast<u8>(0x80u >> (pos & 7));
}

u32
getBit(const Bytes &bytes, BitPos pos)
{
    std::size_t byte = pos >> 3;
    if (byte >= bytes.size())
        return 0;
    return (bytes[byte] >> (7 - (pos & 7))) & 1u;
}

void
copyBits(std::span<u8> dst, u64 dst_bit, std::span<const u8> src,
         u64 src_bit, u64 count)
{
    assert(dst_bit + count <= dst.size() * 8);
    while (count > 0) {
        const unsigned offset = static_cast<unsigned>(dst_bit & 7);
        u8 *out = dst.data() + (dst_bit >> 3);
        if (offset == 0 && count >= 64) {
            const u64 word = loadBits64(src, src_bit);
            for (int i = 0; i < 8; ++i)
                out[i] = static_cast<u8>(word >> (56 - 8 * i));
            dst_bit += 64;
            src_bit += 64;
            count -= 64;
            continue;
        }
        // A partial byte: the unaligned head or the tail.
        const unsigned n =
            static_cast<unsigned>(std::min<u64>(count, 8 - offset));
        const unsigned low = 8 - offset - n;
        const unsigned bits =
            static_cast<unsigned>(loadBits64(src, src_bit) >> (64 - n));
        const unsigned mask = ((1u << n) - 1) << low;
        *out = static_cast<u8>((*out & ~mask) | (bits << low));
        dst_bit += n;
        src_bit += n;
        count -= n;
    }
}

} // namespace videoapp
