/**
 * @file
 * Bit-granular writer and reader over a byte buffer.
 *
 * The codec's entropy coders and the storage layer both operate on bit
 * positions inside encoded streams; these classes are the single place
 * where bit order is defined. Bit 0 of a stream is the most significant
 * bit of byte 0, matching the big-endian bit order used by H.264
 * bitstreams.
 */

#ifndef VIDEOAPP_COMMON_BITSTREAM_H_
#define VIDEOAPP_COMMON_BITSTREAM_H_

#include <cassert>
#include <cstddef>
#include <span>

#include "common/types.h"

namespace videoapp {

/**
 * Append-only bit writer. Bits are packed MSB-first into a growing byte
 * vector.
 */
class BitWriter
{
  public:
    BitWriter() = default;

    /** Append the @p count low-order bits of @p value, MSB first. */
    void
    writeBits(u32 value, int count)
    {
        assert(count >= 0 && count <= 32);
        for (int i = count - 1; i >= 0; --i)
            writeBit((value >> i) & 1u);
    }

    /** Append a single bit (0 or 1). */
    void
    writeBit(u32 bit)
    {
        if (bitPos_ == 0)
            buf_.push_back(0);
        if (bit)
            buf_.back() |= static_cast<u8>(0x80u >> bitPos_);
        bitPos_ = (bitPos_ + 1) & 7;
    }

    /** Pad with zero bits up to the next byte boundary. */
    void
    alignToByte()
    {
        bitPos_ = 0;
    }

    /** Number of bits written so far. */
    std::size_t
    bitCount() const
    {
        return bitPos_ == 0 ? buf_.size() * 8
                            : (buf_.size() - 1) * 8 + bitPos_;
    }

    /** Steal the accumulated bytes; the writer is reset. */
    Bytes
    take()
    {
        bitPos_ = 0;
        Bytes out;
        out.swap(buf_);
        return out;
    }

    const Bytes &bytes() const { return buf_; }

  private:
    Bytes buf_;
    int bitPos_ = 0;
};

/**
 * Bounded bit reader. Reading past the end is well defined and returns
 * zero bits: a decoder driven by a corrupted stream must never fault,
 * only produce bounded garbage (DESIGN.md, decoder robustness).
 */
class BitReader
{
  public:
    explicit BitReader(const Bytes &bytes)
        : buf_(&bytes), pos_(0)
    {}

    BitReader(const Bytes &bytes, std::size_t start_bit)
        : buf_(&bytes), pos_(start_bit)
    {}

    /** Read one bit; returns 0 past the end of the buffer. */
    u32
    readBit()
    {
        std::size_t byte = pos_ >> 3;
        if (byte >= buf_->size()) {
            ++pos_;
            return 0;
        }
        u32 bit = ((*buf_)[byte] >> (7 - (pos_ & 7))) & 1u;
        ++pos_;
        return bit;
    }

    /** Read @p count bits MSB-first into the low bits of the result. */
    u32
    readBits(int count)
    {
        assert(count >= 0 && count <= 32);
        u32 v = 0;
        for (int i = 0; i < count; ++i)
            v = (v << 1) | readBit();
        return v;
    }

    /** Skip to the next byte boundary. */
    void
    alignToByte()
    {
        pos_ = (pos_ + 7) & ~std::size_t{7};
    }

    /** True once the read position moved past the last byte. */
    bool exhausted() const { return pos_ >= buf_->size() * 8; }

    std::size_t position() const { return pos_; }
    std::size_t sizeBits() const { return buf_->size() * 8; }

  private:
    const Bytes *buf_;
    std::size_t pos_;
};

/** Flip the bit at @p pos inside @p bytes. Out-of-range is a no-op. */
void flipBit(Bytes &bytes, BitPos pos);

/** Read the bit at @p pos (0 if out of range). */
u32 getBit(const Bytes &bytes, BitPos pos);

/**
 * Copy @p count bits starting at bit @p src_bit of @p src to bit
 * @p dst_bit of @p dst, overwriting what was there and leaving the
 * bits around the range untouched. Source bits at or past the end of
 * @p src read as 0, as BitReader reads them. Works a 64-bit word at a
 * time once the destination is byte-aligned; the partition layer's
 * split and merge both go through it.
 * @pre dst holds at least dst_bit + count bits.
 */
void copyBits(std::span<u8> dst, u64 dst_bit, std::span<const u8> src,
              u64 src_bit, u64 count);

} // namespace videoapp

#endif // VIDEOAPP_COMMON_BITSTREAM_H_
