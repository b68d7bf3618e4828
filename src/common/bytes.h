/**
 * @file
 * The byte codec behind every stored and wire format: the codec
 * blob, the VAPP container, the StreamPolicy record, the migration
 * export and every VSRV frame and payload. All integers are
 * big-endian.
 *
 * ByteWriter appends fields. Its u16-prefixed string refuses a value
 * the prefix cannot carry: nothing is written and ok() turns false,
 * so a long name can never be truncated into a blob that will not
 * parse back.
 *
 * ByteReader is total over a (pointer, size) span. Every read is
 * bounds-checked; a read past the end returns 0 (or an empty value)
 * and sets a sticky error bit, after which every read fails the same
 * way. A parser therefore reads its fields in a straight line and
 * checks ok() or exhausted() once. A count that sizes a container
 * goes through boundedCount(), which refuses any count whose elements
 * could not fit in the bytes left, so neither a hostile count nor one
 * read after an error can drive a long loop or a large allocation.
 */

#ifndef VIDEOAPP_COMMON_BYTES_H_
#define VIDEOAPP_COMMON_BYTES_H_

#include <bit>
#include <span>
#include <string>
#include <string_view>

#include "common/types.h"

namespace videoapp {

/** Append-only big-endian field writer. */
class ByteWriter
{
  public:
    ByteWriter() = default;
    /** Start with room for @p reserve bytes, so a blob of known size
     * grows once. */
    explicit ByteWriter(std::size_t reserve) { out_.reserve(reserve); }

    void putU8(u8 v) { out_.push_back(v); }
    void putU16(u16 v) { putBe(v, 2); }
    void putU32(u32 v) { putBe(v, 4); }
    void putU64(u64 v) { putBe(v, 8); }
    /** IEEE double carried as its u64 bit pattern. */
    void putF64(double v) { putU64(std::bit_cast<u64>(v)); }
    /** Raw bytes, no length prefix. */
    void
    putRaw(std::span<const u8> bytes)
    {
        out_.insert(out_.end(), bytes.begin(), bytes.end());
    }

    /** u16 length + bytes; refused (ok() false) beyond 65,535. */
    void
    putString16(std::string_view s)
    {
        if (s.size() > 0xFFFF) {
            ok_ = false;
            return;
        }
        putU16(static_cast<u16>(s.size()));
        putChars(s);
    }

    /** u32 length + bytes. */
    void
    putString32(std::string_view s)
    {
        putU32(static_cast<u32>(s.size()));
        putChars(s);
    }

    void
    putBlob32(std::span<const u8> blob)
    {
        putU32(static_cast<u32>(blob.size()));
        putRaw(blob);
    }

    /** False once a field was refused. */
    bool ok() const { return ok_; }
    std::size_t size() const { return out_.size(); }
    const Bytes &bytes() const { return out_; }
    Bytes take() { return std::move(out_); }

  private:
    void
    putChars(std::string_view s)
    {
        putRaw({reinterpret_cast<const u8 *>(s.data()), s.size()});
    }

    void
    putBe(u64 v, int width)
    {
        for (int shift = 8 * (width - 1); shift >= 0; shift -= 8)
            out_.push_back(static_cast<u8>(v >> shift));
    }

    Bytes out_;
    bool ok_ = true;
};

/** Total big-endian field reader with a sticky error bit. */
class ByteReader
{
  public:
    ByteReader(const u8 *data, std::size_t size)
        : data_(data), size_(size)
    {}
    explicit ByteReader(std::span<const u8> bytes)
        : ByteReader(bytes.data(), bytes.size())
    {}

    u8 getU8() { return static_cast<u8>(getBe(1)); }
    u16 getU16() { return static_cast<u16>(getBe(2)); }
    u32 getU32() { return static_cast<u32>(getBe(4)); }
    u64 getU64() { return getBe(8); }
    double getF64() { return std::bit_cast<double>(getU64()); }

    /** The next @p n bytes in place (empty on failure). */
    std::span<const u8>
    getRaw(u64 n)
    {
        if (n > remaining()) {
            ok_ = false;
            return {};
        }
        std::span<const u8> out(data_ + pos_,
                                static_cast<std::size_t>(n));
        pos_ += out.size();
        return out;
    }

    std::string getString16() { return stringOf(getRaw(getU16())); }
    std::string getString32() { return stringOf(getRaw(getU32())); }

    Bytes
    getBlob32()
    {
        std::span<const u8> blob = getRaw(getU32());
        return Bytes(blob.begin(), blob.end());
    }

    /**
     * @p count, when that many elements of at least
     * @p min_element_bytes each fit in what is left; otherwise 0 and
     * the error bit (also 0 once the reader has failed).
     */
    std::size_t
    boundedCount(u64 count, std::size_t min_element_bytes)
    {
        if (count > remaining() / min_element_bytes) {
            ok_ = false;
            return 0;
        }
        return static_cast<std::size_t>(count);
    }

    bool ok() const { return ok_; }
    /** Every byte consumed, without error. */
    bool exhausted() const { return ok_ && pos_ == size_; }
    /** Bytes not yet consumed (0 once the reader has failed). */
    std::size_t remaining() const { return ok_ ? size_ - pos_ : 0; }
    std::size_t pos() const { return pos_; }

  private:
    u64
    getBe(std::size_t width)
    {
        if (width > remaining()) {
            ok_ = false;
            return 0;
        }
        u64 v = 0;
        for (std::size_t i = 0; i < width; ++i)
            v = v << 8 | data_[pos_ + i];
        pos_ += width;
        return v;
    }

    static std::string
    stringOf(std::span<const u8> bytes)
    {
        return std::string(bytes.begin(), bytes.end());
    }

    const u8 *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
    bool ok_ = true;
};

} // namespace videoapp

#endif // VIDEOAPP_COMMON_BYTES_H_
