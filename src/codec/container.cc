#include "codec/container.h"

#include "common/bytes.h"

namespace videoapp {

namespace {

constexpr u32 kMagic = 0x56415031; // "VAP1"

/** Smallest encodings: a frame header with no slices or pivots, one
 * slice record, one pivot and one payload length. */
constexpr std::size_t kFrameHeaderMinBytes = 15;
constexpr std::size_t kSliceBytes = 16;
constexpr std::size_t kPivotBytes = 9;
constexpr std::size_t kPayloadLengthBytes = 8;

void
writeFrameHeader(ByteWriter &out, const FrameHeader &fh)
{
    out.putU16(fh.displayIdx);
    out.putU8(static_cast<u8>(fh.type));
    out.putU8(fh.qpBase);
    out.putU32(static_cast<u32>(fh.ref0));
    out.putU32(static_cast<u32>(fh.ref1));
    out.putU8(static_cast<u8>(fh.slices.size()));
    for (const auto &s : fh.slices) {
        out.putU32(s.firstMb);
        out.putU32(s.mbCount);
        out.putU32(s.byteOffset);
        out.putU32(s.byteLength);
    }
    out.putU16(static_cast<u16>(fh.pivots.size()));
    for (const auto &p : fh.pivots) {
        out.putU64(p.bitOffset);
        out.putU8(p.schemeT);
    }
}

void
readFrameHeader(ByteReader &in, FrameHeader &fh)
{
    fh.displayIdx = in.getU16();
    fh.type = static_cast<FrameType>(in.getU8());
    fh.qpBase = in.getU8();
    fh.ref0 = static_cast<i32>(in.getU32());
    fh.ref1 = static_cast<i32>(in.getU32());
    fh.slices.resize(in.boundedCount(in.getU8(), kSliceBytes));
    for (auto &s : fh.slices) {
        s.firstMb = in.getU32();
        s.mbCount = in.getU32();
        s.byteOffset = in.getU32();
        s.byteLength = in.getU32();
    }
    fh.pivots.resize(in.boundedCount(in.getU16(), kPivotBytes));
    for (auto &p : fh.pivots) {
        p.bitOffset = in.getU64();
        p.schemeT = in.getU8();
    }
}

void
writeHeaders(ByteWriter &out, const EncodedVideo &video)
{
    out.putU32(kMagic);
    out.putU16(video.header.width);
    out.putU16(video.header.height);
    // fps as fixed-point 16.16.
    out.putU32(static_cast<u32>(video.header.fps * 65536.0));
    out.putU8(static_cast<u8>(video.header.entropy));
    out.putU16(video.header.frameCount);
    out.putU8(video.header.slicesPerFrame);
    out.putU8(video.header.flags);
    out.putU16(static_cast<u16>(video.frameHeaders.size()));
    for (const auto &fh : video.frameHeaders)
        writeFrameHeader(out, fh);
}

/** Parse the serializeHeaders() section at @p in. */
bool
readHeaders(ByteReader &in, EncodedVideo &video)
{
    if (in.getU32() != kMagic)
        return false;
    video.header.width = in.getU16();
    video.header.height = in.getU16();
    video.header.fps = in.getU32() / 65536.0;
    video.header.entropy = static_cast<EntropyKind>(in.getU8());
    video.header.frameCount = in.getU16();
    video.header.slicesPerFrame = in.getU8();
    video.header.flags = in.getU8();
    video.frameHeaders.resize(
        in.boundedCount(in.getU16(), kFrameHeaderMinBytes));
    for (auto &fh : video.frameHeaders)
        readFrameHeader(in, fh);
    return in.ok();
}

} // namespace

u64
EncodedVideo::payloadBits() const
{
    u64 total = 0;
    for (const auto &p : payloads)
        total += p.size() * 8;
    return total;
}

u64
EncodedVideo::headerBits() const
{
    return serializeHeaders(*this).size() * 8;
}

Bytes
serializeHeaders(const EncodedVideo &video)
{
    ByteWriter out;
    writeHeaders(out, video);
    return out.take();
}

Bytes
serialize(const EncodedVideo &video)
{
    ByteWriter out;
    writeHeaders(out, video);
    out.putU16(static_cast<u16>(video.payloads.size()));
    for (const auto &p : video.payloads) {
        out.putU64(p.size());
        out.putRaw(p);
    }
    return out.take();
}

std::optional<EncodedVideo>
deserializeHeaders(std::span<const u8> blob)
{
    ByteReader in(blob);
    EncodedVideo video;
    if (!readHeaders(in, video))
        return std::nullopt;
    return video;
}

std::optional<EncodedVideo>
deserialize(std::span<const u8> blob)
{
    ByteReader in(blob);
    EncodedVideo video;
    if (!readHeaders(in, video))
        return std::nullopt;
    video.payloads.resize(
        in.boundedCount(in.getU16(), kPayloadLengthBytes));
    for (auto &p : video.payloads) {
        std::span<const u8> bytes = in.getRaw(in.getU64());
        p.assign(bytes.begin(), bytes.end());
    }
    if (!in.ok())
        return std::nullopt;
    return video;
}

} // namespace videoapp
