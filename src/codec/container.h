/**
 * @file
 * The coded-video container: stream header, per-frame headers with
 * slice records and error-correction pivots, and the per-frame MB
 * payloads.
 *
 * The split mirrors the paper's storage model (Section 4.4): frame
 * headers — including the pivot table — are small, stored precisely
 * (BCH-16 class), and let the decoder locate every slice even when
 * payload bits are corrupted. Payload bytes are the approximate part.
 */

#ifndef VIDEOAPP_CODEC_CONTAINER_H_
#define VIDEOAPP_CODEC_CONTAINER_H_

#include <optional>
#include <span>
#include <vector>

#include "codec/gop.h"
#include "codec/syntax.h"
#include "codec/types.h"
#include "common/types.h"

namespace videoapp {

/** One slice of a frame: a run of MB rows with its payload window. */
struct SliceRecord
{
    u32 firstMb = 0;
    u32 mbCount = 0;
    /** Byte offset of the slice payload within the frame payload. */
    u32 byteOffset = 0;
    u32 byteLength = 0;
};

/**
 * A pivot (Figure 6): from payload bit @p bitOffset onward, the MB
 * payload is protected with scheme BCH-@p schemeT (0 = none). Stored
 * in the precise frame header.
 */
struct PivotRecord
{
    u64 bitOffset = 0;
    u8 schemeT = 0;
};

/** Precisely stored per-frame header. */
struct FrameHeader
{
    u16 displayIdx = 0;
    FrameType type = FrameType::I;
    u8 qpBase = 26;
    /** Encode-order indices of the reference frames (-1 = none). */
    i32 ref0 = -1;
    i32 ref1 = -1;
    std::vector<SliceRecord> slices;
    std::vector<PivotRecord> pivots;
};

/** Precisely stored stream-level header. */
struct StreamHeader
{
    u16 width = 0;
    u16 height = 0;
    double fps = 50.0;
    EntropyKind entropy = EntropyKind::CABAC;
    u16 frameCount = 0;
    u8 slicesPerFrame = 1;
    /** Bit 0: in-loop deblocking enabled. */
    u8 flags = 0;

    bool deblocking() const { return flags & 1; }
};

/** A fully encoded video: headers plus per-frame payload bytes. */
struct EncodedVideo
{
    StreamHeader header;
    /** Frame headers in encode order. */
    std::vector<FrameHeader> frameHeaders;
    /** MB payload per frame, encode order (the approximate bits). */
    std::vector<Bytes> payloads;

    /** Total payload size in bits. */
    u64 payloadBits() const;

    /** Exact serialised size of all precise headers, in bits. */
    u64 headerBits() const;

    int mbWidth() const { return header.width / kMbSize; }
    int mbHeight() const { return header.height / kMbSize; }
    int mbPerFrame() const { return mbWidth() * mbHeight(); }
};

/** Serialise headers + payloads into one self-contained blob. */
Bytes serialize(const EncodedVideo &video);

/** Parse a blob produced by serialize(); nullopt on malformed data. */
std::optional<EncodedVideo> deserialize(std::span<const u8> blob);

/** Serialise only the precise parts (for header-size accounting). */
Bytes serializeHeaders(const EncodedVideo &video);

/**
 * Parse a blob produced by serializeHeaders(): the precise layout
 * with empty payloads. Used by archives, which persist headers and
 * payload placement separately from the approximate payload bits.
 */
std::optional<EncodedVideo> deserializeHeaders(std::span<const u8> blob);

} // namespace videoapp

#endif // VIDEOAPP_CODEC_CONTAINER_H_
