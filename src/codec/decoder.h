/**
 * @file
 * The video decoder.
 *
 * Robustness contract (DESIGN.md): any payload bytes — including
 * arbitrarily corrupted ones — decode without crashing, producing a
 * full-length video whose damaged regions reflect the corruption.
 * Entropy state is confined to a slice, so decoding resynchronises
 * at the next slice boundary (located via the precise headers),
 * matching the paper's per-frame context reset (Section 3).
 */

#ifndef VIDEOAPP_CODEC_DECODER_H_
#define VIDEOAPP_CODEC_DECODER_H_

#include "codec/container.h"
#include "video/frame.h"

namespace videoapp {

/** Decoder behaviour switches and statistics. */
struct DecodeOptions
{
    /**
     * Error concealment: when the entropy decoder overruns its
     * slice window (a desync signal), stop parsing and conceal the
     * remaining MBs of the slice by copying co-located pixels from
     * the reference frame — the strategy production decoders use
     * for error-prone channels.
     */
    bool concealErrors = false;
};

/** Filled by decodeVideo when a stats object is supplied. */
struct DecodeStats
{
    u64 concealedMbs = 0;
    u64 totalMbs = 0;
};

/** Display frames a decode of @p coded yields: header.frameCount, or
 * 0 when the frame size is not a positive multiple of 16. */
std::size_t decodedFrameCount(const EncodedVideo &coded);

/**
 * Decode @p coded into display order.
 * @return a video with header.frameCount frames; corrupted payloads
 *         yield damaged but structurally complete frames.
 */
Video decodeVideo(const EncodedVideo &coded,
                  const DecodeOptions &options = {},
                  DecodeStats *stats = nullptr);

/**
 * Decode display frames @p range of @p coded (clamped to the video),
 * reconstructing only their reference closure (referenceClosure in
 * codec/gop.h). The result holds exactly the range's frames, each
 * bit-identical to the same frame of decodeVideo — corrupted
 * payloads and concealment included, since a frame's decode depends
 * on nothing but its payload and its references. Payloads of frames
 * outside the closure are never read, so a ranged mergeStreams
 * output decodes here. decodeVideo is the full range.
 */
Video decodeFrames(const EncodedVideo &coded, GopRange range,
                   const DecodeOptions &options = {},
                   DecodeStats *stats = nullptr);

} // namespace videoapp

#endif // VIDEOAPP_CODEC_DECODER_H_
