/**
 * @file
 * Group-of-pictures planning: frame types, display/encode order, and
 * reference assignment (Section 2.3.1). Includes the Section 8
 * encoder knobs: number of B-frames between anchors and whether
 * B-frames may be used as references (unreferenced frames are dead
 * ends for error propagation, which polarises importance).
 */

#ifndef VIDEOAPP_CODEC_GOP_H_
#define VIDEOAPP_CODEC_GOP_H_

#include <limits>
#include <vector>

#include "codec/types.h"

namespace videoapp {

/** GOP shape configuration. */
struct GopConfig
{
    /** Distance between I-frames in display order. */
    int gopSize = 48;
    /** Consecutive B-frames between anchors (0 = IPPP...). */
    int bFrames = 2;
    /** May B-frames be referenced by other B-frames? */
    bool bRefs = false;
};

/** One frame's plan, produced in encode order. */
struct FramePlan
{
    int displayIdx = 0;
    FrameType type = FrameType::I;
    /**
     * References as indices into the encode-order sequence
     * (-1 = none). P uses ref0; B uses ref0 (past) and ref1
     * (future in display order).
     */
    int ref0 = -1;
    int ref1 = -1;
    /** Will any later frame reference this one? */
    bool isReference = true;
};

/**
 * Plan @p frame_count frames under @p config. The result is in
 * encode order; every frame's references appear earlier in the
 * list (the property that makes the compensation graph a DAG).
 */
std::vector<FramePlan> planGop(int frame_count,
                               const GopConfig &config);

struct FrameHeader;

/** A run of display-order frames: one GOP, or any range a read asks
 * for. */
struct GopRange
{
    u32 firstFrame = 0;
    u32 frameCount = 0;
};

/** The range that covers every frame of any video. */
inline constexpr GopRange kAllFrames{0, std::numeric_limits<u32>::max()};

/**
 * I-frame-delimited GOP ranges of a video, computed from its precise
 * frame headers (display order; a leading non-I prefix folds into
 * the first GOP). Never empty for a non-empty video. The archive's
 * ranged read and the server's GOP numbering both use this one
 * boundary.
 */
std::vector<GopRange> gopRanges(const std::vector<FrameHeader> &headers,
                                std::size_t frame_count);

/**
 * The reference closure of display frames @p range: one flag per
 * frame in encode order (headers.size() flags), set for every frame
 * whose display index lies in the range and, transitively, for every
 * frame those reference through ref0/ref1 — the frames a decoder must
 * reconstruct to output the range bit-exactly. Under the default
 * open GOP the B-frames that close a GOP reference the next GOP's
 * I-frame, so a GOP's closure is its own frames plus that I-frame.
 * A range that covers all @p frame_count display frames needs every
 * frame, whatever its header says, so the whole-video decode is the
 * full-range case of the same path.
 */
std::vector<u8> referenceClosure(const std::vector<FrameHeader> &headers,
                                 std::size_t frame_count, GopRange range);

} // namespace videoapp

#endif // VIDEOAPP_CODEC_GOP_H_
