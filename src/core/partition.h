/**
 * @file
 * Pivot derivation and stream partitioning (Sections 4.4 and 5.3).
 *
 * assignPivots() turns per-MB importance plus an ECC assignment into
 * the per-frame pivot tables of Figure 6 (stored in the precise
 * frame headers). extractStreams() then splits the payload into one
 * stream per ECC level using ONLY the pivots — exactly the
 * information a real storage system would have — and mergeStreams()
 * reassembles payloads from (possibly corrupted) streams the same
 * way.
 */

#ifndef VIDEOAPP_CORE_PARTITION_H_
#define VIDEOAPP_CORE_PARTITION_H_

#include <map>

#include "codec/encoder.h"
#include "core/ecc_assign.h"
#include "graph/importance.h"

namespace videoapp {

/**
 * Fill every frame header's pivot table from the importance map and
 * the assignment. Within a slice the importance order is monotone,
 * so at most one pivot per scheme appears per slice; the code
 * nevertheless emits a pivot at every scheme change, so it stays
 * correct even for hand-crafted non-monotone inputs.
 */
void assignPivots(EncodedVideo &video, const EncodeSideInfo &side,
                  const ImportanceMap &importance,
                  const EccAssignment &assignment);

/** One reliability-partitioned stream per ECC level. */
struct StreamSet
{
    /** Keyed by scheme t (0 = unprotected). Byte-padded payloads. */
    std::map<int, Bytes> data;
    /** Exact bit length of each stream (without byte padding). */
    std::map<int, u64> bitLength;
};

/** Split payload bits into streams according to the pivot tables. */
StreamSet extractStreams(const EncodedVideo &video);

/**
 * Rebuild per-frame payloads from @p streams using @p layout's pivot
 * tables (the inverse of extractStreams, tolerant of corrupted
 * stream contents — only lengths matter for placement). A stream
 * missing from @p streams, or shorter than the pivots say, reads as
 * zeros. Only the payloads of @p range's reference closure
 * (referenceClosure in codec/gop.h) are filled: the other frames'
 * segments are skipped, and their payloads come back empty, so the
 * result is for decodeFrames over the same range. The default range
 * fills every frame.
 */
EncodedVideo mergeStreams(const EncodedVideo &layout,
                          const StreamSet &streams,
                          GopRange range = kAllFrames);

} // namespace videoapp

#endif // VIDEOAPP_CORE_PARTITION_H_
