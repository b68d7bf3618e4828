#include "core/partition.h"

#include <algorithm>
#include <array>
#include <cassert>

#include "common/bitstream.h"

namespace videoapp {

void
assignPivots(EncodedVideo &video, const EncodeSideInfo &side,
             const ImportanceMap &importance,
             const EccAssignment &assignment)
{
    assert(video.frameHeaders.size() == side.frames.size());
    const std::size_t mb_per_frame =
        static_cast<std::size_t>(video.mbPerFrame());

    for (std::size_t f = 0; f < video.frameHeaders.size(); ++f) {
        FrameHeader &header = video.frameHeaders[f];
        header.pivots.clear();
        const FrameRecord &frame = side.frames[f];

        int current_t = -1;
        for (const SliceRecord &slice : header.slices) {
            u32 end = std::min<u32>(slice.firstMb + slice.mbCount,
                                    static_cast<u32>(mb_per_frame));
            for (u32 m = slice.firstMb; m < end; ++m) {
                EccScheme scheme = assignment.schemeFor(
                    importance.values[f][m]);
                if (scheme.t != current_t) {
                    header.pivots.push_back(
                        {frame.mbs[m].bitOffset,
                         static_cast<u8>(scheme.t)});
                    current_t = scheme.t;
                }
            }
        }
        // Zero-length frames (or all-skip) still need one pivot so
        // the extraction walk is total.
        if (header.pivots.empty())
            header.pivots.push_back({0, 16});
    }
}

namespace {

/** Pivot scheme ids are one byte, so a scheme-indexed table is
 * 256 wide. */
constexpr int kSchemeCount = 256;

/** Walk a frame's pivot segments as [begin, end) bit ranges. */
template <typename Fn>
void
forEachSegment(const FrameHeader &header, u64 payload_bits, Fn &&fn)
{
    for (std::size_t p = 0; p < header.pivots.size(); ++p) {
        u64 begin = std::min(header.pivots[p].bitOffset, payload_bits);
        u64 end = p + 1 < header.pivots.size()
                      ? std::min(header.pivots[p + 1].bitOffset,
                                 payload_bits)
                      : payload_bits;
        if (end > begin)
            fn(static_cast<int>(header.pivots[p].schemeT), begin,
               end);
    }
}

} // namespace

StreamSet
extractStreams(const EncodedVideo &video)
{
    // Size every stream first, then copy each segment straight to
    // its offset: segments land in frame order, so a stream's bits
    // are its segments concatenated.
    std::array<u64, kSchemeCount> bits{};
    for (std::size_t f = 0; f < video.frameHeaders.size(); ++f)
        forEachSegment(video.frameHeaders[f],
                       video.payloads[f].size() * 8,
                       [&](int t, u64 begin, u64 end) {
                           bits[t] += end - begin;
                       });

    StreamSet out;
    std::array<Bytes *, kSchemeCount> streams{};
    for (int t = 0; t < kSchemeCount; ++t) {
        if (bits[t] == 0)
            continue;
        out.bitLength[t] = bits[t];
        streams[t] = &out.data[t];
        streams[t]->assign((bits[t] + 7) / 8, 0);
    }
    std::array<u64, kSchemeCount> offset{};
    for (std::size_t f = 0; f < video.frameHeaders.size(); ++f) {
        const Bytes &payload = video.payloads[f];
        forEachSegment(video.frameHeaders[f], payload.size() * 8,
                       [&](int t, u64 begin, u64 end) {
                           copyBits(*streams[t], offset[t], payload,
                                    begin, end - begin);
                           offset[t] += end - begin;
                       });
    }
    return out;
}

EncodedVideo
mergeStreams(const EncodedVideo &layout, const StreamSet &streams,
             GopRange range)
{
    const std::vector<u8> needed = referenceClosure(
        layout.frameHeaders, layout.header.frameCount, range);
    EncodedVideo out;
    out.header = layout.header;
    out.frameHeaders = layout.frameHeaders;
    out.payloads.resize(layout.payloads.size());

    // A missing stream reads as zeros: its segments stay as
    // allocated.
    std::array<const Bytes *, kSchemeCount> sources{};
    for (const auto &[t, bytes] : streams.data)
        if (t >= 0 && t < kSchemeCount)
            sources[t] = &bytes;
    // Every frame's segments advance the stream offsets, needed or
    // not: a frame's bits sit in each stream right after all earlier
    // frames' bits. Only needed frames get a payload and a copy.
    std::array<u64, kSchemeCount> offset{};
    for (std::size_t f = 0; f < out.frameHeaders.size(); ++f) {
        const u64 payload_bits = layout.payloads[f].size() * 8;
        Bytes *payload = nullptr;
        if (needed[f]) {
            payload = &out.payloads[f];
            payload->assign(layout.payloads[f].size(), 0);
        }
        forEachSegment(out.frameHeaders[f], payload_bits,
                       [&](int t, u64 begin, u64 end) {
                           if (payload != nullptr && sources[t] != nullptr)
                               copyBits(*payload, begin, *sources[t],
                                        offset[t], end - begin);
                           offset[t] += end - begin;
                       });
    }
    return out;
}

} // namespace videoapp
