#include "codec/decoder.h"

#include <algorithm>

#include "codec/deblock.h"
#include "codec/mb_grid.h"
#include "codec/mb_syntax.h"
#include "codec/reconstruct.h"
#include "common/telemetry.h"

namespace videoapp {

namespace {

/** Conceal one MB: copy co-located pixels from @p ref (gray if
 * absent) and mark the grid cell as a zero-motion placeholder. */
void
concealMb(Frame &recon, const Frame *ref, MbGrid &grid, int mbx,
          int mby, std::vector<MbCoding> &codings, int mbw)
{
    int x0 = mbx * 16, y0 = mby * 16;
    for (int y = 0; y < 16; ++y)
        for (int x = 0; x < 16; ++x)
            recon.y().at(x0 + x, y0 + y) =
                ref ? ref->y().at(x0 + x, y0 + y) : 128;
    int cx0 = mbx * 8, cy0 = mby * 8;
    for (int y = 0; y < 8; ++y) {
        for (int x = 0; x < 8; ++x) {
            recon.u().at(cx0 + x, cy0 + y) =
                ref ? ref->u().at(cx0 + x, cy0 + y) : 128;
            recon.v().at(cx0 + x, cy0 + y) =
                ref ? ref->v().at(cx0 + x, cy0 + y) : 128;
        }
    }
    MbState &cell = grid.at(mbx, mby);
    cell = MbState{};
    cell.valid = true;
    cell.skip = true;
    MbCoding placeholder;
    placeholder.skip = true;
    MotionInfo motion;
    motion.rect = {0, 0, 16, 16};
    placeholder.motions.push_back(motion);
    codings[static_cast<std::size_t>(mby) * mbw + mbx] =
        std::move(placeholder);
}

} // namespace

std::size_t
decodedFrameCount(const EncodedVideo &coded)
{
    const int width = coded.header.width;
    const int height = coded.header.height;
    if (width <= 0 || height <= 0 || width % 16 || height % 16)
        return 0;
    return coded.header.frameCount;
}

Video
decodeVideo(const EncodedVideo &coded, const DecodeOptions &options,
            DecodeStats *stats)
{
    return decodeFrames(coded, kAllFrames, options, stats);
}

Video
decodeFrames(const EncodedVideo &coded, GopRange range,
             const DecodeOptions &options, DecodeStats *stats)
{
    const int width = coded.header.width;
    const int height = coded.header.height;
    const int mbw = coded.mbWidth();
    const int mbh = coded.mbHeight();

    Video out;
    out.fps = coded.header.fps;
    const std::size_t display_count = decodedFrameCount(coded);
    if (display_count == 0)
        return out;
    const std::size_t first =
        std::min<std::size_t>(range.firstFrame, display_count);
    const std::size_t end =
        first + std::min<std::size_t>(range.frameCount, display_count - first);
    out.frames.assign(end - first, Frame(width, height));

    // Only the range's reference closure is reconstructed; every
    // frame it needs precedes its dependents in encode order.
    const std::vector<u8> needed =
        referenceClosure(coded.frameHeaders, display_count, range);
    std::vector<Frame> recons(coded.frameHeaders.size());
    MbGrid grid(mbw, mbh);
    u64 frames_decoded = 0;

    const std::size_t frame_count = std::min(
        coded.frameHeaders.size(), coded.payloads.size());
    for (std::size_t enc_idx = 0; enc_idx < frame_count; ++enc_idx) {
        if (!needed[enc_idx])
            continue;
        ++frames_decoded;
        const FrameHeader &header = coded.frameHeaders[enc_idx];
        const Bytes &payload = coded.payloads[enc_idx];

        // Resolve references; malformed indices become null (the
        // reconstruction then predicts neutral gray, never faults).
        auto ref_at = [&](i32 idx) -> const Frame * {
            if (idx < 0 || static_cast<std::size_t>(idx) >= enc_idx ||
                !needed[static_cast<std::size_t>(idx)])
                return nullptr;
            return &recons[static_cast<std::size_t>(idx)];
        };
        const Frame *ref0 = ref_at(header.ref0);
        const Frame *ref1 = ref_at(header.ref1);

        Frame recon(width, height);
        grid.reset();
        std::vector<MbCoding> codings(
            static_cast<std::size_t>(mbw) * mbh);
        std::vector<int> slice_first_rows;

        for (const SliceRecord &slice : header.slices) {
            // Malformed (or deliberately corrupted) headers may
            // point outside the MB grid entirely; skip such slices.
            if (slice.firstMb >= static_cast<u32>(mbw * mbh))
                continue;
            // Clamp the slice window into the payload.
            std::size_t offset =
                std::min<std::size_t>(slice.byteOffset,
                                      payload.size());
            std::size_t length = std::min<std::size_t>(
                slice.byteLength, payload.size() - offset);
            auto dec = makeSyntaxDecoder(coded.header.entropy,
                                         payload, offset, length);

            int first_row = static_cast<int>(
                std::min<u32>(slice.firstMb, mbw * mbh) /
                static_cast<u32>(mbw));
            slice_first_rows.push_back(first_row);
            int prev_qp = clampQp(header.qpBase);

            u32 mb_count = std::min<u32>(
                slice.mbCount,
                static_cast<u32>(mbw * mbh) - slice.firstMb);
            bool concealing = false;
            for (u32 k = 0; k < mb_count; ++k) {
                u32 mb_idx = slice.firstMb + k;
                int mbx = static_cast<int>(mb_idx) % mbw;
                int mby = static_cast<int>(mb_idx) / mbw;
                if (stats)
                    ++stats->totalMbs;
                if (concealing) {
                    concealMb(recon, ref0, grid, mbx, mby, codings,
                              mbw);
                    if (stats)
                        ++stats->concealedMbs;
                    continue;
                }
                MbPosition pos{mbx, mby, first_row, header.type};
                MbCoding mb = decodeMb(*dec, pos, grid, prev_qp);
                MbAvail avail;
                avail.left = grid.leftAvail(mbx, mby, first_row);
                avail.up = grid.upAvail(mbx, mby, first_row);
                avail.upLeft =
                    grid.upLeftAvail(mbx, mby, first_row);
                avail.upRight =
                    grid.upRightAvail(mbx, mby, first_row);
                reconstructMb(recon, mb, mbx, mby, ref0, ref1,
                              avail);
                codings[mb_idx] = std::move(mb);
                if (options.concealErrors && dec->sawCorruption())
                    concealing = true;
            }
        }

        if (coded.header.deblocking())
            deblockFrame(recon, codings, mbw, mbh,
                         slice_first_rows);

        if (header.displayIdx >= first && header.displayIdx < end)
            out.frames[header.displayIdx - first] = recon;
        recons[enc_idx] = std::move(recon);
    }
    VA_TELEM_HIST("codec.frames_decoded", frames_decoded);
    return out;
}

} // namespace videoapp
