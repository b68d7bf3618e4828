#include "codec/gop.h"

#include <algorithm>
#include <cassert>

#include "codec/container.h"

namespace videoapp {

std::vector<FramePlan>
planGop(int frame_count, const GopConfig &config)
{
    assert(frame_count > 0);
    const int gop = config.gopSize > 0 ? config.gopSize : 1;
    const int nb = config.bFrames >= 0 ? config.bFrames : 0;

    std::vector<FramePlan> plan;
    plan.reserve(frame_count);

    int prev_anchor_enc = -1; // encode index of the last anchor
    int display = 0;
    while (display < frame_count) {
        // Next anchor position: nb B-frames ahead, clamped to the
        // end of the sequence and snapped to I-frame positions.
        int anchor = display == 0 ? 0 : display + nb;
        if (anchor >= frame_count)
            anchor = frame_count - 1;
        // If an I-frame boundary falls inside this mini-GOP, make
        // the anchor land on it.
        for (int d = display; d <= anchor; ++d) {
            if (d > 0 && d % gop == 0) {
                anchor = d;
                break;
            }
        }

        // Emit the anchor first (encode order).
        FramePlan anchor_plan;
        anchor_plan.displayIdx = anchor;
        anchor_plan.type =
            (anchor % gop == 0) ? FrameType::I : FrameType::P;
        anchor_plan.ref0 =
            anchor_plan.type == FrameType::I ? -1 : prev_anchor_enc;
        anchor_plan.isReference = true;
        int anchor_enc = static_cast<int>(plan.size());
        plan.push_back(anchor_plan);

        // Then the B-frames between the previous anchor and this one.
        int prev_b_enc = -1;
        for (int d = display; d < anchor; ++d) {
            FramePlan b;
            b.displayIdx = d;
            b.type = FrameType::B;
            if (config.bRefs && prev_b_enc >= 0)
                b.ref0 = prev_b_enc; // chain through earlier B
            else
                b.ref0 = prev_anchor_enc;
            b.ref1 = anchor_enc;
            b.isReference = false; // may be flipped below
            int enc = static_cast<int>(plan.size());
            if (config.bRefs)
                prev_b_enc = enc;
            plan.push_back(b);
        }

        // Mark B-frames that ended up referenced.
        if (config.bRefs) {
            for (auto &p : plan)
                p.isReference = false;
            for (const auto &p : plan) {
                if (p.ref0 >= 0)
                    plan[p.ref0].isReference = true;
                if (p.ref1 >= 0)
                    plan[p.ref1].isReference = true;
            }
            // Anchors always stay references.
            for (auto &p : plan)
                if (p.type != FrameType::B)
                    p.isReference = true;
        }

        prev_anchor_enc = anchor_enc;
        display = anchor + 1;
    }

    return plan;
}

std::vector<GopRange>
gopRanges(const std::vector<FrameHeader> &headers,
          std::size_t frame_count)
{
    std::vector<u32> starts;
    for (const FrameHeader &h : headers)
        if (h.type == FrameType::I && h.displayIdx < frame_count)
            starts.push_back(h.displayIdx);
    std::sort(starts.begin(), starts.end());
    // A leading non-I prefix (or no I frames at all) folds into the
    // first GOP so every frame belongs to exactly one range.
    if (starts.empty())
        starts.push_back(0);
    else
        starts.front() = 0;
    std::vector<GopRange> ranges;
    for (std::size_t g = 0; g < starts.size(); ++g) {
        u32 first = starts[g];
        u32 end = g + 1 < starts.size()
                      ? starts[g + 1]
                      : static_cast<u32>(frame_count);
        if (end > first)
            ranges.push_back({first, end - first});
    }
    if (ranges.empty() && frame_count > 0)
        ranges.push_back({0, static_cast<u32>(frame_count)});
    return ranges;
}

std::vector<u8>
referenceClosure(const std::vector<FrameHeader> &headers,
                 std::size_t frame_count, GopRange range)
{
    const u64 first = range.firstFrame;
    const u64 end = first + range.frameCount;
    if (first == 0 && end >= frame_count)
        return std::vector<u8>(headers.size(), 1);
    std::vector<u8> needed(headers.size(), 0);
    // References always point to earlier encode indices (the decoder
    // drops any that do not), so one backward pass settles the
    // transitive closure.
    for (std::size_t i = headers.size(); i-- > 0;) {
        const FrameHeader &h = headers[i];
        if (h.displayIdx >= first && h.displayIdx < end)
            needed[i] = 1;
        if (!needed[i])
            continue;
        for (i32 ref : {h.ref0, h.ref1})
            if (ref >= 0 && static_cast<std::size_t>(ref) < i)
                needed[static_cast<std::size_t>(ref)] = 1;
    }
    return needed;
}

} // namespace videoapp
