/**
 * @file
 * End-to-end codec tests: encoder/decoder parity, quality vs. CRF,
 * CABAC/CAVLC comparison, and the crash-proof-decode contract under
 * random corruption.
 */

#include <gtest/gtest.h>

#include "codec/decoder.h"
#include "codec/encoder.h"
#include "common/rng.h"
#include "quality/psnr.h"
#include "storage/error_injector.h"
#include "video/synthetic.h"

namespace videoapp {
namespace {

bool
framesIdentical(const Frame &a, const Frame &b)
{
    return a.y().data() == b.y().data() &&
           a.u().data() == b.u().data() &&
           a.v().data() == b.v().data();
}

class CodecParam
    : public ::testing::TestWithParam<std::tuple<EntropyKind, int>>
{
  protected:
    EncoderConfig
    config() const
    {
        EncoderConfig c;
        c.entropy = std::get<0>(GetParam());
        c.crf = std::get<1>(GetParam());
        c.gop.gopSize = 10;
        c.gop.bFrames = 2;
        return c;
    }
};

TEST_P(CodecParam, DecoderReproducesEncoderReconstruction)
{
    Video source = generateSynthetic(tinySpec(11));
    EncodeResult result = encodeVideo(source, config());
    Video decoded = decodeVideo(result.video);

    ASSERT_EQ(decoded.frames.size(), source.frames.size());
    ASSERT_EQ(result.reconFrames.size(), source.frames.size());
    for (std::size_t i = 0; i < decoded.frames.size(); ++i)
        EXPECT_TRUE(framesIdentical(decoded.frames[i],
                                    result.reconFrames[i]))
            << "frame " << i;
}

TEST_P(CodecParam, ReconstructionQualityReasonable)
{
    Video source = generateSynthetic(tinySpec(12));
    EncodeResult result = encodeVideo(source, config());
    Video decoded = decodeVideo(result.video);
    double psnr = psnrVideo(source, decoded);
    // Lossy but sane: >28 dB at CRF 28 and below on this content.
    EXPECT_GT(psnr, 28.0);
    EXPECT_LT(psnr, kPsnrCap);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, CodecParam,
    ::testing::Combine(::testing::Values(EntropyKind::CABAC,
                                         EntropyKind::CAVLC),
                       ::testing::Values(16, 24, 28)),
    [](const auto &info) {
        return std::string(entropyKindName(std::get<0>(info.param))) +
               "Crf" + std::to_string(std::get<1>(info.param));
    });

TEST(CodecE2e, LowerCrfGivesHigherQualityAndMoreBits)
{
    Video source = generateSynthetic(tinySpec(13));
    EncoderConfig high, low;
    high.crf = 16;
    low.crf = 30;
    EncodeResult r_high = encodeVideo(source, high);
    EncodeResult r_low = encodeVideo(source, low);

    double psnr_high = psnrVideo(source, decodeVideo(r_high.video));
    double psnr_low = psnrVideo(source, decodeVideo(r_low.video));
    EXPECT_GT(psnr_high, psnr_low + 2.0);
    EXPECT_GT(r_high.video.payloadBits(),
              r_low.video.payloadBits());
}

TEST(CodecE2e, AbrTracksBitrateTarget)
{
    Video source = generateSynthetic(tinySpec(27));
    // CRF-only size first, then target half of it via ABR.
    EncoderConfig crf_only;
    crf_only.crf = 20;
    u64 crf_bits = encodeVideo(source, crf_only).video.payloadBits();

    double seconds = source.frames.size() / source.fps;
    int target_kbps = static_cast<int>(crf_bits / seconds / 1000.0 / 2);
    EncoderConfig abr = crf_only;
    abr.targetKbps = std::max(target_kbps, 1);
    u64 abr_bits = encodeVideo(source, abr).video.payloadBits();

    // The reactive controller must push the size toward the target
    // (within a generous factor: the clip is very short).
    EXPECT_LT(abr_bits, crf_bits);
    double achieved_kbps = abr_bits / seconds / 1000.0;
    EXPECT_LT(achieved_kbps, abr.targetKbps * 2.0);
}

TEST(CodecE2e, AbrStreamStillDecodesToParity)
{
    Video source = generateSynthetic(tinySpec(28));
    EncoderConfig abr;
    abr.crf = 22;
    abr.targetKbps = 40;
    EncodeResult enc = encodeVideo(source, abr);
    Video decoded = decodeVideo(enc.video);
    for (std::size_t i = 0; i < decoded.frames.size(); ++i)
        EXPECT_TRUE(framesIdentical(decoded.frames[i],
                                    enc.reconFrames[i]));
}

TEST(CodecE2e, CabacCompressesBetterThanCavlc)
{
    Video source = generateSynthetic(tinySpec(14));
    EncoderConfig cabac, cavlc;
    cabac.entropy = EntropyKind::CABAC;
    cavlc.entropy = EntropyKind::CAVLC;
    u64 cabac_bits =
        encodeVideo(source, cabac).video.payloadBits();
    u64 cavlc_bits =
        encodeVideo(source, cavlc).video.payloadBits();
    EXPECT_LT(cabac_bits, cavlc_bits);
}

TEST(CodecE2e, CompressionBeatsRawStorage)
{
    Video source = generateSynthetic(tinySpec(15));
    EncoderConfig config;
    EncodeResult result = encodeVideo(source, config);
    u64 raw_bits = source.pixelCount() * 12; // 4:2:0 = 12 bpp
    EXPECT_LT(result.video.payloadBits(), raw_bits / 4);
}

TEST(CodecE2e, InterFramesCheaperThanIntra)
{
    Video source = generateSynthetic(tinySpec(16));
    EncoderConfig config;
    config.gop.gopSize = 10;
    config.gop.bFrames = 0;
    EncodeResult result = encodeVideo(source, config);
    u64 i_bits = 0, p_bits = 0, i_count = 0, p_count = 0;
    for (std::size_t f = 0; f < result.side.frames.size(); ++f) {
        if (result.side.frames[f].type == FrameType::I) {
            i_bits += result.video.payloads[f].size();
            ++i_count;
        } else {
            p_bits += result.video.payloads[f].size();
            ++p_count;
        }
    }
    ASSERT_GT(i_count, 0u);
    ASSERT_GT(p_count, 0u);
    EXPECT_LT(static_cast<double>(p_bits) / p_count,
              static_cast<double>(i_bits) / i_count);
}

TEST(CodecE2e, SideInfoCoversEveryMbWithConsistentRanges)
{
    Video source = generateSynthetic(tinySpec(17));
    EncoderConfig config;
    config.gop.bFrames = 2;
    EncodeResult result = encodeVideo(source, config);

    for (std::size_t f = 0; f < result.side.frames.size(); ++f) {
        const FrameRecord &frame = result.side.frames[f];
        u64 payload_bits = result.video.payloads[f].size() * 8;
        ASSERT_EQ(frame.mbs.size(),
                  static_cast<std::size_t>(
                      result.video.mbPerFrame()));
        u64 prev_end = 0;
        for (const MbRecord &mb : frame.mbs) {
            EXPECT_GE(mb.bitOffset, prev_end);
            EXPECT_LE(mb.bitOffset + mb.bitLength, payload_bits);
            prev_end = mb.bitOffset + mb.bitLength;
            for (const auto &dep : mb.deps) {
                EXPECT_GE(dep.refFrame, 0);
                EXPECT_LE(dep.refFrame, static_cast<i32>(f));
                EXPECT_LT(dep.refMb, result.video.mbPerFrame());
                EXPECT_GT(dep.weight, 0.0f);
                EXPECT_LE(dep.weight, 1.0f);
            }
        }
    }
}

TEST(CodecE2e, InterMbIncomingWeightsSumToOne)
{
    Video source = generateSynthetic(tinySpec(18));
    EncoderConfig config;
    EncodeResult result = encodeVideo(source, config);
    for (const auto &frame : result.side.frames) {
        for (const auto &mb : frame.mbs) {
            if (mb.intra || mb.deps.empty())
                continue;
            double sum = 0;
            for (const auto &dep : mb.deps)
                sum += dep.weight;
            EXPECT_NEAR(sum, 1.0, 1e-4);
        }
    }
}

TEST(CodecE2e, SlicedEncodingDecodesIdentically)
{
    Video source = generateSynthetic(tinySpec(19));
    EncoderConfig config;
    config.slicesPerFrame = 3;
    EncodeResult result = encodeVideo(source, config);
    Video decoded = decodeVideo(result.video);
    for (std::size_t i = 0; i < decoded.frames.size(); ++i)
        EXPECT_TRUE(framesIdentical(decoded.frames[i],
                                    result.reconFrames[i]));
}

TEST(CodecE2e, SerializedStreamDecodesIdentically)
{
    Video source = generateSynthetic(tinySpec(20));
    EncodeResult result = encodeVideo(source, EncoderConfig{});
    Bytes blob = serialize(result.video);
    auto parsed = deserialize(blob);
    ASSERT_TRUE(parsed.has_value());
    Video decoded = decodeVideo(*parsed);
    for (std::size_t i = 0; i < decoded.frames.size(); ++i)
        EXPECT_TRUE(framesIdentical(decoded.frames[i],
                                    result.reconFrames[i]));
}

TEST(CodecE2e, HeaderBitsAreTinyFractionOfStream)
{
    Video source = generateSynthetic(tinySpec(21));
    EncodeResult result = encodeVideo(source, EncoderConfig{});
    double fraction =
        static_cast<double>(result.video.headerBits()) /
        result.video.payloadBits();
    // The paper reports < 0.1% for 720p; a 64x64 20-frame test clip
    // carries proportionally far more header. The paper-scale check
    // runs on the full suite in bench/fig11_density.
    EXPECT_LT(fraction, 0.2);
}

// --- ranged decode --------------------------------------------------

TEST(RangedDecode, EveryGopMatchesTheWholeVideoDecode)
{
    // Every GOP decoded on its own equals the same frames of the
    // whole-video decode bit for bit, for each GOP shape the encoder
    // plans (0, 1 and 2 B-frames, B-frame references off and on),
    // clean and from corrupted payloads with concealment on. 20
    // frames over 8-frame GOPs leave a short last GOP.
    Video source = generateSynthetic(tinySpec(31));
    ASSERT_EQ(source.frames.size(), 20u);
    for (int b_frames : {0, 1, 2}) {
        for (bool b_refs : {false, true}) {
            SCOPED_TRACE(::testing::Message() << "bFrames " << b_frames
                                              << " bRefs " << b_refs);
            EncoderConfig config;
            config.gop.gopSize = 8;
            config.gop.bFrames = b_frames;
            config.gop.bRefs = b_refs;
            EncodeResult result = encodeVideo(source, config);
            Rng rng(37);
            for (int trial = 0; trial < 3; ++trial) {
                SCOPED_TRACE(trial);
                EncodedVideo coded = result.video;
                DecodeOptions options;
                if (trial > 0) {
                    for (auto &payload : coded.payloads)
                        injectErrors(payload, 2e-3, rng);
                    options.concealErrors = true;
                }
                Video whole = decodeVideo(coded, options);
                auto ranges =
                    gopRanges(coded.frameHeaders, whole.frames.size());
                ASSERT_EQ(ranges.size(), 3u);
                EXPECT_EQ(ranges.back().frameCount, 4u);
                for (std::size_t g = 0; g < ranges.size(); ++g) {
                    const GopRange &range = ranges[g];
                    Video part = decodeFrames(coded, range, options);
                    ASSERT_EQ(part.frames.size(), range.frameCount);
                    for (u32 f = 0; f < range.frameCount; ++f)
                        EXPECT_TRUE(framesIdentical(
                            part.frames[f],
                            whole.frames[range.firstFrame + f]))
                            << "gop " << g << " frame " << f;
                    // Open GOPs: the B-frames that close a GOP also
                    // need the next GOP's I-frame, and nothing else
                    // from outside the GOP.
                    std::vector<u8> closure = referenceClosure(
                        coded.frameHeaders, whole.frames.size(), range);
                    u32 needed = 0;
                    for (u8 flag : closure)
                        needed += flag;
                    const bool open =
                        b_frames > 0 && g + 1 < ranges.size();
                    EXPECT_EQ(needed, range.frameCount + (open ? 1 : 0))
                        << "gop " << g;
                }
            }
        }
    }
}

TEST(RangedDecode, RangesClampToTheVideo)
{
    Video source = generateSynthetic(tinySpec(32));
    EncoderConfig config;
    config.gop.gopSize = 8;
    EncodeResult result = encodeVideo(source, config);
    Video whole = decodeVideo(result.video);
    Video tail = decodeFrames(result.video, {16, 100});
    ASSERT_EQ(tail.frames.size(), 4u);
    EXPECT_TRUE(framesIdentical(tail.frames[3], whole.frames[19]));
    EXPECT_TRUE(decodeFrames(result.video, {20, 8}).frames.empty());
    EXPECT_EQ(decodeFrames(result.video, kAllFrames).frames.size(),
              whole.frames.size());
}

class CorruptionParam : public ::testing::TestWithParam<EntropyKind>
{
};

TEST_P(CorruptionParam, DecoderNeverCrashesOnRandomCorruption)
{
    Video source = generateSynthetic(tinySpec(22));
    EncoderConfig config;
    config.entropy = GetParam();
    EncodeResult result = encodeVideo(source, config);

    Rng rng(23);
    for (int trial = 0; trial < 30; ++trial) {
        EncodedVideo corrupted = result.video;
        for (auto &payload : corrupted.payloads)
            injectErrors(payload, 1e-3, rng);
        Video decoded = decodeVideo(corrupted);
        ASSERT_EQ(decoded.frames.size(), source.frames.size());
    }
}

TEST_P(CorruptionParam, SingleFlipCausesBoundedDamage)
{
    Video source = generateSynthetic(tinySpec(24));
    EncoderConfig config;
    config.entropy = GetParam();
    EncodeResult result = encodeVideo(source, config);
    Video reference = decodeVideo(result.video);

    Rng rng(25);
    int damaged_runs = 0;
    for (int trial = 0; trial < 10; ++trial) {
        EncodedVideo corrupted = result.video;
        // Flip one bit in a random frame payload.
        std::size_t f = rng.nextBelow(corrupted.payloads.size());
        if (corrupted.payloads[f].empty())
            continue;
        flipBit(corrupted.payloads[f],
                rng.nextBelow(corrupted.payloads[f].size() * 8));
        Video decoded = decodeVideo(corrupted);
        double psnr = psnrVideo(reference, decoded);
        if (psnr < kPsnrCap - 1e-9)
            ++damaged_runs;
        EXPECT_GT(psnr, 5.0); // damaged, not random noise everywhere
    }
    // Most single flips must visibly damage a CABAC/CAVLC stream.
    EXPECT_GE(damaged_runs, 5);
}

INSTANTIATE_TEST_SUITE_P(Backends, CorruptionParam,
                         ::testing::Values(EntropyKind::CABAC,
                                           EntropyKind::CAVLC),
                         [](const auto &info) {
                             return entropyKindName(info.param);
                         });

class SuiteContentParam : public ::testing::TestWithParam<int>
{
};

TEST_P(SuiteContentParam, ParityAcrossContentClasses)
{
    // The synthetic suite spans pans, zooms, sprites, noise and
    // scene cuts; parity must hold on all content classes, not just
    // the tiny test clip.
    auto suite = standardSuite(0.15);
    SyntheticSpec spec = suite[static_cast<std::size_t>(GetParam())];
    spec.frames = 10;
    Video source = generateSynthetic(spec);
    EncodeResult enc = encodeVideo(source, EncoderConfig{});
    Video decoded = decodeVideo(enc.video);
    for (std::size_t i = 0; i < decoded.frames.size(); ++i) {
        ASSERT_EQ(decoded.frames[i].y().data(),
                  enc.reconFrames[i].y().data())
            << spec.name << " frame " << i;
    }
    // And quality must be sane on every content class.
    EXPECT_GT(psnrVideo(source, decoded), 24.0) << spec.name;
}

INSTANTIATE_TEST_SUITE_P(Suite, SuiteContentParam,
                         ::testing::Values(0, 2, 3, 8, 11, 13),
                         [](const auto &info) {
                             return standardSuite(
                                        0.15)[static_cast<std::size_t>(
                                        info.param)]
                                 .name;
                         });

TEST(CodecE2e, AllIntraGopWorks)
{
    // gopSize = 1: every frame is an I frame (an "intra-only"
    // archival profile); no compensation edges should exist.
    Video source = generateSynthetic(tinySpec(29));
    EncoderConfig config;
    config.gop.gopSize = 1;
    EncodeResult enc = encodeVideo(source, config);
    for (const auto &frame : enc.side.frames)
        EXPECT_EQ(frame.type, FrameType::I);
    Video decoded = decodeVideo(enc.video);
    for (std::size_t i = 0; i < decoded.frames.size(); ++i)
        EXPECT_EQ(decoded.frames[i].y().data(),
                  enc.reconFrames[i].y().data());
    // Cross-frame deps must be absent.
    for (const auto &frame : enc.side.frames)
        for (const auto &mb : frame.mbs)
            for (const auto &dep : mb.deps)
                EXPECT_EQ(dep.refFrame, frame.encIdx);
}

TEST(CodecE2e, BFramesExceedingTailHandled)
{
    // More B frames than remaining content.
    Video source = generateSynthetic(tinySpec(30));
    source.frames.resize(5, Frame(source.width(), source.height()));
    EncoderConfig config;
    config.gop.bFrames = 7;
    EncodeResult enc = encodeVideo(source, config);
    Video decoded = decodeVideo(enc.video);
    ASSERT_EQ(decoded.frames.size(), 5u);
    for (std::size_t i = 0; i < decoded.frames.size(); ++i)
        EXPECT_EQ(decoded.frames[i].y().data(),
                  enc.reconFrames[i].y().data());
}

TEST(CodecE2e, BFramesAreNotReferencedByDefault)
{
    Video source = generateSynthetic(tinySpec(26));
    EncoderConfig config;
    config.gop.bFrames = 2;
    EncodeResult result = encodeVideo(source, config);
    // No cross-frame dependency may point at a B frame (intra deps
    // inside a B frame are fine).
    for (const auto &frame : result.side.frames) {
        for (const auto &mb : frame.mbs) {
            for (const auto &dep : mb.deps) {
                if (dep.refFrame == frame.encIdx)
                    continue;
                EXPECT_NE(result.side
                              .frames[static_cast<std::size_t>(
                                  dep.refFrame)]
                              .type,
                          FrameType::B);
            }
        }
    }
}

} // namespace
} // namespace videoapp
