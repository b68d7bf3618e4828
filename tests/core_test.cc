/**
 * @file
 * Core VideoApp tests: ECC assignment tables, the budgeted
 * optimiser, pivot derivation, stream partitioning round trips, and
 * the end-to-end approximate storage pipeline (with and without
 * encryption).
 */

#include <gtest/gtest.h>

#include "core/ecc_assign.h"
#include "core/partition.h"
#include "core/pipeline.h"
#include "quality/psnr.h"
#include "video/synthetic.h"

namespace videoapp {
namespace {

// --- Assignment tables ------------------------------------------------------

TEST(EccAssignment, PaperTable1Boundaries)
{
    EccAssignment table = EccAssignment::paperTable1();
    EXPECT_TRUE(table.schemeForClass(0).isNone());
    EXPECT_TRUE(table.schemeForClass(2).isNone());
    EXPECT_EQ(table.schemeForClass(3).t, 6);
    EXPECT_EQ(table.schemeForClass(10).t, 6);
    EXPECT_EQ(table.schemeForClass(11).t, 7);
    EXPECT_EQ(table.schemeForClass(13).t, 7);
    EXPECT_EQ(table.schemeForClass(14).t, 8);
    EXPECT_EQ(table.schemeForClass(16).t, 8);
    EXPECT_EQ(table.schemeForClass(17).t, 9);
    EXPECT_EQ(table.schemeForClass(20).t, 9);
    EXPECT_EQ(table.schemeForClass(21).t, 10);
    EXPECT_EQ(table.schemeForClass(26).t, 10);
    EXPECT_EQ(table.schemeForClass(30).t, 10);
}

TEST(EccAssignment, SchemeForImportanceUsesLog2Classes)
{
    EccAssignment table = EccAssignment::paperTable1();
    EXPECT_TRUE(table.schemeFor(1.0).isNone());  // class 0
    EXPECT_TRUE(table.schemeFor(4.0).isNone());  // class 2
    EXPECT_EQ(table.schemeFor(5.0).t, 6);        // class 3
    EXPECT_EQ(table.schemeFor(1024.0).t, 6);     // class 10
    EXPECT_EQ(table.schemeFor(1025.0).t, 7);     // class 11
}

TEST(EccAssignment, UniformIgnoresImportance)
{
    EccAssignment uniform = EccAssignment::uniform(kEccPrecise);
    EXPECT_EQ(uniform.schemeFor(1.0).t, 16);
    EXPECT_EQ(uniform.schemeFor(1e6).t, 16);
}

TEST(EccAssignment, ToStringMentionsSchemes)
{
    std::string text = EccAssignment::paperTable1().toString();
    EXPECT_NE(text.find("None"), std::string::npos);
    EXPECT_NE(text.find("BCH-10"), std::string::npos);
}

// --- Optimiser -----------------------------------------------------------------

TEST(Optimizer, InterpolatesLogLinear)
{
    std::vector<ClassCurvePoint> points = {{1e-6, 0.1}, {1e-4, 0.5},
                                           {1e-2, 2.0}};
    EXPECT_NEAR(interpolateLoss(points, 1e-5), 0.3, 1e-9);
    EXPECT_NEAR(interpolateLoss(points, 1e-4), 0.5, 1e-12);
    // Below range: scales linearly toward zero.
    EXPECT_NEAR(interpolateLoss(points, 1e-7), 0.01, 1e-9);
    // Above range: saturates.
    EXPECT_NEAR(interpolateLoss(points, 1.0), 2.0, 1e-12);
    EXPECT_DOUBLE_EQ(interpolateLoss({}, 1e-3), 0.0);
}

TEST(Optimizer, ErrorTolerantClassGetsNoEcc)
{
    // One class occupying all storage whose loss is negligible even
    // at the raw error rate: the optimiser must choose None.
    std::vector<ClassCurve> curves = {
        {2, {{1e-6, 0.0}, {1e-3, 0.001}}, 1.0}};
    EccAssignment table = optimizeAssignment(curves, 0.3);
    EXPECT_TRUE(table.schemeForClass(2).isNone());
}

TEST(Optimizer, SensitiveClassGetsStrongEcc)
{
    // A class that loses 5 dB at 1e-8 needs a very strong scheme.
    std::vector<ClassCurve> curves = {
        {20,
         {{1e-12, 0.001}, {1e-10, 0.1}, {1e-8, 5.0}, {1e-3, 30.0}},
         1.0}};
    EccAssignment table = optimizeAssignment(curves, 0.3);
    EXPECT_GE(table.schemeForClass(20).t, 9);
}

TEST(Optimizer, BudgetSplitByStorageShare)
{
    // Two classes; the first occupies 90% of storage and tolerates
    // errors, the second is sensitive. The optimiser must protect
    // them differently.
    std::vector<ClassCurve> curves = {
        {3, {{1e-6, 0.0}, {1e-3, 0.01}}, 0.9},
        {20, {{1e-10, 0.05}, {1e-6, 1.0}, {1e-3, 20.0}}, 1.0},
    };
    EccAssignment table = optimizeAssignment(curves, 0.3);
    EXPECT_LT(table.schemeForClass(3).t, table.schemeForClass(20).t);
}

TEST(Optimizer, LargerBudgetWeakensSchemes)
{
    std::vector<ClassCurve> curves = {
        {10, {{1e-10, 0.01}, {1e-6, 0.2}, {1e-3, 5.0}}, 1.0}};
    EccAssignment tight = optimizeAssignment(curves, 0.05);
    EccAssignment loose = optimizeAssignment(curves, 1.0);
    EXPECT_GE(tight.schemeForClass(10).t,
              loose.schemeForClass(10).t);
}

TEST(Optimizer, ConservativeNeverWeakerThanCompressionWin)
{
    // A class whose approximation cost is tiny relative to the
    // storage it frees gets a weak scheme; one whose cost exceeds
    // the compression equivalent stays strongly protected.
    std::vector<ClassCurve> tolerant = {
        {3, {{1e-6, 0.0}, {1e-3, 0.005}}, 1.0}};
    EccAssignment a = optimizeAssignmentConservative(tolerant);
    EXPECT_LE(a.schemeForClass(3).t, 6);

    std::vector<ClassCurve> sensitive = {
        {20, {{1e-12, 0.2}, {1e-8, 8.0}, {1e-3, 30.0}}, 1.0}};
    EccAssignment b = optimizeAssignmentConservative(sensitive);
    EXPECT_GE(b.schemeForClass(20).t, 10);
}

TEST(Optimizer, ConservativeMonotoneAcrossClasses)
{
    std::vector<ClassCurve> curves = {
        {2, {{1e-6, 0.0}, {1e-3, 0.01}}, 0.5},
        {10, {{1e-8, 0.1}, {1e-4, 2.0}, {1e-3, 10.0}}, 1.0},
    };
    EccAssignment table = optimizeAssignmentConservative(curves);
    EXPECT_LE(table.schemeForClass(2).t, table.schemeForClass(10).t);
    int prev = 0;
    for (const auto &entry : table.entries()) {
        EXPECT_GE(entry.scheme.t, prev);
        prev = entry.scheme.t;
    }
}

TEST(Optimizer, SteeperCompressionSlopeAllowsMoreApproximation)
{
    // If compression is expensive (loses a lot of quality per byte),
    // approximation wins more often -> weaker schemes acceptable.
    std::vector<ClassCurve> curves = {
        {8, {{1e-8, 0.05}, {1e-5, 0.5}, {1e-3, 5.0}}, 1.0}};
    EccAssignment cheap_cmp =
        optimizeAssignmentConservative(curves, 1.0);
    EccAssignment dear_cmp =
        optimizeAssignmentConservative(curves, 16.0);
    EXPECT_GE(cheap_cmp.schemeForClass(8).t,
              dear_cmp.schemeForClass(8).t);
}

// --- Pivots and partitioning -------------------------------------------------------

class PartitionFixture : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        source_ = generateSynthetic(tinySpec(41));
        EncoderConfig config;
        config.gop.gopSize = 10;
        config.gop.bFrames = 2;
        prepared_ = prepareVideo(source_, config,
                                 EccAssignment::paperTable1());
    }

    Video source_;
    PreparedVideo prepared_;
};

TEST_F(PartitionFixture, PivotsPresentAndSorted)
{
    for (const auto &fh : prepared_.enc.video.frameHeaders) {
        ASSERT_FALSE(fh.pivots.empty());
        for (std::size_t p = 1; p < fh.pivots.size(); ++p)
            EXPECT_LT(fh.pivots[p - 1].bitOffset,
                      fh.pivots[p].bitOffset);
    }
}

TEST_F(PartitionFixture, PivotCountBoundedBySchemesPerSlice)
{
    // Monotone importance: at most one pivot per scheme per slice.
    for (const auto &fh : prepared_.enc.video.frameHeaders)
        EXPECT_LE(fh.pivots.size(), 7u * fh.slices.size());
}

TEST_F(PartitionFixture, PivotSchemesWeakenWithinSlice)
{
    for (const auto &fh : prepared_.enc.video.frameHeaders) {
        // Group pivots by slice and check non-increasing strength.
        for (const auto &slice : fh.slices) {
            u64 begin = static_cast<u64>(slice.byteOffset) * 8;
            u64 end = begin + static_cast<u64>(slice.byteLength) * 8;
            int prev_t = 17;
            for (const auto &p : fh.pivots) {
                if (p.bitOffset < begin || p.bitOffset >= end)
                    continue;
                EXPECT_LE(static_cast<int>(p.schemeT), prev_t);
                prev_t = p.schemeT;
            }
        }
    }
}

TEST_F(PartitionFixture, StreamsPartitionAllPayloadBits)
{
    u64 stream_bits = 0;
    for (const auto &[t, bits] : prepared_.streams.bitLength)
        stream_bits += bits;
    EXPECT_EQ(stream_bits, prepared_.enc.video.payloadBits());
}

TEST_F(PartitionFixture, ExtractMergeRoundTrip)
{
    EncodedVideo merged =
        mergeStreams(prepared_.enc.video, prepared_.streams);
    ASSERT_EQ(merged.payloads.size(),
              prepared_.enc.video.payloads.size());
    for (std::size_t f = 0; f < merged.payloads.size(); ++f)
        EXPECT_EQ(merged.payloads[f],
                  prepared_.enc.video.payloads[f])
            << "frame " << f;
}

TEST_F(PartitionFixture, UniformAssignmentYieldsSingleStream)
{
    repartition(prepared_, EccAssignment::uniform(kEccPrecise));
    EXPECT_EQ(prepared_.streams.data.size(), 1u);
    EXPECT_EQ(prepared_.streams.data.begin()->first, 16);
}

TEST_F(PartitionFixture, CorruptionInStreamLandsInRightPayloadBits)
{
    // Flip the first bit of the weakest stream; after merging, the
    // changed payload bit must belong to a segment assigned to that
    // scheme.
    auto weakest = prepared_.streams.data.begin(); // lowest t
    ASSERT_FALSE(weakest->second.empty());
    StreamSet corrupted = prepared_.streams;
    flipBit(corrupted.data[weakest->first], 0);
    EncodedVideo merged =
        mergeStreams(prepared_.enc.video, corrupted);

    int diffs = 0;
    for (std::size_t f = 0; f < merged.payloads.size(); ++f)
        diffs += merged.payloads[f] !=
                 prepared_.enc.video.payloads[f];
    EXPECT_EQ(diffs, 1);
}

TEST_F(PartitionFixture, CorruptedPivotsNeverCrashExtraction)
{
    // Damaged headers (out-of-range offsets, shuffled schemes) must
    // leave extraction and merging total — worst case is misplaced
    // bits, never a fault.
    Rng rng(49);
    for (int trial = 0; trial < 20; ++trial) {
        EncodedVideo mangled = prepared_.enc.video;
        for (auto &fh : mangled.frameHeaders) {
            for (auto &p : fh.pivots) {
                if (rng.nextBool(0.3))
                    p.bitOffset = rng.next() % (1u << 20);
                if (rng.nextBool(0.3))
                    p.schemeT = static_cast<u8>(rng.nextBelow(40));
            }
        }
        StreamSet streams = extractStreams(mangled);
        EncodedVideo merged = mergeStreams(mangled, streams);
        Video decoded = decodeVideo(merged);
        ASSERT_EQ(decoded.frames.size(), source_.frames.size());
    }
}

TEST_F(PartitionFixture, MergeWithMissingStreamFillsZeros)
{
    // A storage system that lost an entire reliability stream must
    // still reassemble (zero-filled) and decode.
    StreamSet incomplete = prepared_.streams;
    incomplete.data.erase(incomplete.data.begin());
    EncodedVideo merged =
        mergeStreams(prepared_.enc.video, incomplete);
    Video decoded = decodeVideo(merged);
    ASSERT_EQ(decoded.frames.size(), source_.frames.size());
}

TEST_F(PartitionFixture, RangedMergeFillsOnlyTheReferenceClosure)
{
    // Truncated streams too: bits past a stream's end read as zeros
    // in the ranged merge exactly as in the whole one.
    StreamSet short_streams = prepared_.streams;
    for (auto &[t, data] : short_streams.data)
        data.resize(data.size() / 2);
    const EncodedVideo &layout = prepared_.enc.video;
    for (const StreamSet &streams : {prepared_.streams, short_streams}) {
        EncodedVideo whole = mergeStreams(layout, streams);
        auto ranges = gopRanges(layout.frameHeaders,
                                layout.header.frameCount);
        ASSERT_EQ(ranges.size(), 2u);
        for (const GopRange &range : ranges) {
            std::vector<u8> closure = referenceClosure(
                layout.frameHeaders, layout.header.frameCount, range);
            EncodedVideo merged = mergeStreams(layout, streams, range);
            ASSERT_EQ(merged.payloads.size(), whole.payloads.size());
            for (std::size_t f = 0; f < merged.payloads.size(); ++f) {
                if (closure[f])
                    EXPECT_EQ(merged.payloads[f], whole.payloads[f])
                        << "frame " << f;
                else
                    EXPECT_TRUE(merged.payloads[f].empty())
                        << "frame " << f;
            }
        }
    }
}

// --- Pipeline -----------------------------------------------------------------------

TEST_F(PartitionFixture, ErrorFreeChannelIsLossless)
{
    ModeledChannel channel(0.0);
    Rng rng(1);
    StorageOutcome outcome =
        storeAndRetrieve(prepared_, channel, rng);
    EXPECT_DOUBLE_EQ(outcome.psnrVsReference, kPsnrCap);
    EXPECT_GT(outcome.cellsPerPixel, 0.0);
}

TEST_F(PartitionFixture, VariableDenserThanUniform)
{
    double variable = densityCellsPerPixel(
        prepared_, source_.pixelCount());
    repartition(prepared_, EccAssignment::uniform(kEccPrecise));
    double uniform = densityCellsPerPixel(
        prepared_, source_.pixelCount());
    EXPECT_LT(variable, uniform);
}

TEST_F(PartitionFixture, QualityLossSmallAtRawBer)
{
    ModeledChannel channel(kPcmRawBer);
    Rng rng(2);
    StorageOutcome outcome =
        storeAndRetrieve(prepared_, channel, rng);
    // Table 1 protection keeps quality near-lossless; with the tiny
    // test video even one failure run is visible, so just require
    // sane output.
    EXPECT_GT(outcome.psnrVsReference, 30.0);
    EXPECT_GT(outcome.eccOverheadFraction, 0.0);
    EXPECT_LT(outcome.eccOverheadFraction, 0.3125 / 1.3125);
}

TEST_F(PartitionFixture, EncryptedCtrPipelineLossless)
{
    ModeledChannel channel(0.0);
    Rng rng(3);
    EncryptionConfig enc_config;
    enc_config.mode = CipherMode::CTR;
    enc_config.key = Bytes(16, 0x42);
    StorageOutcome outcome =
        storeAndRetrieve(prepared_, channel, rng, enc_config);
    EXPECT_DOUBLE_EQ(outcome.psnrVsReference, kPsnrCap);
}

TEST_F(PartitionFixture, EncryptedCtrMatchesPlainUnderErrors)
{
    // Requirement #3 of Section 5.1: approximating ciphertext must
    // cost the same quality as approximating plaintext. Compare
    // error statistics over a few seeds.
    ModeledChannel channel(3e-3);
    double plain_total = 0, ctr_total = 0;
    for (u64 seed = 0; seed < 4; ++seed) {
        Rng rng_a(seed + 10), rng_b(seed + 10);
        StorageOutcome plain =
            storeAndRetrieve(prepared_, channel, rng_a);
        EncryptionConfig enc_config;
        enc_config.mode = CipherMode::CTR;
        enc_config.key = Bytes(16, 0x11);
        StorageOutcome ctr = storeAndRetrieve(prepared_, channel,
                                              rng_b, enc_config);
        plain_total += plain.psnrVsReference;
        ctr_total += ctr.psnrVsReference;
    }
    // Same channel statistics: averages within a few dB.
    EXPECT_NEAR(plain_total / 4, ctr_total / 4, 6.0);
}

TEST_F(PartitionFixture, CbcEncryptionAmplifiesDamage)
{
    // CBC fails requirement #2: each flipped ciphertext bit garbles
    // a whole block. At the same channel error rate the CBC
    // pipeline must be clearly worse than CTR on average.
    ModeledChannel channel(3e-3);
    double ctr_total = 0, cbc_total = 0;
    for (u64 seed = 0; seed < 6; ++seed) {
        Rng rng_a(seed + 50), rng_b(seed + 50);
        EncryptionConfig ctr_config;
        ctr_config.mode = CipherMode::CTR;
        ctr_config.key = Bytes(16, 0x33);
        EncryptionConfig cbc_config;
        cbc_config.mode = CipherMode::CBC;
        cbc_config.key = Bytes(16, 0x33);
        ctr_total += storeAndRetrieve(prepared_, channel, rng_a,
                                      ctr_config)
                         .psnrVsReference;
        cbc_total += storeAndRetrieve(prepared_, channel, rng_b,
                                      cbc_config)
                         .psnrVsReference;
    }
    EXPECT_GT(ctr_total, cbc_total);
}

TEST(Pipeline, HeaderBitsCountedInDensity)
{
    Video source = generateSynthetic(tinySpec(42));
    PreparedVideo prepared = prepareVideo(
        source, EncoderConfig{}, EccAssignment::paperTable1());
    double with_headers =
        densityCellsPerPixel(prepared, source.pixelCount());
    // Manually computing payload-only density must give less.
    StorageAccountant acc(3);
    for (const auto &[t, data] : prepared.streams.data)
        acc.addStream(data.size() * 8, EccScheme{t});
    EXPECT_LT(acc.cellsPerPixel(source.pixelCount()), with_headers);
}

} // namespace
} // namespace videoapp
