/**
 * @file
 * Unit tests for the common substrate: bit I/O, CRC-32, RNG,
 * statistics.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>

#include "common/bitstream.h"
#include "common/bytes.h"
#include "common/crc32.h"
#include "common/rng.h"
#include "common/stats.h"

namespace videoapp {
namespace {

TEST(CopyBits, MatchesABitAtATimeCopy)
{
    // Every alignment of source and destination, lengths across the
    // word boundary, and sources that run out (their missing bits
    // read as 0), against a reference built from getBit.
    Rng rng(91);
    for (int trial = 0; trial < 400; ++trial) {
        Bytes src(1 + rng.nextBelow(40));
        for (auto &b : src)
            b = static_cast<u8>(rng.next());
        Bytes dst(1 + rng.nextBelow(40));
        for (auto &b : dst)
            b = static_cast<u8>(rng.next());
        const u64 dst_bit = rng.nextBelow(dst.size() * 8);
        const u64 count = rng.nextBelow(dst.size() * 8 - dst_bit + 1);
        const u64 src_bit = rng.nextBelow(src.size() * 8 + 16);
        Bytes expect = dst;
        for (u64 i = 0; i < count; ++i) {
            const u64 pos = dst_bit + i;
            const u8 mask = static_cast<u8>(0x80u >> (pos % 8));
            if (getBit(src, src_bit + i))
                expect[pos / 8] |= mask;
            else
                expect[pos / 8] &= static_cast<u8>(~mask);
        }
        copyBits(dst, dst_bit, src, src_bit, count);
        ASSERT_EQ(dst, expect) << "trial " << trial;
    }
}

TEST(BitWriter, PacksMsbFirst)
{
    BitWriter w;
    w.writeBits(0b1011, 4);
    w.writeBits(0b0001, 4);
    Bytes b = w.take();
    ASSERT_EQ(b.size(), 1u);
    EXPECT_EQ(b[0], 0xB1);
}

TEST(BitWriter, BitCountTracksPartialBytes)
{
    BitWriter w;
    EXPECT_EQ(w.bitCount(), 0u);
    w.writeBit(1);
    EXPECT_EQ(w.bitCount(), 1u);
    w.writeBits(0, 10);
    EXPECT_EQ(w.bitCount(), 11u);
}

TEST(BitStream, RoundTripValues)
{
    BitWriter w;
    Rng rng(42);
    std::vector<std::pair<u32, int>> values;
    for (int i = 0; i < 1000; ++i) {
        int count = 1 + static_cast<int>(rng.nextBelow(24));
        u32 v = static_cast<u32>(rng.next()) &
                ((count == 32) ? ~0u : ((1u << count) - 1));
        values.emplace_back(v, count);
        w.writeBits(v, count);
    }
    Bytes bytes = w.take();
    BitReader r(bytes);
    for (auto [v, count] : values)
        EXPECT_EQ(r.readBits(count), v);
}

TEST(BitReader, PastEndReturnsZeros)
{
    Bytes b{0xFF};
    BitReader r(b);
    EXPECT_EQ(r.readBits(8), 0xFFu);
    EXPECT_EQ(r.readBits(16), 0u);
    EXPECT_TRUE(r.exhausted());
}

TEST(BitReader, StartOffsetHonored)
{
    Bytes b{0b10110001, 0b01000000};
    BitReader r(b, 4);
    EXPECT_EQ(r.readBits(6), 0b000101u);
}

TEST(FlipBit, TogglesAndIgnoresOutOfRange)
{
    Bytes b{0x00, 0x00};
    flipBit(b, 0);
    EXPECT_EQ(b[0], 0x80);
    flipBit(b, 15);
    EXPECT_EQ(b[1], 0x01);
    flipBit(b, 15);
    EXPECT_EQ(b[1], 0x00);
    flipBit(b, 99); // no-op
    EXPECT_EQ(getBit(b, 0), 1u);
    EXPECT_EQ(getBit(b, 99), 0u);
}

/** Oracle: the reflected CRC-32 one bit at a time, no tables. */
u32
crc32Oracle(const u8 *data, std::size_t size)
{
    u32 crc = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < size; ++i) {
        crc ^= data[i];
        for (int k = 0; k < 8; ++k)
            crc = (crc & 1) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
    return ~crc;
}

Bytes
noiseBytes(std::size_t n, u64 seed)
{
    Rng rng(seed);
    Bytes out(n);
    for (auto &b : out)
        b = static_cast<u8>(rng.next());
    return out;
}

TEST(ByteCodec, FieldsRoundTripBigEndian)
{
    ByteWriter out;
    out.putU8(0x01);
    out.putU16(0x0203);
    out.putU32(0x04050607);
    out.putU64(0x08090A0B0C0D0E0FULL);
    out.putF64(-0.5);
    out.putString16("ab");
    out.putString32("cde");
    out.putBlob32(Bytes{0xFE});
    ASSERT_TRUE(out.ok());
    const Bytes blob = out.take();
    EXPECT_EQ(Bytes(blob.begin(), blob.begin() + 15),
              (Bytes{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}));

    ByteReader in(blob);
    EXPECT_EQ(in.getU8(), 0x01);
    EXPECT_EQ(in.getU16(), 0x0203);
    EXPECT_EQ(in.getU32(), 0x04050607u);
    EXPECT_EQ(in.getU64(), 0x08090A0B0C0D0E0FULL);
    EXPECT_EQ(in.getF64(), -0.5);
    EXPECT_EQ(in.getString16(), "ab");
    EXPECT_EQ(in.getString32(), "cde");
    EXPECT_EQ(in.getBlob32(), Bytes{0xFE});
    EXPECT_TRUE(in.exhausted());
}

TEST(ByteCodec, ReaderErrorIsSticky)
{
    const Bytes blob = {0x00, 0x07, 0xAA};
    ByteReader in(blob);
    EXPECT_EQ(in.getU32(), 0u); // 3 bytes left: fails whole
    EXPECT_FALSE(in.ok());
    EXPECT_EQ(in.pos(), 0u);
    // Every later read fails too, even one that would fit.
    EXPECT_EQ(in.getU8(), 0u);
    EXPECT_EQ(in.getString16(), "");
    EXPECT_TRUE(in.getRaw(0).empty());
    EXPECT_EQ(in.remaining(), 0u);
    EXPECT_FALSE(in.exhausted());
}

TEST(ByteCodec, BoundedCountRefusesWhatCannotFit)
{
    const Bytes blob(12, 0);
    ByteReader in(blob);
    EXPECT_EQ(in.boundedCount(3, 4), 3u);
    EXPECT_TRUE(in.ok());
    EXPECT_EQ(in.boundedCount(4, 4), 0u); // 16 bytes > 12
    EXPECT_FALSE(in.ok());
    // A failed reader bounds every count to 0.
    ByteReader failed(blob);
    failed.getRaw(13);
    EXPECT_EQ(failed.boundedCount(1, 1), 0u);
}

TEST(ByteCodec, String16RefusesToTruncate)
{
    ByteWriter out;
    out.putString16(std::string(0xFFFF, 'x'));
    EXPECT_TRUE(out.ok());
    EXPECT_EQ(out.size(), 2u + 0xFFFF);
    out.putString16(std::string(0x10000, 'x'));
    EXPECT_FALSE(out.ok());
    EXPECT_EQ(out.size(), 2u + 0xFFFF); // nothing written
}

TEST(Crc32, KnownAnswers)
{
    EXPECT_EQ(crc32(nullptr, 0), 0x00000000u);
    EXPECT_EQ(crc32(Bytes{}), 0x00000000u);
    const u8 a = 'a';
    EXPECT_EQ(crc32(&a, 1), 0xE8B7BE43u);
    const char *check = "123456789";
    EXPECT_EQ(crc32(reinterpret_cast<const u8 *>(check),
                    std::strlen(check)),
              0xCBF43926u);
}

TEST(Crc32, MatchesOracleAtEveryOffsetAndLength)
{
    // Offsets 0-15 cover every alignment of the 16-byte stride;
    // lengths 0-300 cover every tail length many times over.
    Bytes buf = noiseBytes(16 + 300, 7);
    for (std::size_t off = 0; off < 16; ++off)
        for (std::size_t len = 0; len <= 300; ++len)
            ASSERT_EQ(crc32(buf.data() + off, len),
                      crc32Oracle(buf.data() + off, len))
                << "offset " << off << " length " << len;
    Bytes big = noiseBytes(std::size_t{1} << 20, 8);
    EXPECT_EQ(crc32(big), crc32Oracle(big.data(), big.size()));
}

TEST(Crc32, ChainedUpdatesEqualOneShotAtEverySplit)
{
    Bytes buf = noiseBytes(300, 9);
    const u32 whole = crc32(buf);
    ASSERT_EQ(whole, crc32Oracle(buf.data(), buf.size()));
    for (std::size_t split = 0; split <= buf.size(); ++split) {
        u32 crc = crc32Update(0, buf.data(), split);
        crc = crc32Update(crc, buf.data() + split, buf.size() - split);
        ASSERT_EQ(crc, whole) << "split " << split;
    }
}

TEST(Rng, DeterministicForSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, NextBelowBounds)
{
    Rng rng(11);
    std::set<u64> seen;
    for (int i = 0; i < 3000; ++i) {
        u64 v = rng.nextBelow(17);
        EXPECT_LT(v, 17u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 17u); // all values hit
}

TEST(Rng, GaussianMoments)
{
    Rng rng(5);
    RunningStats stats;
    for (int i = 0; i < 200000; ++i)
        stats.add(rng.nextGaussian());
    EXPECT_NEAR(stats.mean(), 0.0, 0.02);
    EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

TEST(Rng, BinomialSmallMeanMatches)
{
    Rng rng(9);
    const u64 n = 1000;
    const double p = 0.002; // mean 2
    RunningStats stats;
    for (int i = 0; i < 50000; ++i)
        stats.add(static_cast<double>(rng.nextBinomial(n, p)));
    EXPECT_NEAR(stats.mean(), n * p, 0.05);
    EXPECT_NEAR(stats.variance(), n * p * (1 - p), 0.15);
}

TEST(Rng, BinomialLargeMeanMatches)
{
    Rng rng(13);
    const u64 n = 100000;
    const double p = 0.01; // mean 1000 -> normal approximation path
    RunningStats stats;
    for (int i = 0; i < 20000; ++i)
        stats.add(static_cast<double>(rng.nextBinomial(n, p)));
    EXPECT_NEAR(stats.mean(), 1000.0, 2.0);
    EXPECT_NEAR(stats.stddev(), std::sqrt(n * p * (1 - p)), 1.0);
}

TEST(Rng, BinomialEdgeCases)
{
    Rng rng(1);
    EXPECT_EQ(rng.nextBinomial(100, 0.0), 0u);
    EXPECT_EQ(rng.nextBinomial(100, 1.0), 100u);
    EXPECT_EQ(rng.nextBinomial(0, 0.5), 0u);
}

TEST(Stats, BinomialTailMatchesExactEnumeration)
{
    // P(X > 1) for Bin(3, 0.5) = (3 + 1) / 8 = 0.5.
    EXPECT_NEAR(binomialTailAbove(3, 0.5, 1), 0.5, 1e-12);
    // P(X > 0) = 1 - (1-p)^n.
    EXPECT_NEAR(binomialTailAbove(10, 0.1, 0),
                1.0 - std::pow(0.9, 10), 1e-12);
    // Degenerate cases.
    EXPECT_EQ(binomialTailAbove(10, 0.0, 0), 0.0);
    EXPECT_EQ(binomialTailAbove(10, 0.5, 10), 0.0);
    EXPECT_EQ(binomialTailAbove(10, 0.5, -1), 1.0);
}

TEST(Stats, BinomialTailHandlesTinyProbabilities)
{
    // 572-bit BCH-6 block at 1e-3 raw BER: known to be ~2e-6.
    double tail = binomialTailAbove(572, 1e-3, 6);
    EXPECT_GT(tail, 1e-7);
    EXPECT_LT(tail, 1e-5);
    // Deep tail should be tiny but positive.
    double deep = binomialTailAbove(672, 1e-3, 16);
    EXPECT_GT(deep, 0.0);
    EXPECT_LT(deep, 1e-15);
}

TEST(Stats, RunningStatsBasics)
{
    RunningStats s;
    for (double v : {1.0, 2.0, 3.0, 4.0})
        s.add(v);
    EXPECT_EQ(s.count(), 4u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.5);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 4.0);
    EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
}

TEST(Stats, MeanOfVector)
{
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    EXPECT_DOUBLE_EQ(mean({2.0, 4.0}), 3.0);
}

} // namespace
} // namespace videoapp
