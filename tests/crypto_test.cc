/**
 * @file
 * AES core tests against FIPS-197 / SP 800-38A vectors, mode
 * round-trips, and the Section 5 error-propagation properties that
 * decide which modes are compatible with approximate storage.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include "common/rng.h"
#include "crypto/aes.h"
#include "crypto/modes.h"
#include "crypto/stream_crypto.h"

namespace videoapp {
namespace {

Bytes
fromHex(const std::string &hex)
{
    Bytes out;
    for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
        unsigned v;
        std::sscanf(hex.c_str() + i, "%2x", &v);
        out.push_back(static_cast<u8>(v));
    }
    return out;
}

AesBlock
blockFromHex(const std::string &hex)
{
    Bytes b = fromHex(hex);
    AesBlock out{};
    for (std::size_t i = 0; i < kAesBlockSize && i < b.size(); ++i)
        out[i] = b[i];
    return out;
}

std::string
toHex(const u8 *data, std::size_t n)
{
    std::string out;
    char buf[3];
    for (std::size_t i = 0; i < n; ++i) {
        std::snprintf(buf, sizeof(buf), "%02x", data[i]);
        out += buf;
    }
    return out;
}

// --- FIPS-197 Appendix C known-answer tests -------------------------

TEST(Aes, Fips197Aes128)
{
    Bytes key = fromHex("000102030405060708090a0b0c0d0e0f");
    AesBlock pt = blockFromHex("00112233445566778899aabbccddeeff");
    Aes aes(key);
    AesBlock ct = aes.encryptBlock(pt);
    EXPECT_EQ(toHex(ct.data(), 16), "69c4e0d86a7b0430d8cdb78070b4c55a");
    EXPECT_EQ(aes.decryptBlock(ct), pt);
}

TEST(Aes, Fips197Aes192)
{
    Bytes key = fromHex("000102030405060708090a0b0c0d0e0f1011121314151617");
    AesBlock pt = blockFromHex("00112233445566778899aabbccddeeff");
    Aes aes(key);
    AesBlock ct = aes.encryptBlock(pt);
    EXPECT_EQ(toHex(ct.data(), 16), "dda97ca4864cdfe06eaf70a0ec0d7191");
    EXPECT_EQ(aes.rounds(), 12);
    EXPECT_EQ(aes.decryptBlock(ct), pt);
}

TEST(Aes, Fips197Aes256)
{
    Bytes key = fromHex(
        "000102030405060708090a0b0c0d0e0f"
        "101112131415161718191a1b1c1d1e1f");
    AesBlock pt = blockFromHex("00112233445566778899aabbccddeeff");
    Aes aes(key);
    AesBlock ct = aes.encryptBlock(pt);
    EXPECT_EQ(toHex(ct.data(), 16), "8ea2b7ca516745bfeafc49904b496089");
    EXPECT_EQ(aes.rounds(), 14);
    EXPECT_EQ(aes.decryptBlock(ct), pt);
}

TEST(Aes, InverseCipherUndoesRandomBlocks)
{
    // The T-table forward cipher against the independent byte-wise
    // inverse, over random keys of every size and random blocks.
    Rng rng(0xAE5);
    for (std::size_t key_len : {16u, 24u, 32u}) {
        Bytes key(key_len);
        for (auto &b : key)
            b = static_cast<u8>(rng.next());
        Aes aes(key);
        for (int i = 0; i < 1000; ++i) {
            AesBlock pt;
            for (auto &b : pt)
                b = static_cast<u8>(rng.next());
            ASSERT_EQ(aes.decryptBlock(aes.encryptBlock(pt)), pt)
                << "key bytes " << key_len << " block " << i;
        }
    }
}

// --- SP 800-38A mode vectors -----------------------------------------

const char *kNistKey = "2b7e151628aed2a6abf7158809cf4f3c";
const char *kNistPlain1 = "6bc1bee22e409f96e93d7e117393172a";
/** F.1-F.5 plaintext: all four blocks. */
const char *kNistPlain4 = "6bc1bee22e409f96e93d7e117393172a"
                          "ae2d8a571e03ac9c9eb76fac45af8e51"
                          "30c81c46a35ce411e5fbc1191a0a52ef"
                          "f69f2445df4f9b17ad2b417be66c3710";

TEST(Modes, Sp80038aEcbFirstBlock)
{
    Aes aes(fromHex(kNistKey));
    Bytes ct = encrypt(CipherMode::ECB, aes, AesBlock{},
                       fromHex(kNistPlain1));
    EXPECT_EQ(toHex(ct.data(), 16), "3ad77bb40d7a3660a89ecaf32466ef97");
}

TEST(Modes, Sp80038aCbcFirstBlock)
{
    Aes aes(fromHex(kNistKey));
    AesBlock iv = blockFromHex("000102030405060708090a0b0c0d0e0f");
    Bytes ct = encrypt(CipherMode::CBC, aes, iv, fromHex(kNistPlain1));
    EXPECT_EQ(toHex(ct.data(), 16), "7649abac8119b246cee98e9b12e9197d");
}

TEST(Modes, Sp80038aOfbFourBlocks)
{
    Aes aes(fromHex(kNistKey));
    AesBlock iv = blockFromHex("000102030405060708090a0b0c0d0e0f");
    Bytes ct = encrypt(CipherMode::OFB, aes, iv, fromHex(kNistPlain4));
    EXPECT_EQ(toHex(ct.data(), ct.size()),
              "3b3fd92eb72dad20333449f8e83cfb4a"
              "7789508d16918f03f53c52dac54ed825"
              "9740051e9c5fecf64344f7a82260edcc"
              "304c6528f659c77866a510d9c1d6ae5e");
    EXPECT_EQ(decrypt(CipherMode::OFB, aes, iv, ct), fromHex(kNistPlain4));
}

TEST(Modes, Sp80038aCtrFourBlocks)
{
    Aes aes(fromHex(kNistKey));
    AesBlock iv = blockFromHex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
    Bytes ct = encrypt(CipherMode::CTR, aes, iv, fromHex(kNistPlain4));
    EXPECT_EQ(toHex(ct.data(), ct.size()),
              "874d6191b620e3261bef6864990db6ce"
              "9806f66b7970fdff8617187bb9fffdff"
              "5ae4df3edbd5d35e5b4f09020db03eab"
              "1e031dda2fbe03d1792170a0f3009cee");
    EXPECT_EQ(decrypt(CipherMode::CTR, aes, iv, ct), fromHex(kNistPlain4));
}

TEST(Modes, KeystreamModesMatchBlockByBlockReference)
{
    // Random keys, IVs and data of lengths that end mid-block,
    // against a keystream built one encryptBlock call at a time.
    Rng rng(0x5EED);
    auto random_bytes = [&rng](std::size_t n) {
        Bytes out(n);
        for (auto &b : out)
            b = static_cast<u8>(rng.next());
        return out;
    };
    for (std::size_t key_len : {16u, 24u, 32u}) {
        Aes aes(random_bytes(key_len));
        for (std::size_t len : {1u, 15u, 17u, 31u, 33u, 250u, 4099u}) {
            AesBlock iv;
            Bytes iv_bytes = random_bytes(kAesBlockSize);
            std::copy(iv_bytes.begin(), iv_bytes.end(), iv.begin());
            if (len == 250)
                iv.fill(0xFF); // the counter wraps every byte
            Bytes data = random_bytes(len);
            for (CipherMode mode : {CipherMode::OFB, CipherMode::CTR}) {
                Bytes expected(len);
                AesBlock state = iv;
                for (std::size_t off = 0; off < len;
                     off += kAesBlockSize) {
                    AesBlock ks;
                    if (mode == CipherMode::OFB) {
                        state = aes.encryptBlock(state);
                        ks = state;
                    } else {
                        ks = aes.encryptBlock(state);
                        for (int i = kAesBlockSize - 1; i >= 0; --i)
                            if (++state[i] != 0)
                                break;
                    }
                    for (std::size_t i = 0;
                         i < kAesBlockSize && off + i < len; ++i)
                        expected[off + i] = data[off + i] ^ ks[i];
                }
                EXPECT_EQ(encrypt(mode, aes, iv, data), expected)
                    << cipherModeName(mode) << " key bytes " << key_len
                    << " length " << len;
            }
        }
    }
}

// --- Round trips ------------------------------------------------------

class ModeRoundTrip : public ::testing::TestWithParam<CipherMode>
{
};

TEST_P(ModeRoundTrip, EncryptDecryptIdentity)
{
    Rng rng(99);
    Aes aes(fromHex(kNistKey));
    AesBlock iv{};
    for (auto &b : iv)
        b = static_cast<u8>(rng.next());

    for (int size : {16, 64, 256, 4096}) {
        Bytes plain(size);
        for (auto &b : plain)
            b = static_cast<u8>(rng.next());
        Bytes ct = encrypt(GetParam(), aes, iv, plain);
        ASSERT_EQ(ct.size(), plain.size());
        EXPECT_NE(ct, plain);
        Bytes back = decrypt(GetParam(), aes, iv, ct);
        EXPECT_EQ(back, plain);
    }
}

TEST_P(ModeRoundTrip, StreamCryptorRoundTripOddSizes)
{
    Rng rng(123);
    Bytes key = fromHex(kNistKey);
    AesBlock master{};
    StreamCryptor cryptor(GetParam(), key, master);
    for (std::size_t size : {1u, 15u, 17u, 100u, 1000u}) {
        Bytes plain(size);
        for (auto &b : plain)
            b = static_cast<u8>(rng.next());
        Bytes ct = cryptor.encryptStream(3, plain);
        Bytes back = cryptor.decryptStream(3, ct, plain.size());
        EXPECT_EQ(back, plain);
    }
}

INSTANTIATE_TEST_SUITE_P(AllModes, ModeRoundTrip,
                         ::testing::Values(CipherMode::ECB,
                                           CipherMode::CBC,
                                           CipherMode::OFB,
                                           CipherMode::CTR,
                                           CipherMode::CFB),
                         [](const auto &info) {
                             return cipherModeName(info.param);
                         });

// --- Section 5 requirements ------------------------------------------

Bytes
randomPlain(std::size_t size, Rng &rng)
{
    Bytes plain(size);
    for (auto &b : plain)
        b = static_cast<u8>(rng.next());
    return plain;
}

TEST(Section5, OfbConfinesFlipToOneBit)
{
    Rng rng(7);
    Aes aes(fromHex(kNistKey));
    AesBlock iv = blockFromHex("00112233445566778899aabbccddeeff");
    Bytes plain = randomPlain(1024, rng);
    for (BitPos pos : {0u, 100u, 5000u, 8191u}) {
        auto prop = analyzeFlipPropagation(CipherMode::OFB, aes, iv,
                                           plain, pos);
        EXPECT_TRUE(prop.confinedToFlippedBit) << "bit " << pos;
        EXPECT_EQ(prop.damagedBits, 1u);
        EXPECT_EQ(prop.damagedBlocks, 1u);
    }
}

TEST(Section5, CtrConfinesFlipToOneBit)
{
    Rng rng(8);
    Aes aes(fromHex(kNistKey));
    AesBlock iv = blockFromHex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
    Bytes plain = randomPlain(1024, rng);
    for (BitPos pos : {5u, 333u, 4096u, 8000u}) {
        auto prop = analyzeFlipPropagation(CipherMode::CTR, aes, iv,
                                           plain, pos);
        EXPECT_TRUE(prop.confinedToFlippedBit) << "bit " << pos;
    }
}

TEST(Modes, Sp80038aCfbFirstBlock)
{
    Aes aes(fromHex(kNistKey));
    AesBlock iv = blockFromHex("000102030405060708090a0b0c0d0e0f");
    Bytes ct = encrypt(CipherMode::CFB, aes, iv, fromHex(kNistPlain1));
    EXPECT_EQ(toHex(ct.data(), 16), "3b3fd92eb72dad20333449f8e83cfb4a");
}

TEST(Section5, CfbFlipsOneBitButGarblesNextBlock)
{
    // CFB fails requirement #2 differently from CBC: the flipped
    // ciphertext bit flips the same plaintext bit, but the NEXT
    // block decrypts to garbage.
    Rng rng(11);
    Aes aes(fromHex(kNistKey));
    AesBlock iv = blockFromHex("000102030405060708090a0b0c0d0e0f");
    Bytes plain = randomPlain(1024, rng);
    auto prop = analyzeFlipPropagation(CipherMode::CFB, aes, iv,
                                       plain, 2048);
    EXPECT_FALSE(prop.confinedToFlippedBit);
    EXPECT_EQ(prop.damagedBlocks, 2u);
    EXPECT_GT(prop.damagedBits, 30u);
    EXPECT_FALSE(StreamCryptor::approximationCompatible(
        CipherMode::CFB));
}

TEST(Section5, EcbDamagesWholeBlockOnly)
{
    Rng rng(9);
    Aes aes(fromHex(kNistKey));
    Bytes plain = randomPlain(1024, rng);
    auto prop = analyzeFlipPropagation(CipherMode::ECB, aes,
                                       AesBlock{}, plain, 1000);
    EXPECT_FALSE(prop.confinedToFlippedBit);
    EXPECT_EQ(prop.damagedBlocks, 1u);   // contained within a block
    EXPECT_GT(prop.damagedBits, 30u);    // but the block is garbled
}

TEST(Section5, CbcPropagatesAcrossBlocks)
{
    Rng rng(10);
    Aes aes(fromHex(kNistKey));
    AesBlock iv = blockFromHex("000102030405060708090a0b0c0d0e0f");
    Bytes plain = randomPlain(1024, rng);
    // Flip in a middle block: that block garbles and the flip echoes
    // into the next block at the same offset.
    auto prop = analyzeFlipPropagation(CipherMode::CBC, aes, iv, plain,
                                       2048);
    EXPECT_FALSE(prop.confinedToFlippedBit);
    EXPECT_EQ(prop.damagedBlocks, 2u);
    EXPECT_GT(prop.damagedBits, 30u);
}

TEST(Section5, EcbLeaksEqualBlocks)
{
    // 64 copies of the same block: ECB must map them identically.
    Bytes plain;
    for (int i = 0; i < 64; ++i)
        for (int j = 0; j < 16; ++j)
            plain.push_back(static_cast<u8>(j));
    Aes aes(fromHex(kNistKey));
    AesBlock iv = blockFromHex("0f0e0d0c0b0a09080706050403020100");
    EXPECT_DOUBLE_EQ(equalBlockLeakage(CipherMode::ECB, aes, iv, plain),
                     1.0);
    EXPECT_DOUBLE_EQ(equalBlockLeakage(CipherMode::CBC, aes, iv, plain),
                     0.0);
    EXPECT_DOUBLE_EQ(equalBlockLeakage(CipherMode::OFB, aes, iv, plain),
                     0.0);
    EXPECT_DOUBLE_EQ(equalBlockLeakage(CipherMode::CTR, aes, iv, plain),
                     0.0);
}

TEST(Section5, ApproximationCompatibilityClassification)
{
    EXPECT_FALSE(StreamCryptor::approximationCompatible(CipherMode::ECB));
    EXPECT_FALSE(StreamCryptor::approximationCompatible(CipherMode::CBC));
    EXPECT_TRUE(StreamCryptor::approximationCompatible(CipherMode::OFB));
    EXPECT_TRUE(StreamCryptor::approximationCompatible(CipherMode::CTR));
}

TEST(StreamCryptor, DerivedIvsDistinctPerStream)
{
    StreamCryptor cryptor(CipherMode::CTR, fromHex(kNistKey),
                          AesBlock{});
    AesBlock iv0 = cryptor.deriveIv(0);
    AesBlock iv1 = cryptor.deriveIv(1);
    AesBlock iv2 = cryptor.deriveIv(2);
    EXPECT_NE(iv0, iv1);
    EXPECT_NE(iv1, iv2);
    EXPECT_NE(iv0, iv2);
    // Deterministic.
    EXPECT_EQ(cryptor.deriveIv(1), iv1);
}

TEST(StreamCryptor, IndependentStreamsDoNotShareKeystream)
{
    StreamCryptor cryptor(CipherMode::CTR, fromHex(kNistKey),
                          AesBlock{});
    Bytes zeros(256, 0);
    Bytes c0 = cryptor.encryptStream(0, zeros);
    Bytes c1 = cryptor.encryptStream(1, zeros);
    EXPECT_NE(c0, c1);
}

} // namespace
} // namespace videoapp
