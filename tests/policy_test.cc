/**
 * @file
 * StreamPolicy tests: building the per-stream treatment record from
 * an importance partition, the canonical serialization and its
 * hostile-input rejection paths, and the versioning contract (suite
 * names contain "Policy" so the TSan CI job picks them up).
 */

#include <gtest/gtest.h>

#include "policy/stream_policy.h"

namespace videoapp {
namespace {

const std::vector<int> kTable1Ts = {0, 2, 6, 16, 31};

// --- building ---------------------------------------------------------

TEST(PolicyBuild, FullEncryptionCoversEveryStream)
{
    StreamPolicy policy = buildStreamPolicy(
        kTable1Ts, StreamCipher::AesCtr, 7, 0);
    EXPECT_EQ(policy.version, kStreamPolicyVersion);
    EXPECT_EQ(policy.keyId, 7u);
    EXPECT_EQ(policy.encryptMinT, 0u);
    ASSERT_EQ(policy.entries.size(), kTable1Ts.size());
    for (std::size_t i = 0; i < kTable1Ts.size(); ++i) {
        EXPECT_EQ(policy.entries[i].schemeT, kTable1Ts[i]);
        EXPECT_EQ(policy.entries[i].cipher, StreamCipher::AesCtr);
        EXPECT_TRUE(policy.encrypts(kTable1Ts[i]));
    }
    EXPECT_TRUE(policy.anyEncrypted());
}

TEST(PolicyBuild, SelectiveThresholdLeavesLowStreamsPlaintext)
{
    // encryptMinT = 6: the t=0 and t=2 streams stay in the clear,
    // the three most-protected (most important) streams pay for AES.
    StreamPolicy policy = buildStreamPolicy(
        kTable1Ts, StreamCipher::AesOfb, 3, 6);
    EXPECT_FALSE(policy.encrypts(0));
    EXPECT_FALSE(policy.encrypts(2));
    EXPECT_TRUE(policy.encrypts(6));
    EXPECT_TRUE(policy.encrypts(16));
    EXPECT_TRUE(policy.encrypts(31));
    EXPECT_TRUE(policy.anyEncrypted());
    EXPECT_EQ(policy.encryptMinT, 6u);

    // A threshold above every stream encrypts nothing.
    StreamPolicy none = buildStreamPolicy(
        kTable1Ts, StreamCipher::AesCtr, 3, 58);
    EXPECT_FALSE(none.anyEncrypted());
}

TEST(PolicyBuild, PlaintextCipherEncryptsNothing)
{
    StreamPolicy policy = buildStreamPolicy(
        kTable1Ts, StreamCipher::Plaintext, 0, 0);
    EXPECT_FALSE(policy.anyEncrypted());
    for (int t : kTable1Ts)
        EXPECT_FALSE(policy.encrypts(t));
}

TEST(PolicyBuild, DegradeClassesRankMostImportantFirst)
{
    StreamPolicy policy = buildStreamPolicy(
        kTable1Ts, StreamCipher::AesCtr, 1, 0);
    // Ascending t is ascending importance: the strongest stream is
    // class 0 (shed last), the weakest is class n-1 (shed first).
    EXPECT_EQ(policy.degradeClassOf(31), 0u);
    EXPECT_EQ(policy.degradeClassOf(16), 1u);
    EXPECT_EQ(policy.degradeClassOf(6), 2u);
    EXPECT_EQ(policy.degradeClassOf(2), 3u);
    EXPECT_EQ(policy.degradeClassOf(0), 4u);
    // Unknown streams rank class 0: never shed by mistake.
    EXPECT_EQ(policy.degradeClassOf(42), 0u);
    EXPECT_EQ(policy.entryFor(42), nullptr);
}

// --- serialization ----------------------------------------------------

Bytes
policyBlob(const StreamPolicy &policy)
{
    ByteWriter out;
    appendStreamPolicy(out, policy);
    return out.take();
}

/** True when @p blob parses whole as one policy record. */
bool
parsesWhole(const Bytes &blob, StreamPolicy &parsed)
{
    ByteReader in(blob);
    return parseStreamPolicy(in, parsed) && in.exhausted();
}

TEST(PolicyWire, RoundTripIsExactAndCanonical)
{
    StreamPolicy policy = buildStreamPolicy(
        kTable1Ts, StreamCipher::AesCtr, 99, 6);
    Bytes blob = policyBlob(policy);

    StreamPolicy parsed;
    ASSERT_TRUE(parsesWhole(blob, parsed));
    EXPECT_EQ(parsed, policy);
    // Canonical: re-serializing reproduces the exact bytes.
    EXPECT_EQ(policyBlob(parsed), blob);
}

TEST(PolicyWire, EveryTruncationFailsWithoutCommittingPos)
{
    Bytes blob = policyBlob(
        buildStreamPolicy(kTable1Ts, StreamCipher::AesOfb, 5, 0));
    for (std::size_t len = 0; len < blob.size(); ++len) {
        StreamPolicy parsed;
        ByteReader in(blob.data(), len);
        EXPECT_FALSE(parseStreamPolicy(in, parsed))
            << "prefix length " << len;
        // A failed parse leaves the caller's reader untouched.
        EXPECT_EQ(in.pos(), 0u) << "prefix length " << len;
        EXPECT_TRUE(in.ok()) << "prefix length " << len;
    }
}

TEST(PolicyWire, NewerVersionRejected)
{
    Bytes blob = policyBlob(
        buildStreamPolicy(kTable1Ts, StreamCipher::AesCtr, 1, 0));
    // Version is the leading big-endian u16: a future revision must
    // be refused, never misread.
    blob[0] = 0xFF;
    StreamPolicy parsed;
    EXPECT_FALSE(parsesWhole(blob, parsed));
}

TEST(PolicyWire, HostileEntriesRejected)
{
    const StreamPolicy policy = buildStreamPolicy(
        kTable1Ts, StreamCipher::AesCtr, 1, 0);
    std::vector<StreamPolicy> hostile(3, policy);
    // Out-of-range cipher code.
    hostile[0].entries[1].cipher = static_cast<StreamCipher>(9);
    // Non-ascending schemeT (duplicate).
    hostile[1].entries[1].schemeT = policy.entries[0].schemeT;
    // schemeT beyond the BCH family (t > 58).
    hostile[2].entries.back().schemeT = 59;
    for (const StreamPolicy &bad : hostile) {
        StreamPolicy parsed;
        EXPECT_FALSE(parsesWhole(policyBlob(bad), parsed));
    }
}

TEST(PolicyWire, CipherModeMapping)
{
    EXPECT_EQ(streamCipherOf(CipherMode::CTR),
              StreamCipher::AesCtr);
    EXPECT_EQ(streamCipherOf(CipherMode::OFB),
              StreamCipher::AesOfb);
    EXPECT_EQ(streamCipherOf(CipherMode::ECB),
              StreamCipher::AesLegacy);
    EXPECT_EQ(streamCipherOf(CipherMode::CBC),
              StreamCipher::AesLegacy);
    EXPECT_EQ(streamCipherOf(CipherMode::CFB),
              StreamCipher::AesLegacy);
}

} // namespace
} // namespace videoapp
