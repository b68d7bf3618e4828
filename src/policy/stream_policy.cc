#include "policy/stream_policy.h"

namespace videoapp {

namespace {

/** Mirrors the container's per-stream bound (BCH over 512-bit
 * blocks supports t <= 58). */
constexpr int kMaxSchemeT = 58;

/** One entry: schemeT, cipher, degradeClass. */
constexpr std::size_t kEntryBytes = 3;

} // namespace

const char *
streamCipherName(StreamCipher cipher)
{
    switch (cipher) {
    case StreamCipher::Plaintext: return "plaintext";
    case StreamCipher::AesCtr: return "aes-ctr";
    case StreamCipher::AesOfb: return "aes-ofb";
    case StreamCipher::AesLegacy: return "aes-legacy";
    }
    return "unknown";
}

StreamCipher
streamCipherOf(CipherMode mode)
{
    switch (mode) {
    case CipherMode::CTR: return StreamCipher::AesCtr;
    case CipherMode::OFB: return StreamCipher::AesOfb;
    case CipherMode::ECB:
    case CipherMode::CBC:
    case CipherMode::CFB: return StreamCipher::AesLegacy;
    }
    return StreamCipher::AesLegacy;
}

const StreamPolicyEntry *
StreamPolicy::entryFor(int scheme_t) const
{
    for (const StreamPolicyEntry &e : entries)
        if (e.schemeT == scheme_t)
            return &e;
    return nullptr;
}

bool
StreamPolicy::encrypts(int scheme_t) const
{
    const StreamPolicyEntry *e = entryFor(scheme_t);
    return e != nullptr && e->cipher != StreamCipher::Plaintext;
}

bool
StreamPolicy::anyEncrypted() const
{
    for (const StreamPolicyEntry &e : entries)
        if (e.cipher != StreamCipher::Plaintext)
            return true;
    return false;
}

u8
StreamPolicy::degradeClassOf(int scheme_t) const
{
    const StreamPolicyEntry *e = entryFor(scheme_t);
    return e != nullptr ? e->degradeClass : 0;
}

StreamPolicy
buildStreamPolicy(const std::vector<int> &scheme_ts,
                  StreamCipher cipher, u32 key_id, u8 encrypt_min_t)
{
    StreamPolicy policy;
    policy.encryptMinT = encrypt_min_t;
    const std::size_t n = scheme_ts.size();
    policy.entries.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        StreamPolicyEntry entry;
        entry.schemeT = scheme_ts[i];
        // Ascending t is ascending importance, so the last stream
        // is shed last: rank it class 0, the first stream n-1.
        entry.degradeClass = static_cast<u8>(n - 1 - i);
        entry.cipher = (cipher != StreamCipher::Plaintext &&
                        entry.schemeT >= encrypt_min_t)
                           ? cipher
                           : StreamCipher::Plaintext;
        policy.entries.push_back(entry);
    }
    if (policy.anyEncrypted())
        policy.keyId = key_id;
    return policy;
}

void
appendStreamPolicy(ByteWriter &out, const StreamPolicy &policy)
{
    out.putU16(policy.version);
    out.putU32(policy.keyId);
    out.putU8(policy.encryptMinT);
    out.putU16(static_cast<u16>(policy.entries.size()));
    for (const StreamPolicyEntry &e : policy.entries) {
        out.putU8(static_cast<u8>(e.schemeT));
        out.putU8(static_cast<u8>(e.cipher));
        out.putU8(e.degradeClass);
    }
}

bool
parseStreamPolicy(ByteReader &in, StreamPolicy &out)
{
    // A copy of the reader, committed back only on success.
    ByteReader r = in;
    StreamPolicy policy;
    policy.version = r.getU16();
    policy.keyId = r.getU32();
    policy.encryptMinT = r.getU8();
    policy.entries.resize(r.boundedCount(r.getU16(), kEntryBytes));
    if (!r.ok() || policy.version == 0 ||
        policy.version > kStreamPolicyVersion)
        return false;
    int prev_t = -1;
    for (StreamPolicyEntry &entry : policy.entries) {
        const u8 scheme_t = r.getU8();
        const u8 cipher = r.getU8();
        entry.degradeClass = r.getU8();
        if (scheme_t <= prev_t || scheme_t > kMaxSchemeT ||
            cipher > static_cast<u8>(StreamCipher::AesLegacy))
            return false;
        prev_t = scheme_t;
        entry.schemeT = scheme_t;
        entry.cipher = static_cast<StreamCipher>(cipher);
    }
    in = r;
    out = std::move(policy);
    return true;
}

} // namespace videoapp
