/**
 * @file
 * StreamPolicy: one versioned record of how every stream of a video
 * may be treated — its ECC scheme, its cipher, and how early the
 * serving layer may shed it under load.
 *
 * The paper's central idea is that per-stream importance drives how
 * aggressively each stream may degrade. Before this layer existed
 * that decision was re-derived independently by the ECC assignment,
 * the cipher setup, the container metadata and the server's Partial
 * path. The policy is now computed once at encode/put time from the
 * importance partition and persisted with the record, so every layer
 * consumes the same answer:
 *
 *  - `schemeT` is the stream's BCH correction capability (ascending
 *    scheme t is ascending importance — the assignment is monotone).
 *  - `cipher` says whether the stream is stored encrypted and under
 *    which approximation-compatible mode (selective encryption: only
 *    streams at or above the config's threshold pay for AES).
 *  - `degradeClass` ranks streams from most important (0) to least;
 *    a server shedding at threshold K skips every stream with
 *    degradeClass >= K and serves the reduced-fidelity remainder.
 *
 * Versioning: a policy blob leads with its version. Parsers accept
 * any version <= kStreamPolicyVersion and reject newer ones, so a
 * downgraded reader never misinterprets fields it does not know.
 */

#ifndef VIDEOAPP_POLICY_STREAM_POLICY_H_
#define VIDEOAPP_POLICY_STREAM_POLICY_H_

#include <vector>

#include "common/bytes.h"
#include "crypto/modes.h"

namespace videoapp {

/** Current (and oldest supported) policy record version. */
inline constexpr u16 kStreamPolicyVersion = 1;

/**
 * Per-stream cipher treatment. Plaintext marks a stream selective
 * encryption left in the clear; AesCtr/AesOfb are the two
 * approximation-compatible modes of Section 5; AesLegacy covers
 * records stored under a block mode (ECB/CBC/CFB) — kept decodable,
 * never chosen by the policy builder for new selective records.
 */
enum class StreamCipher : u8
{
    Plaintext = 0,
    AesCtr = 1,
    AesOfb = 2,
    AesLegacy = 3,
};

const char *streamCipherName(StreamCipher cipher);

/** The StreamCipher a CipherMode stores under. */
StreamCipher streamCipherOf(CipherMode mode);

/** How one stream may be treated. */
struct StreamPolicyEntry
{
    /** BCH correction capability t (0 = unprotected). */
    int schemeT = 0;
    StreamCipher cipher = StreamCipher::Plaintext;
    /** Shedding rank: 0 = most important, shed last. */
    u8 degradeClass = 0;

    bool
    operator==(const StreamPolicyEntry &o) const
    {
        return schemeT == o.schemeT && cipher == o.cipher &&
               degradeClass == o.degradeClass;
    }
};

/**
 * The per-video policy record, persisted in the container's precise
 * metadata and replicated with it. Entries are ascending in schemeT
 * (the stream set's natural order) and cover every stream.
 */
struct StreamPolicy
{
    u16 version = kStreamPolicyVersion;
    /** Key-management id the encrypted streams are stored under
     * (0 when every entry is Plaintext). */
    u32 keyId = 0;
    /** The minimum scheme t selective encryption encrypted at put
     * time (0 = everything; recorded for introspection). */
    u8 encryptMinT = 0;
    std::vector<StreamPolicyEntry> entries;

    /** Entry for stream @p scheme_t, nullptr when unknown. */
    const StreamPolicyEntry *entryFor(int scheme_t) const;

    /** True when stream @p scheme_t is stored encrypted. */
    bool encrypts(int scheme_t) const;

    /** True when any entry is stored encrypted. */
    bool anyEncrypted() const;

    /** Shedding rank of stream @p scheme_t (0 when unknown, so an
     * unknown stream is never shed). */
    u8 degradeClassOf(int scheme_t) const;

    bool
    operator==(const StreamPolicy &o) const
    {
        return version == o.version && keyId == o.keyId &&
               encryptMinT == o.encryptMinT && entries == o.entries;
    }
};

/**
 * Build the policy for a stream set at put time. @p scheme_ts are
 * the streams' scheme t values in ascending order (the StreamSet map
 * order). Streams at or above @p encrypt_min_t get @p cipher (pass
 * Plaintext for an unencrypted record); degrade classes rank the
 * streams most-important-first, so the highest-t stream is class 0.
 */
StreamPolicy buildStreamPolicy(const std::vector<int> &scheme_ts,
                               StreamCipher cipher, u32 key_id,
                               u8 encrypt_min_t);

/**
 * Canonical serialization, appended to @p out with the shared byte
 * codec (common/bytes.h):
 *   u16 version   u32 keyId   u8 encryptMinT
 *   u16 entryCount, then per entry: u8 schemeT, u8 cipher,
 *   u8 degradeClass.
 */
void appendStreamPolicy(ByteWriter &out, const StreamPolicy &policy);

/**
 * Parse a policy record at @p in, advancing it. Total: returns false,
 * leaving @p in untouched, on truncation, a version newer than
 * kStreamPolicyVersion, an out-of-range cipher, or entries that are
 * not strictly ascending in schemeT <= 58.
 */
bool parseStreamPolicy(ByteReader &in, StreamPolicy &out);

} // namespace videoapp

#endif // VIDEOAPP_POLICY_STREAM_POLICY_H_
