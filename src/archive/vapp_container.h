/**
 * @file
 * The VAPP archive container: a versioned on-disk format that makes
 * the paper's storage layout durable. One file holds many videos;
 * each video record keeps the precise parts (stream/frame headers
 * with pivot tables, per-stream ECC level and length metadata,
 * AES mode/key-id/nonce metadata) next to the raw MLC PCM cell
 * images of its partitioned streams, so a written archive *is* the
 * modeled device — reopening it and decoding goes through the same
 * BCH/decrypt/merge pipeline as an in-memory round trip.
 *
 * Layout (all integers big-endian, written and read with the shared
 * byte codec of common/bytes.h):
 *
 *   superblock (32 bytes, offset 0)
 *     u32 magic "VAPA"        u32 formatVersion
 *     u64 directoryOffset     u64 directoryLength
 *     u32 directoryCrc        u32 superblockCrc (bytes 0..27)
 *   records (one per video, back to back)
 *     meta  — CRC-protected precise metadata (see .cc): headers,
 *             crypto (with a key-check value since version 2),
 *             per-stream shape, and (version 2) the StreamPolicy
 *     cells — per-stream cell images, NOT checksummed: these are the
 *             approximate bits, and degrading them is the point
 *   directory (at directoryOffset)
 *     u32 videoCount, then per video: name (u16 length, so at most
 *     kMaxArchiveNameBytes), record offset/length, meta length,
 *     meta CRC
 *     (version 3) u32 replicaCount, then per replica: name and the
 *     held precise-meta blob inline — replica blobs a shard holds
 *     for its ring peers are small and CRC-covered by the directory
 *     CRC, and persisting them is what lets a dead peer be rebuilt
 *     after every process that held them in memory has restarted
 *
 * Versioning rules: the major format version is bumped on any
 * incompatible layout change; readers reject files whose version is
 * newer than kVappFormatVersion and accept older ones. Record meta
 * is length-prefixed, so future minor additions can append fields
 * that old readers skip.
 *
 * Every reader path is total: bad magic, short reads, CRC
 * mismatches and malformed counts return ArchiveError values, never
 * crash (fuzzed by the format table in tests/format_test.cc).
 */

#ifndef VIDEOAPP_ARCHIVE_VAPP_CONTAINER_H_
#define VIDEOAPP_ARCHIVE_VAPP_CONTAINER_H_

#include <map>
#include <optional>
#include <span>
#include <string>

#include "codec/container.h"
#include "crypto/stream_crypto.h"
#include "policy/stream_policy.h"
#include "storage/approx_store.h"

namespace videoapp {

/** "VAPA" — distinct from the codec blob's "VAP1". */
inline constexpr u32 kVappMagic = 0x56415041;

/** Current container format version. Version 2 added the optional
 * key-check value in the crypto section and the per-stream policy
 * record; version 3 added the held-replica section in the directory.
 * Older files still parse, and writers emit the oldest version that
 * can represent the archive (no replicas held → version 2 layout). */
inline constexpr u32 kVappFormatVersion = 3;

/** Oldest format version readers still accept. */
inline constexpr u32 kVappMinFormatVersion = 1;

/** Longest video or replica name the directory's u16 length prefix
 * can carry; longer names are refused with NameTooLong. */
inline constexpr std::size_t kMaxArchiveNameBytes = 0xFFFF;

/** Why an archive operation failed. */
enum class ArchiveError
{
    None,
    Io,           // cannot open/read/write/rename the file
    BadMagic,     // not a VAPP archive
    BadVersion,   // written by a newer format revision
    ShortRead,    // file truncated mid-structure
    CrcMismatch,  // precise metadata failed its integrity check
    Malformed,    // counts/offsets inconsistent with the file
    NotFound,     // no such video in the archive
    KeyRequired,  // record is encrypted and no key was supplied
    KeyMismatch,  // supplied key fails the record's key check
    NameTooLong,  // name beyond kMaxArchiveNameBytes
};

/** Stable name for logs and CLI messages. */
const char *archiveErrorName(ArchiveError error);

/** One reliability stream of an archived video. */
struct StreamRecord
{
    /** BCH correction capability (0 = unprotected). */
    int schemeT = 0;
    /** Exact payload bit length (pre byte-padding). */
    u64 bitLength = 0;
    /** Plaintext byte size (trims cipher padding after decrypt). */
    u64 trueBytes = 0;
    /** CRC of the pristine cells at put time; scrub compares the
     * repaired image against it to detect miscorrections. */
    u32 cellsCrc = 0;
    /** The modeled PCM cells holding this stream. */
    CellImage image;
};

/** One archived video: the precise metadata plus its cell images. */
struct VideoRecord
{
    /** Precise layout: headers, pivots, per-frame payload sizes.
     * Payload bytes are zero-filled placeholders (only their sizes
     * are persisted); real content lives in the stream images. */
    EncodedVideo layout;
    /** Set when the streams were encrypted before storage. */
    std::optional<StreamCryptoMeta> crypto;
    /** Per-stream treatment record (absent on version-1 records). */
    std::optional<StreamPolicy> policy;
    /** Streams in ascending schemeT order. */
    std::vector<StreamRecord> streams;

    u64 payloadBytes() const;
    u64 cellBytes() const;
};

/** An in-memory archive: what one VAPP file holds. */
struct Archive
{
    u32 version = kVappFormatVersion;
    /** Keyed (and serialized) by name, sorted. */
    std::map<std::string, VideoRecord> videos;
    /** Replica precise-meta blobs held on behalf of ring peers
     * (cluster tier). Serialized only when non-empty, which bumps
     * the written file to version 3. */
    std::map<std::string, Bytes> replicas;
};

// --- precise-metadata blobs (replication) ------------------------------

/** One stream's precise metadata (everything but the cells). */
struct StreamMeta
{
    int schemeT = 0;
    u64 bitLength = 0;
    u64 trueBytes = 0;
    /** Payload bytes held by the stream's cell image. */
    u64 payloadBytes = 0;
    /** Byte length of the cell image (shape, not content). */
    u64 cellLength = 0;
    u32 cellsCrc = 0;
};

/**
 * A record's precise metadata as a standalone value: the CRC-checked
 * small part of a video record (layout, crypto, per-stream shape),
 * with the approximate cell images deliberately absent. This is the
 * unit of cluster replication — the blob a shard ships to its ring
 * successors so a damaged owner record can be repaired without ever
 * copying the (large, single-copy, ECC-protected) cells.
 */
struct RecordMeta
{
    EncodedVideo layout;
    std::optional<StreamCryptoMeta> crypto;
    std::optional<StreamPolicy> policy;
    std::vector<StreamMeta> streams;
};

/** Serialize @p record's precise metadata (the container's on-disk
 * record-meta encoding, reused verbatim as the replication blob). */
Bytes serializeRecordMeta(const VideoRecord &record);

/**
 * Parse a precise-meta blob. Total like every container reader.
 * @p payload_bound caps the claimed per-frame payload total so a
 * hostile blob cannot drive allocation (pass the enclosing record
 * length when parsing from a container, or a transport cap when
 * parsing a replication blob).
 */
ArchiveError parseRecordMeta(std::span<const u8> meta, RecordMeta &out,
                             u64 payload_bound);

/**
 * Parse one whole record: its precise @p meta (bounded as in
 * parseRecordMeta) and @p cells, which must hold exactly the stream
 * cell images the meta describes, back to back in stream order.
 */
ArchiveError parseRecord(std::span<const u8> meta,
                         std::span<const u8> cells, u64 payload_bound,
                         VideoRecord &record);

/** Serialize to the container byte layout documented above; empty
 * when a name exceeds kMaxArchiveNameBytes. */
Bytes serializeArchive(const Archive &archive);

/** Parse a container blob. @p out is valid only on None. */
ArchiveError parseArchive(const Bytes &blob, Archive &out);

/** Read and parse @p path. */
ArchiveError readArchive(const std::string &path, Archive &out);

/**
 * Serialize and write @p path atomically (temp file in the same
 * directory, then rename), so a crashed writer never leaves a
 * half-written archive behind. NameTooLong, and nothing written,
 * when serializeArchive refuses the archive.
 */
ArchiveError writeArchive(const Archive &archive,
                          const std::string &path);

} // namespace videoapp

#endif // VIDEOAPP_ARCHIVE_VAPP_CONTAINER_H_
