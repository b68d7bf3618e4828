/**
 * @file
 * Concurrent video store service over the VAPP container.
 *
 * put() runs a prepared video's streams through cell-image export
 * (optionally encrypting first, Section 5.3) and files the record;
 * get() re-reads the modeled device — with optional error injection
 * at a chosen raw BER, reproducing the in-memory pipeline bit for
 * bit at equal seeds — and decodes through the existing pipeline;
 * scrub() re-reads every block of every stream, counts BCH
 * corrections and detected miscorrections, and rewrites degraded
 * blocks (the paper's 3-month scrub interval made an operation).
 *
 * Thread safety: all operations may be called concurrently,
 * including from common/parallel pool workers. A reader-writer
 * directory lock guards the name -> record map; per-video sharded
 * mutexes (16 shards, keyed by name hash) serialize access to a
 * record's cells, so operations on different videos proceed in
 * parallel. Stochastic operations draw per-stream/per-video seeds
 * deterministically before any parallel region, so results are
 * bit-identical at any thread count.
 *
 * Durability: mutations act on the in-memory archive; flush()
 * persists atomically (temp + rename). open() + get() after a
 * process restart reproduces the exact stored bitstreams.
 */

#ifndef VIDEOAPP_ARCHIVE_ARCHIVE_SERVICE_H_
#define VIDEOAPP_ARCHIVE_ARCHIVE_SERVICE_H_

#include <array>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "archive/vapp_container.h"
#include "core/pipeline.h"

namespace videoapp {

struct ArchivePutOptions
{
    /** Encrypt each stream before storage (mode/key/IV/keyId). */
    std::optional<EncryptionConfig> encryption;
};

struct ArchiveGetOptions
{
    /**
     * When > 0, age a copy of the device at this raw bit error rate
     * before decoding (the stored image itself is untouched). At the
     * paper's 1e-3 with the same seed, the decode is bit-identical
     * to the in-memory RealBchChannel round trip.
     */
    double injectRawBer = 0.0;
    u64 seed = 1;
    /** Conceal slices the decoder flags as damaged. */
    bool conceal = false;
    /** Decryption key; required when the record is encrypted. */
    Bytes key;
    /**
     * Load shedding: when > 0, streams whose policy degradation
     * class is >= this are not read at all — they are served
     * zero-filled at their true length, skipping cell reads, BCH
     * decode and decryption entirely. Class 0 (the most important
     * stream) is never shed. Records without a stored policy fall
     * back to rank-by-position (streams are ascending-importance).
     */
    int shedDegradeClass = 0;
    /**
     * Ranged read: decode only this GOP (gopRanges numbering) by
     * merging and decoding its reference closure. The streams are
     * still read, corrected and decrypted whole, so the cell
     * statistics, and every frame returned, equal the whole-video
     * read's at the same seed. Unset: the whole video. A GOP past
     * the last reads nothing and returns no frames.
     */
    std::optional<u32> gop;
};

struct ArchiveGetResult
{
    ArchiveError error = ArchiveError::None;
    /** Display frames [firstFrame, firstFrame + decoded.frames.size())
     * of the video: all of them, or the requested GOP's. */
    Video decoded;
    u32 firstFrame = 0;
    /** The video's GOPs (gopRanges over the precise headers), whatever
     * was decoded: the serving layer numbers GOPs by them. */
    std::vector<GopRange> gops;
    /** The retrieved (decrypted, exact-length) streams. */
    StreamSet streams;
    CellReadStats cells;
    /** Precise per-frame headers of the record (encode order). */
    std::vector<FrameHeader> frameHeaders;
    /** Streams skipped by load shedding (served zero-filled). */
    u64 streamsShed = 0;
    /** Stored payload bytes those shed streams did not read. */
    u64 bytesShed = 0;
};

struct ScrubOptions
{
    /** When > 0, age every stored image at this raw BER first —
     * models the time since the last scrub pass. */
    double ageRawBer = 0.0;
    u64 seed = 1;
};

struct ScrubReport
{
    u64 videos = 0;
    u64 streams = 0;
    CellReadStats cells;
    /** Corrected blocks whose repaired codeword was written back. */
    u64 blocksRewritten = 0;
    /** Streams fully "corrected" whose repaired image still deviates
     * from its pristine CRC: at least one silent miscorrection. */
    u64 streamsMiscorrected = 0;
    /** Streams left with uncorrectable blocks. */
    u64 streamsDamaged = 0;
};

/** Tally of one re-key pass over the archive. */
struct RekeyReport
{
    /** Records re-encrypted under the new config. */
    u64 videos = 0;
    /** Streams whose cells were rewritten (decrypted and/or
     * re-encrypted; plaintext-to-plaintext streams are untouched). */
    u64 streamsRecrypted = 0;
    /** Records left alone because the supplied old key failed their
     * key check (counted, never silently corrupted). */
    u64 keyMismatches = 0;
    /** Records removed between the snapshot and the visit. */
    u64 skipped = 0;
};

/** Tally of one key-epoch GC scan (see verifyKeyEpochs). */
struct KeyEpochReport
{
    /** Records scanned. */
    u64 videos = 0;
    /** Records carrying crypto metadata. */
    u64 encrypted = 0;
    /** Highest key-id referenced by any record (the live epoch). */
    u32 newestKeyId = 0;
    /** Encrypted records still referencing a key-id older than the
     * expected one — retired epochs a completed rekey should have
     * erased. */
    std::vector<std::string> staleNames;
    /** Records whose crypto key-id and policy key-id disagree (a
     * half-applied rotation). */
    std::vector<std::string> inconsistentNames;

    bool
    clean() const
    {
        return staleNames.empty() && inconsistentNames.empty();
    }
};

/** Directory listing entry (archive stat). */
struct ArchiveVideoStat
{
    std::string name;
    int width = 0;
    int height = 0;
    std::size_t frames = 0;
    std::size_t streamCount = 0;
    u64 payloadBytes = 0;
    u64 cellBytes = 0;
    bool encrypted = false;
};

class ArchiveService
{
  public:
    explicit ArchiveService(std::string path);
    ArchiveService(const ArchiveService &) = delete;
    ArchiveService &operator=(const ArchiveService &) = delete;

    /**
     * Load the archive at the configured path. A missing file is an
     * empty archive when @p create_if_missing (the file appears on
     * first flush); any other read problem is the error.
     */
    ArchiveError open(bool create_if_missing = true);

    /** Persist the current state atomically. */
    ArchiveError flush();

    /** Store (or replace) @p name. Encoding runs on the pool. When
     * @p cell_bytes is set it receives the stored record's cell-image
     * bytes (its stat() cellBytes). NameTooLong, before any work,
     * for a name beyond kMaxArchiveNameBytes. */
    ArchiveError put(const std::string &name,
                     const PreparedVideo &prepared,
                     const ArchivePutOptions &options = {},
                     u64 *cell_bytes = nullptr);

    /** Retrieve and decode @p name: the whole video, or one GOP of
     * it (options.gop). */
    ArchiveGetResult get(const std::string &name,
                         const ArchiveGetOptions &options = {}) const;

    /**
     * Build every BCH decode table @p name's streams use, ahead of
     * a get(). Code construction costs orders of magnitude more
     * than one block decode, so a single-flight decode leader calls
     * this once and every coalesced request's block decodes then
     * hit the shared table cache's lock-free fast path. Unknown
     * names are a no-op.
     */
    void prewarmCodes(const std::string &name) const;

    /** Scrub every video (videos run on the pool). */
    ScrubReport scrub(const ScrubOptions &options = {});

    /**
     * Scrub a single video (the budgeted background scheduler's
     * unit of work). Per-stream aging seeds derive from
     * (options.seed, name hash), so a sweep is reproducible
     * regardless of visit order. Unknown names return a zero report.
     */
    ScrubReport scrubVideo(const std::string &name,
                           const ScrubOptions &options = {});

    /** Drop @p name from the archive. */
    ArchiveError remove(const std::string &name);

    /**
     * Re-key scrub for one video: read every stream back through BCH
     * correction, decrypt streams the stored policy marks encrypted
     * with @p old_key, re-encrypt under @p new_config (mode, key,
     * IV, key-id and selective threshold may all change), and
     * re-anchor the precise metadata — all in place, with zero
     * precise-data loss. An unencrypted record is simply encrypted
     * under the new config. Guards: an encrypted record whose
     * key-check value rejects @p old_key returns KeyMismatch and is
     * left untouched (legacy keyCheck==0 records cannot be checked
     * and are trusted). Runs under the exclusive directory lock, so
     * readers never observe a half-rekeyed record.
     */
    ArchiveError rekeyVideo(const std::string &name,
                            const Bytes &old_key,
                            const EncryptionConfig &new_config,
                            u64 *streams_recrypted = nullptr);

    /** Re-key every video (the background key-rotation pass). */
    RekeyReport rekey(const Bytes &old_key,
                      const EncryptionConfig &new_config);

    // --- precise-metadata replication (cluster tier) ---------------

    /**
     * @p name's precise metadata serialized as a standalone blob
     * (layout, crypto, per-stream shape — no cells). Empty when the
     * video is unknown. This is what a shard replicates to its ring
     * successors after a PUT.
     */
    Bytes exportMeta(const std::string &name) const;

    /**
     * Hold a replica precise-meta blob for @p name on behalf of a
     * peer shard. The blob is validated (total parse) before it is
     * kept; Malformed rejects it, NameTooLong a name beyond
     * kMaxArchiveNameBytes. Replicas live beside the archive
     * in memory — they protect against *metadata* damage on the
     * owner, not node loss, and are re-shipped on every PUT.
     */
    ArchiveError putReplicaMeta(const std::string &name, Bytes meta);

    /** The replica blob held for @p name (empty when none). */
    Bytes replicaMeta(const std::string &name) const;

    /**
     * Repair @p name's precise metadata from @p meta (a replica
     * blob). The blob must match the existing record's cell-image
     * shapes (stream count, schemeT, payload/cell sizes) — the
     * cells themselves are kept, only the precise parts are
     * replaced and the integrity CRC re-anchored.
     */
    ArchiveError repairMeta(const std::string &name,
                            const Bytes &meta);

    /**
     * Test hook: corrupt @p name's precise metadata in memory
     * without touching its integrity CRC, so the next get() fails
     * CrcMismatch — the cluster repair path's trigger. False when
     * the video is unknown.
     */
    bool damageMetaForTest(const std::string &name);

    // --- record migration (rebalance tier) -------------------------

    /** True when @p name is stored locally (owner copy). */
    bool contains(const std::string &name) const;

    /**
     * @p name's full record as one opaque transfer blob: the
     * CRC-checked precise metadata (length-prefixed) followed by the
     * raw approximate cell images in stream order. This is the unit
     * the migration engine ships over CELL_PULL/CELL_PUSH. The cells
     * travel verbatim — accumulated bit errors move with the record,
     * exactly as if the physical device were remapped — while the
     * precise part stays CRC-checkable end to end. Empty when the
     * video is unknown.
     */
    Bytes exportRecord(const std::string &name) const;

    /**
     * Install a record from an exportRecord() blob. The blob is
     * fully validated (total meta parse, exact cell-region length
     * against the per-stream shapes) before anything is touched;
     * Malformed rejects it, NameTooLong a name beyond
     * kMaxArchiveNameBytes. When the name already exists and
     * @p overwrite is false, the existing record wins — a concurrent
     * PUT at the new owner must never be clobbered by a migration
     * push — and the call returns None with *adopted = false.
     */
    ArchiveError adoptRecord(const std::string &name,
                             const Bytes &blob, bool overwrite,
                             bool *adopted = nullptr);

    /** Names of every replica blob held for peers (sorted) — the
     * survey a rebuild starts from when an owner's records are
     * gone. */
    std::vector<std::string> replicaNames() const;

    /**
     * Serve @p name from its held replica blob at degraded fidelity:
     * the replica carries the precise layout only, so every
     * approximate stream is merged as absent (zeros), decoded with
     * concealment on and counted shed; result.streams stays empty.
     * @p gop ranges the decode as ArchiveGetOptions::gop does. This
     * is the router's owner-timeout fallback — precise geometry
     * intact, approximate content sacrificed. NotFound when no
     * replica blob is held.
     */
    ArchiveGetResult getFromReplica(const std::string &name,
                                    std::optional<u32> gop = {}) const;

    /**
     * Key-epoch GC scan: verify no record still references a retired
     * key-id. With @p expected_key_id = 0 the newest key-id observed
     * across the archive is the expected epoch (after a completed
     * rekey every encrypted record sits at the same id); a nonzero
     * value pins the expectation. Also flags records whose crypto
     * and policy key-ids disagree.
     */
    KeyEpochReport verifyKeyEpochs(u32 expected_key_id = 0) const;

    /** Sorted names snapshot (scrub-scheduler round robin). */
    std::vector<std::string> videoNames() const;

    /** Directory listing, sorted by name. */
    std::vector<ArchiveVideoStat> stat() const;

    std::size_t videoCount() const;

    const std::string &path() const { return path_; }

  private:
    static constexpr unsigned kLockShards = 16;

    std::mutex &shardFor(const std::string &name) const;

    /** The per-stream scrub body shared by scrub()/scrubVideo();
     * caller holds the directory and shard locks. */
    static void scrubRecordStreams(VideoRecord &record,
                                   const ScrubOptions &options,
                                   u64 video_seed,
                                   ScrubReport &local);

    std::string path_;
    /** Guards the videos map structure; shards guard record cells. */
    mutable std::shared_mutex dirMutex_;
    mutable std::array<std::mutex, kLockShards> shards_;
    Archive archive_;
    /** Expected crc32 of each record's serialized precise meta,
     * anchored at put/open/repair; get() verifies against it
     * (guarded by dirMutex_ like the videos map). */
    std::map<std::string, u32> metaCrc_;
    /** Replica precise-meta blobs held for peer shards. */
    mutable std::mutex replicaMutex_;
    std::map<std::string, Bytes> replicaMeta_;
};

/**
 * Build the archive record for @p prepared (the produce half of the
 * pipeline <-> archive bridge; pure, lock-free, parallel across
 * streams). Exposed for tests and custom stores.
 */
VideoRecord
recordFromPrepared(const PreparedVideo &prepared,
                   const std::optional<EncryptionConfig> &encryption);

} // namespace videoapp

#endif // VIDEOAPP_ARCHIVE_ARCHIVE_SERVICE_H_
