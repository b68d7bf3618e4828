#include "archive/archive_service.h"

#include <algorithm>
#include <fstream>
#include <functional>
#include <memory>
#include <set>

#include "common/bytes.h"
#include "common/crc32.h"
#include "common/parallel.h"
#include "common/telemetry.h"
#include "simd/dispatch.h"
#include "storage/bch.h"

namespace videoapp {

namespace {

/** The record's precise layout: headers plus payload placement.
 * Payload bytes are zero-filled placeholders — only their sizes
 * matter to mergeStreams, and only the sizes are persisted — so the
 * in-memory record matches a reopened one byte for byte. */
EncodedVideo
layoutOf(const EncodedVideo &video)
{
    EncodedVideo layout;
    layout.header = video.header;
    layout.frameHeaders = video.frameHeaders;
    layout.payloads.reserve(video.payloads.size());
    for (const auto &p : video.payloads)
        layout.payloads.emplace_back(p.size(), 0);
    return layout;
}

} // namespace

VideoRecord
recordFromPrepared(const PreparedVideo &prepared,
                   const std::optional<EncryptionConfig> &encryption)
{
    VA_TELEM_LATENCY("archive.record_build");
    VideoRecord record;
    record.layout = layoutOf(prepared.enc.video);
    // The policy is computed once here and persisted with the
    // record; every later consumer (get-time decryption, the serving
    // layer's shedding, re-key passes) reads it back instead of
    // re-deriving treatment from a config.
    record.policy = policyFor(prepared.streams, encryption);

    std::unique_ptr<StreamCryptor> cryptor;
    if (encryption && record.policy->anyEncrypted()) {
        cryptor = std::make_unique<StreamCryptor>(
            encryption->mode, encryption->key, encryption->masterIv);
        record.crypto = cryptor->meta(encryption->keyId);
    }

    // One StreamRecord per reliability stream, ascending t (map
    // order). Encrypt + BCH-encode is pure per-stream work, so it
    // runs on the pool.
    struct StreamWork
    {
        int t = 0;
        const Bytes *data = nullptr;
        u64 bitLength = 0;
    };
    std::vector<StreamWork> work;
    work.reserve(prepared.streams.data.size());
    for (const auto &[t, data] : prepared.streams.data)
        work.push_back(
            {t, &data, prepared.streams.bitLength.at(t)});

    record.streams.resize(work.size());
    parallelFor(work.size(), [&](std::size_t i) {
        const StreamWork &w = work[i];
        StreamRecord &s = record.streams[i];
        s.schemeT = w.t;
        s.bitLength = w.bitLength;
        s.trueBytes = w.data->size();
        Bytes to_store = *w.data;
        const bool encrypted =
            cryptor != nullptr && record.policy->encrypts(w.t);
        if (encrypted)
            to_store = cryptor->encryptStream(
                static_cast<u32>(w.t), to_store);
        // Two call sites, not a ternary name: VA_TELEM_COUNT caches
        // the counter in a per-callsite static.
        if (cryptor != nullptr && encrypted)
            VA_TELEM_COUNT("archive.bytes_encrypted",
                           w.data->size());
        else if (cryptor != nullptr)
            VA_TELEM_COUNT("archive.bytes_plaintext",
                           w.data->size());
        s.image = exportCellImage(to_store, EccScheme{w.t});
        s.cellsCrc = crc32(s.image.cells);
    });
    VA_TELEM_COUNT("archive.streams_encoded", work.size());
    return record;
}

ArchiveService::ArchiveService(std::string path)
    : path_(std::move(path))
{}

std::mutex &
ArchiveService::shardFor(const std::string &name) const
{
    return shards_[std::hash<std::string>{}(name) % kLockShards];
}

ArchiveError
ArchiveService::open(bool create_if_missing)
{
    VA_TELEM_LATENCY("archive.open");
    std::unique_lock dir(dirMutex_);
    {
        std::ifstream probe(path_, std::ios::binary);
        if (!probe) {
            if (!create_if_missing)
                return ArchiveError::Io;
            archive_ = Archive{};
            return ArchiveError::None;
        }
    }
    Archive loaded;
    ArchiveError err = readArchive(path_, loaded);
    if (err != ArchiveError::None)
        return err;
    archive_ = std::move(loaded);
    metaCrc_.clear();
    for (const auto &[name, record] : archive_.videos)
        metaCrc_[name] = crc32(serializeRecordMeta(record));
    {
        // Held replica blobs live in replicaMeta_ while the service
        // runs; the archive's copy is only their durable image.
        std::lock_guard replicas(replicaMutex_);
        replicaMeta_ = std::move(archive_.replicas);
        archive_.replicas.clear();
    }
    VA_TELEM_COUNT("archive.opens", 1);
    return ArchiveError::None;
}

ArchiveError
ArchiveService::flush()
{
    VA_TELEM_LATENCY("archive.flush");
    // Exclusive directory lock: every cells reader/writer holds at
    // least a shared directory lock, so this alone quiesces the
    // archive for a consistent snapshot.
    std::unique_lock dir(dirMutex_);
    {
        // Same dir -> replica lock order as remove().
        std::lock_guard replicas(replicaMutex_);
        archive_.replicas = replicaMeta_;
    }
    ArchiveError err = writeArchive(archive_, path_);
    if (err == ArchiveError::None)
        VA_TELEM_COUNT("archive.flushes", 1);
    return err;
}

ArchiveError
ArchiveService::put(const std::string &name,
                    const PreparedVideo &prepared,
                    const ArchivePutOptions &options, u64 *cell_bytes)
{
    VA_TELEM_LATENCY("archive.put");
    if (name.size() > kMaxArchiveNameBytes)
        return ArchiveError::NameTooLong;
    // Heavy work (encrypt + BCH encode) happens outside any lock;
    // only the map insert needs the directory writer lock.
    VideoRecord record = recordFromPrepared(prepared, options.encryption);
    u32 meta_crc = crc32(serializeRecordMeta(record));
    if (cell_bytes != nullptr)
        *cell_bytes = record.cellBytes();

    std::unique_lock dir(dirMutex_);
    archive_.videos[name] = std::move(record);
    metaCrc_[name] = meta_crc;
    VA_TELEM_COUNT("archive.puts", 1);
    return ArchiveError::None;
}

ArchiveGetResult
ArchiveService::get(const std::string &name,
                    const ArchiveGetOptions &options) const
{
    VA_TELEM_LATENCY("archive.get");
    ArchiveGetResult result;

    // Copy what the decode needs under the locks; the expensive
    // degrade/decode/decrypt/merge runs on private copies.
    EncodedVideo layout;
    std::optional<StreamCryptoMeta> crypto;
    std::optional<StreamPolicy> policy;
    std::vector<StreamRecord> streams;
    {
        std::shared_lock dir(dirMutex_);
        auto it = archive_.videos.find(name);
        if (it == archive_.videos.end()) {
            result.error = ArchiveError::NotFound;
            return result;
        }
        std::lock_guard shard(shardFor(name));
        // Precise-metadata integrity gate: the small precise part is
        // the one piece of the record that must never be served
        // wrong (the paper's CRC-protected metadata). A mismatch
        // aborts before any decode; in a cluster the caller repairs
        // from a replica blob and retries.
        auto crc_it = metaCrc_.find(name);
        if (crc_it != metaCrc_.end() &&
            crc32(serializeRecordMeta(it->second)) !=
                crc_it->second) {
            VA_TELEM_COUNT("archive.meta_crc_mismatches", 1);
            result.error = ArchiveError::CrcMismatch;
            return result;
        }
        layout = it->second.layout;
        crypto = it->second.crypto;
        policy = it->second.policy;
        streams = it->second.streams;
    }

    std::unique_ptr<StreamCryptor> cryptor;
    if (crypto) {
        if (options.key.empty()) {
            result.error = ArchiveError::KeyRequired;
            return result;
        }
        // Key-check gate: a stale or rotated key is a typed error,
        // not a garbage decode. keyCheck == 0 marks a legacy record
        // written before the check existed; those stay unchecked.
        if (crypto->keyCheck != 0 &&
            keyCheckValue(options.key, crypto->masterIv) !=
                crypto->keyCheck) {
            VA_TELEM_COUNT("archive.key_mismatches", 1);
            result.error = ArchiveError::KeyMismatch;
            return result;
        }
        cryptor = std::make_unique<StreamCryptor>(
            crypto->mode, options.key, crypto->masterIv);
    }

    result.gops = gopRanges(layout.frameHeaders, decodedFrameCount(layout));
    if (options.gop && *options.gop >= result.gops.size()) {
        result.frameHeaders = std::move(layout.frameHeaders);
        return result;
    }
    const GopRange range =
        options.gop ? result.gops[*options.gop] : kAllFrames;

    // A stream is shed when its degradation class reaches the
    // threshold; records without a stored policy rank streams by
    // position (ascending t is ascending importance), so shedding
    // works on version-1 records too. Class 0 is never shed.
    const auto shedStream = [&](std::size_t i) {
        if (options.shedDegradeClass <= 0)
            return false;
        const int cls =
            policy ? policy->degradeClassOf(streams[i].schemeT)
                   : static_cast<int>(streams.size() - 1 - i);
        return cls >= options.shedDegradeClass;
    };
    const auto streamEncrypted = [&](int t) {
        return policy ? policy->encrypts(t) : crypto.has_value();
    };

    // Mirror storeAndRetrieve exactly: one child seed per stream,
    // drawn in ascending-t order before the parallel region. With
    // the same seed and raw BER, the decoded video is bit-identical
    // to the in-memory RealBchChannel round trip.
    Rng master(options.seed);
    std::vector<u64> seeds(streams.size());
    for (auto &seed : seeds)
        seed = master.next();

    std::vector<Bytes> read(streams.size());
    std::vector<CellReadStats> stats(streams.size());
    std::vector<u8> shed(streams.size(), 0);
    parallelFor(streams.size(), [&](std::size_t i) {
        StreamRecord &s = streams[i];
        if (shedStream(i)) {
            // Shed: serve the stream zero-filled at its true length
            // — no cell read, no BCH decode, no decryption. Merge
            // only needs the length for placement; the decoder (with
            // concealment) degrades those macroblocks gracefully.
            shed[i] = 1;
            read[i] = Bytes(
                static_cast<std::size_t>(s.trueBytes), 0);
            return;
        }
        if (options.injectRawBer > 0.0) {
            Rng stream_rng(seeds[i]);
            degradeCellImage(s.image, options.injectRawBer,
                             stream_rng);
        }
        Bytes payload = readCellImage(s.image, &stats[i]);
        if (cryptor && streamEncrypted(s.schemeT))
            payload = cryptor->decryptStream(
                static_cast<u32>(s.schemeT), payload,
                static_cast<std::size_t>(s.trueBytes));
        else
            payload.resize(
                static_cast<std::size_t>(s.trueBytes));
        read[i] = std::move(payload);
    });

    for (std::size_t i = 0; i < streams.size(); ++i) {
        result.streams.data[streams[i].schemeT] = std::move(read[i]);
        result.streams.bitLength[streams[i].schemeT] =
            streams[i].bitLength;
        result.cells.merge(stats[i]);
        if (shed[i]) {
            ++result.streamsShed;
            result.bytesShed += streams[i].image.payloadBytes;
        }
    }

    DecodeOptions decode;
    decode.concealErrors = options.conceal;
    result.decoded = decodeStreams(layout, result.streams, decode, range);
    result.firstFrame = range.firstFrame;
    result.frameHeaders = std::move(layout.frameHeaders);

    VA_TELEM_COUNT("archive.gets", 1);
    VA_TELEM_COUNT("archive.read.blocks_corrected",
                   result.cells.blocksCorrected);
    VA_TELEM_COUNT("archive.read.blocks_uncorrectable",
                   result.cells.blocksUncorrectable);
    if (result.streamsShed > 0) {
        VA_TELEM_COUNT("archive.read.streams_shed",
                       result.streamsShed);
        VA_TELEM_COUNT("archive.read.bytes_shed", result.bytesShed);
    }
    return result;
}

void
ArchiveService::prewarmCodes(const std::string &name) const
{
    // Snapshot the scheme list under the locks, build tables after:
    // cachedBchCode() may take the process-wide code-cache mutex and
    // must not nest inside the directory lock.
    std::set<int> scheme_ts;
    {
        std::shared_lock dir(dirMutex_);
        auto it = archive_.videos.find(name);
        if (it == archive_.videos.end())
            return;
        std::lock_guard shard(shardFor(name));
        for (const StreamRecord &s : it->second.streams)
            if (s.schemeT > 0)
                scheme_ts.insert(s.schemeT);
    }
    for (int t : scheme_ts)
        cachedBchCode(t);
}

ScrubReport
ArchiveService::scrub(const ScrubOptions &options)
{
    VA_TELEM_LATENCY("archive.scrub");
    simd::simdNoteStage("scrub");
    ScrubReport report;

    // Snapshot the sorted name list first, then scrub each video on
    // the pool with the task re-acquiring the directory lock itself.
    // No service lock may be held across parallelFor(): the pool
    // serializes top-level loops and runs user code under its own
    // mutex, so dir -> pool here against pool -> dir in a caller's
    // parallelFor-wrapped put()/get() would be a deadlock cycle.
    // Per-video seeds derive from (seed, index) over the snapshot
    // order, so the report is identical at any thread count.
    std::vector<std::string> names;
    std::set<int> scheme_ts;
    {
        std::shared_lock dir(dirMutex_);
        names.reserve(archive_.videos.size());
        for (const auto &[name, record] : archive_.videos) {
            names.push_back(name);
            std::lock_guard shard(shardFor(name));
            for (const StreamRecord &s : record.streams)
                if (s.schemeT > 0)
                    scheme_ts.insert(s.schemeT);
        }
    }

    // Build every BCH table the scrub will need up front: code
    // construction is orders of magnitude dearer than a decode, and
    // doing it here keeps the parallel workers on the lock-free
    // cache fast path instead of serializing on first use.
    for (int t : scheme_ts)
        cachedBchCode(t);

    std::vector<ScrubReport> locals(names.size());
    std::vector<u8> scrubbed(names.size(), 0);
    parallelFor(names.size(), [&](std::size_t v) {
        std::shared_lock dir(dirMutex_);
        auto it = archive_.videos.find(names[v]);
        if (it == archive_.videos.end())
            return; // removed after the snapshot: nothing to repair
        std::lock_guard shard(shardFor(names[v]));
        scrubRecordStreams(it->second, options,
                           Rng::deriveSeed(options.seed, v),
                           locals[v]);
        scrubbed[v] = 1;
    });

    for (std::size_t v = 0; v < names.size(); ++v) {
        report.cells.merge(locals[v].cells);
        report.blocksRewritten += locals[v].blocksRewritten;
        report.streamsMiscorrected += locals[v].streamsMiscorrected;
        report.streamsDamaged += locals[v].streamsDamaged;
        report.streams += locals[v].streams;
        report.videos += scrubbed[v];
    }

    VA_TELEM_COUNT("archive.scrubs", 1);
    VA_TELEM_COUNT("archive.scrub.blocks_read",
                   report.cells.blocksRead);
    VA_TELEM_COUNT("archive.scrub.blocks_rewritten",
                   report.blocksRewritten);
    VA_TELEM_COUNT("archive.scrub.bits_corrected",
                   report.cells.bitsCorrected);
    VA_TELEM_COUNT("archive.scrub.blocks_uncorrectable",
                   report.cells.blocksUncorrectable);
    VA_TELEM_COUNT("archive.scrub.streams_miscorrected",
                   report.streamsMiscorrected);
    return report;
}

void
ArchiveService::scrubRecordStreams(VideoRecord &record,
                                   const ScrubOptions &options,
                                   u64 video_seed,
                                   ScrubReport &local)
{
    for (std::size_t i = 0; i < record.streams.size(); ++i) {
        StreamRecord &s = record.streams[i];
        if (options.ageRawBer > 0.0) {
            Rng rng(Rng::deriveSeed(video_seed, i));
            degradeCellImage(s.image, options.ageRawBer, rng);
        }
        CellReadStats st;
        scrubCellImage(s.image, &st);
        local.cells.merge(st);
        local.blocksRewritten += st.blocksCorrected;
        if (st.blocksUncorrectable > 0) {
            ++local.streamsDamaged;
        } else if (s.schemeT > 0 &&
                   crc32(s.image.cells) != s.cellsCrc) {
            // Every block decoded "successfully" yet the repaired
            // image deviates from the pristine one: the decoder
            // silently landed on a wrong codeword.
            ++local.streamsMiscorrected;
        }
        ++local.streams;
    }
}

ScrubReport
ArchiveService::scrubVideo(const std::string &name,
                           const ScrubOptions &options)
{
    VA_TELEM_LATENCY("archive.scrub_video");
    ScrubReport report;
    // Build the needed BCH tables before taking the record locks
    // (same lock-ordering rule as scrub()).
    prewarmCodes(name);
    // Seeds derive from the name hash, not a visit index, so a
    // budgeted sweep ages each video identically no matter how the
    // scheduler ordered or split the round.
    const u64 video_seed = Rng::deriveSeed(
        options.seed, std::hash<std::string>{}(name));
    {
        std::shared_lock dir(dirMutex_);
        auto it = archive_.videos.find(name);
        if (it == archive_.videos.end())
            return report;
        std::lock_guard shard(shardFor(name));
        scrubRecordStreams(it->second, options, video_seed, report);
    }
    report.videos = 1;
    VA_TELEM_COUNT("archive.scrub.blocks_read",
                   report.cells.blocksRead);
    VA_TELEM_COUNT("archive.scrub.blocks_rewritten",
                   report.blocksRewritten);
    VA_TELEM_COUNT("archive.scrub.bits_corrected",
                   report.cells.bitsCorrected);
    VA_TELEM_COUNT("archive.scrub.blocks_uncorrectable",
                   report.cells.blocksUncorrectable);
    VA_TELEM_COUNT("archive.scrub.streams_miscorrected",
                   report.streamsMiscorrected);
    return report;
}

ArchiveError
ArchiveService::remove(const std::string &name)
{
    std::unique_lock dir(dirMutex_);
    if (archive_.videos.erase(name) == 0)
        return ArchiveError::NotFound;
    metaCrc_.erase(name);
    {
        std::lock_guard replicas(replicaMutex_);
        replicaMeta_.erase(name);
    }
    VA_TELEM_COUNT("archive.removes", 1);
    return ArchiveError::None;
}

ArchiveError
ArchiveService::rekeyVideo(const std::string &name,
                           const Bytes &old_key,
                           const EncryptionConfig &new_config,
                           u64 *streams_recrypted)
{
    VA_TELEM_LATENCY("archive.rekey_video");
    // BCH tables before the locks (the scrub lock-ordering rule).
    prewarmCodes(name);

    // Exclusive directory lock for the whole pass: the record's
    // cells, crypto metadata, policy and integrity CRC all change
    // together, and a concurrent get() must see either the old or
    // the new record — never a mix.
    std::unique_lock dir(dirMutex_);
    auto it = archive_.videos.find(name);
    if (it == archive_.videos.end())
        return ArchiveError::NotFound;
    std::lock_guard shard(shardFor(name));
    VideoRecord &record = it->second;

    if (record.crypto) {
        if (old_key.empty())
            return ArchiveError::KeyRequired;
        if (record.crypto->keyCheck != 0 &&
            keyCheckValue(old_key, record.crypto->masterIv) !=
                record.crypto->keyCheck) {
            VA_TELEM_COUNT("archive.key_mismatches", 1);
            return ArchiveError::KeyMismatch;
        }
    }

    std::vector<int> scheme_ts;
    scheme_ts.reserve(record.streams.size());
    for (const StreamRecord &s : record.streams)
        scheme_ts.push_back(s.schemeT);
    StreamPolicy next = buildStreamPolicy(
        scheme_ts, streamCipherOf(new_config.mode),
        new_config.keyId, new_config.encryptMinT);

    std::unique_ptr<StreamCryptor> old_cryptor;
    if (record.crypto)
        old_cryptor = std::make_unique<StreamCryptor>(
            record.crypto->mode, old_key, record.crypto->masterIv);
    StreamCryptor new_cryptor(new_config.mode, new_config.key,
                              new_config.masterIv);

    const auto wasEncrypted = [&](int t) {
        return record.policy ? record.policy->encrypts(t)
                             : record.crypto.has_value();
    };

    u64 recrypted = 0;
    for (StreamRecord &s : record.streams) {
        const bool from = old_cryptor != nullptr &&
                          wasEncrypted(s.schemeT);
        const bool to = next.encrypts(s.schemeT);
        if (!from && !to)
            continue; // plaintext stays plaintext: cells untouched
        // Read back through BCH correction (the scrub read), so the
        // re-encrypted image starts from a repaired payload.
        Bytes payload = readCellImage(s.image);
        if (from)
            payload = old_cryptor->decryptStream(
                static_cast<u32>(s.schemeT), payload,
                static_cast<std::size_t>(s.trueBytes));
        else
            payload.resize(static_cast<std::size_t>(s.trueBytes));
        if (to)
            payload = new_cryptor.encryptStream(
                static_cast<u32>(s.schemeT), payload);
        s.image = exportCellImage(payload, EccScheme{s.schemeT});
        s.cellsCrc = crc32(s.image.cells);
        ++recrypted;
    }

    if (next.anyEncrypted())
        record.crypto = new_cryptor.meta(new_config.keyId);
    else
        record.crypto.reset();
    record.policy = std::move(next);
    metaCrc_[name] = crc32(serializeRecordMeta(record));

    VA_TELEM_COUNT("archive.rekeys", 1);
    VA_TELEM_COUNT("archive.rekey.streams_recrypted", recrypted);
    if (streams_recrypted != nullptr)
        *streams_recrypted += recrypted;
    return ArchiveError::None;
}

RekeyReport
ArchiveService::rekey(const Bytes &old_key,
                      const EncryptionConfig &new_config)
{
    VA_TELEM_LATENCY("archive.rekey");
    RekeyReport report;
    for (const std::string &name : videoNames()) {
        switch (rekeyVideo(name, old_key, new_config,
                           &report.streamsRecrypted)) {
        case ArchiveError::None:
            ++report.videos;
            break;
        case ArchiveError::KeyMismatch:
        case ArchiveError::KeyRequired:
            ++report.keyMismatches;
            break;
        default:
            ++report.skipped;
            break;
        }
    }
    return report;
}

// --- precise-metadata replication --------------------------------------

namespace {

/** Allocation cap for payload placeholders parsed from replica
 * blobs arriving over the network (they never carry real content,
 * only sizes; a video beyond this is rejected as hostile). */
constexpr u64 kReplicaPayloadBound = u64{1} << 31;

} // namespace

Bytes
ArchiveService::exportMeta(const std::string &name) const
{
    std::shared_lock dir(dirMutex_);
    auto it = archive_.videos.find(name);
    if (it == archive_.videos.end())
        return {};
    std::lock_guard shard(shardFor(name));
    return serializeRecordMeta(it->second);
}

ArchiveError
ArchiveService::putReplicaMeta(const std::string &name, Bytes meta)
{
    if (name.size() > kMaxArchiveNameBytes)
        return ArchiveError::NameTooLong;
    RecordMeta parsed;
    if (name.empty() ||
        parseRecordMeta(meta, parsed, kReplicaPayloadBound) !=
            ArchiveError::None)
        return ArchiveError::Malformed;
    std::lock_guard replicas(replicaMutex_);
    replicaMeta_[name] = std::move(meta);
    VA_TELEM_COUNT("archive.replica_meta.held", 1);
    return ArchiveError::None;
}

Bytes
ArchiveService::replicaMeta(const std::string &name) const
{
    std::lock_guard replicas(replicaMutex_);
    auto it = replicaMeta_.find(name);
    return it == replicaMeta_.end() ? Bytes{} : it->second;
}

ArchiveError
ArchiveService::repairMeta(const std::string &name,
                           const Bytes &meta)
{
    RecordMeta parsed;
    if (parseRecordMeta(meta, parsed, kReplicaPayloadBound) !=
        ArchiveError::None)
        return ArchiveError::Malformed;

    std::unique_lock dir(dirMutex_);
    auto it = archive_.videos.find(name);
    if (it == archive_.videos.end())
        return ArchiveError::NotFound;
    std::lock_guard shard(shardFor(name));
    VideoRecord &record = it->second;
    // The cells stay: the blob must describe exactly the images this
    // record holds, or it belongs to some other incarnation of the
    // name and repairing from it would corrupt, not heal.
    if (parsed.streams.size() != record.streams.size())
        return ArchiveError::Malformed;
    for (std::size_t i = 0; i < parsed.streams.size(); ++i) {
        const StreamMeta &m = parsed.streams[i];
        const StreamRecord &s = record.streams[i];
        if (m.schemeT != s.schemeT ||
            m.payloadBytes != s.image.payloadBytes ||
            m.cellLength != s.image.cells.size())
            return ArchiveError::Malformed;
    }
    record.layout = std::move(parsed.layout);
    record.crypto = parsed.crypto;
    record.policy = parsed.policy;
    for (std::size_t i = 0; i < parsed.streams.size(); ++i) {
        const StreamMeta &m = parsed.streams[i];
        StreamRecord &s = record.streams[i];
        s.bitLength = m.bitLength;
        s.trueBytes = m.trueBytes;
        s.cellsCrc = m.cellsCrc;
    }
    // Re-serializing the repaired record reproduces the blob byte
    // for byte (shape-checked above), so the blob's CRC re-anchors
    // the integrity gate directly.
    metaCrc_[name] = crc32(meta);
    VA_TELEM_COUNT("archive.meta_repairs", 1);
    return ArchiveError::None;
}

bool
ArchiveService::damageMetaForTest(const std::string &name)
{
    std::unique_lock dir(dirMutex_);
    auto it = archive_.videos.find(name);
    if (it == archive_.videos.end())
        return false;
    std::lock_guard shard(shardFor(name));
    // Any mutation the meta serialization covers works; stream
    // bit lengths are precise data every decode depends on.
    for (StreamRecord &s : it->second.streams)
        s.bitLength ^= 1;
    return true;
}

// --- record migration (rebalance tier) ---------------------------------

bool
ArchiveService::contains(const std::string &name) const
{
    std::shared_lock dir(dirMutex_);
    return archive_.videos.find(name) != archive_.videos.end();
}

Bytes
ArchiveService::exportRecord(const std::string &name) const
{
    VA_TELEM_LATENCY("archive.export_record");
    std::shared_lock dir(dirMutex_);
    auto it = archive_.videos.find(name);
    if (it == archive_.videos.end())
        return {};
    std::lock_guard shard(shardFor(name));
    const VideoRecord &record = it->second;
    Bytes meta = serializeRecordMeta(record);
    ByteWriter out(4 + meta.size() + record.cellBytes());
    out.putBlob32(meta);
    for (const StreamRecord &s : record.streams)
        out.putRaw(s.image.cells);
    VA_TELEM_COUNT("archive.record_exports", 1);
    return out.take();
}

ArchiveError
ArchiveService::adoptRecord(const std::string &name,
                            const Bytes &blob, bool overwrite,
                            bool *adopted)
{
    VA_TELEM_LATENCY("archive.adopt_record");
    if (adopted != nullptr)
        *adopted = false;
    if (name.size() > kMaxArchiveNameBytes)
        return ArchiveError::NameTooLong;
    ByteReader in(blob);
    std::span<const u8> meta = in.getRaw(in.getU32());
    // Placeholder sizes are bounded by the blob, as a container
    // bounds them by the record: they describe payloads its cells
    // hold.
    VideoRecord record;
    if (name.empty() || !in.ok() ||
        parseRecord(meta, in.getRaw(in.remaining()), blob.size(),
                    record) != ArchiveError::None)
        return ArchiveError::Malformed;

    std::unique_lock dir(dirMutex_);
    if (!overwrite &&
        archive_.videos.find(name) != archive_.videos.end()) {
        VA_TELEM_COUNT("archive.record_adopt_skipped", 1);
        return ArchiveError::None;
    }
    archive_.videos[name] = std::move(record);
    metaCrc_[name] = crc32(meta.data(), meta.size());
    if (adopted != nullptr)
        *adopted = true;
    VA_TELEM_COUNT("archive.record_adopts", 1);
    return ArchiveError::None;
}

std::vector<std::string>
ArchiveService::replicaNames() const
{
    std::lock_guard replicas(replicaMutex_);
    std::vector<std::string> names;
    names.reserve(replicaMeta_.size());
    for (const auto &[name, meta] : replicaMeta_)
        names.push_back(name);
    return names;
}

ArchiveGetResult
ArchiveService::getFromReplica(const std::string &name,
                               std::optional<u32> gop) const
{
    VA_TELEM_LATENCY("archive.replica_get");
    ArchiveGetResult result;
    Bytes blob = replicaMeta(name);
    if (blob.empty()) {
        result.error = ArchiveError::NotFound;
        return result;
    }
    RecordMeta parsed;
    if (parseRecordMeta(blob, parsed, kReplicaPayloadBound) !=
        ArchiveError::None) {
        result.error = ArchiveError::Malformed;
        return result;
    }
    // Every stream absent: the merge reads a missing stream as
    // zeros and needs only the pivots for placement, so nothing is
    // allocated at the stream sizes the blob claims, and the
    // concealing decoder treats the missing content as damage. The
    // whole video counts as shed.
    for (const StreamMeta &m : parsed.streams) {
        ++result.streamsShed;
        result.bytesShed += m.payloadBytes;
    }
    result.gops = gopRanges(parsed.layout.frameHeaders,
                            decodedFrameCount(parsed.layout));
    if (gop && *gop >= result.gops.size()) {
        result.frameHeaders = std::move(parsed.layout.frameHeaders);
        return result;
    }
    const GopRange range = gop ? result.gops[*gop] : kAllFrames;
    DecodeOptions decode;
    decode.concealErrors = true;
    result.decoded = decodeStreams(parsed.layout, StreamSet{}, decode, range);
    result.firstFrame = range.firstFrame;
    result.frameHeaders = std::move(parsed.layout.frameHeaders);
    VA_TELEM_COUNT("archive.replica_gets", 1);
    return result;
}

KeyEpochReport
ArchiveService::verifyKeyEpochs(u32 expected_key_id) const
{
    VA_TELEM_LATENCY("archive.verify_key_epochs");
    KeyEpochReport report;
    std::shared_lock dir(dirMutex_);
    for (const auto &[name, record] : archive_.videos) {
        ++report.videos;
        if (!record.crypto)
            continue;
        ++report.encrypted;
        report.newestKeyId =
            std::max(report.newestKeyId, record.crypto->keyId);
        if (record.policy && record.policy->anyEncrypted() &&
            record.policy->keyId != record.crypto->keyId)
            report.inconsistentNames.push_back(name);
    }
    const u32 expected = expected_key_id != 0 ? expected_key_id
                                              : report.newestKeyId;
    for (const auto &[name, record] : archive_.videos)
        if (record.crypto && record.crypto->keyId < expected)
            report.staleNames.push_back(name);
    if (!report.staleNames.empty())
        VA_TELEM_COUNT("archive.key_epoch_stale",
                       report.staleNames.size());
    return report;
}

std::vector<std::string>
ArchiveService::videoNames() const
{
    std::shared_lock dir(dirMutex_);
    std::vector<std::string> names;
    names.reserve(archive_.videos.size());
    for (const auto &[name, record] : archive_.videos)
        names.push_back(name);
    return names;
}

std::vector<ArchiveVideoStat>
ArchiveService::stat() const
{
    std::shared_lock dir(dirMutex_);
    std::vector<ArchiveVideoStat> stats;
    stats.reserve(archive_.videos.size());
    for (const auto &[name, record] : archive_.videos) {
        ArchiveVideoStat s;
        s.name = name;
        s.width = record.layout.header.width;
        s.height = record.layout.header.height;
        s.frames = record.layout.frameHeaders.size();
        s.streamCount = record.streams.size();
        s.payloadBytes = record.payloadBytes();
        s.cellBytes = record.cellBytes();
        s.encrypted = record.crypto.has_value();
        stats.push_back(std::move(s));
    }
    return stats;
}

std::size_t
ArchiveService::videoCount() const
{
    std::shared_lock dir(dirMutex_);
    return archive_.videos.size();
}

} // namespace videoapp
