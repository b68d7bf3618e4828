#include "archive/vapp_container.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>

#include "common/bytes.h"
#include "common/crc32.h"

namespace videoapp {

namespace {

constexpr u32 kRecordMagic = 0x56524543; // "VREC"
constexpr std::size_t kSuperblockSize = 32;

/** Smallest encodings: one payload placeholder size, one
 * stream-table row, one directory entry (empty name) and one held
 * replica (empty name and blob). */
constexpr std::size_t kPlaceholderBytes = 8;
constexpr std::size_t kStreamMetaBytes = 37;
constexpr std::size_t kDirEntryMinBytes = 30;
constexpr std::size_t kReplicaMinBytes = 6;

} // namespace

const char *
archiveErrorName(ArchiveError error)
{
    switch (error) {
      case ArchiveError::None: return "none";
      case ArchiveError::Io: return "io";
      case ArchiveError::BadMagic: return "bad-magic";
      case ArchiveError::BadVersion: return "bad-version";
      case ArchiveError::ShortRead: return "short-read";
      case ArchiveError::CrcMismatch: return "crc-mismatch";
      case ArchiveError::Malformed: return "malformed";
      case ArchiveError::NotFound: return "not-found";
      case ArchiveError::KeyRequired: return "key-required";
      case ArchiveError::KeyMismatch: return "key-mismatch";
      case ArchiveError::NameTooLong: return "name-too-long";
    }
    return "unknown";
}

u64
VideoRecord::payloadBytes() const
{
    u64 total = 0;
    for (const StreamRecord &s : streams)
        total += s.image.payloadBytes;
    return total;
}

u64
VideoRecord::cellBytes() const
{
    u64 total = 0;
    for (const StreamRecord &s : streams)
        total += s.image.cells.size();
    return total;
}

Bytes
serializeRecordMeta(const VideoRecord &record)
{
    ByteWriter meta;
    meta.putU32(kRecordMagic);
    meta.putBlob32(serializeHeaders(record.layout));

    // Payload placeholders: only the per-frame byte sizes survive;
    // the content lives in the stream cell images.
    meta.putU32(static_cast<u32>(record.layout.payloads.size()));
    for (const Bytes &p : record.layout.payloads)
        meta.putU64(p.size());

    // Crypto section tag: 0 = none, 1 = the version-1 layout,
    // 2 = version-1 fields plus the key-check value. Records whose
    // keyCheck is 0 (legacy, unchecked) keep the version-1 layout so
    // parse -> serialize stays byte-canonical for old blobs.
    const u8 crypto_tag =
        record.crypto ? (record.crypto->keyCheck != 0 ? 2 : 1) : 0;
    meta.putU8(crypto_tag);
    if (record.crypto) {
        meta.putU8(static_cast<u8>(record.crypto->mode));
        meta.putU32(record.crypto->keyId);
        meta.putRaw(record.crypto->masterIv);
        if (crypto_tag == 2)
            meta.putU32(record.crypto->keyCheck);
    }

    meta.putU16(static_cast<u16>(record.streams.size()));
    for (const StreamRecord &s : record.streams) {
        meta.putU8(static_cast<u8>(s.schemeT));
        meta.putU64(s.bitLength);
        meta.putU64(s.trueBytes);
        meta.putU64(s.image.payloadBytes);
        meta.putU64(s.image.cells.size());
        meta.putU32(s.cellsCrc);
    }
    // Version 2: the policy record rides after the stream table.
    // Absent on version-1 records, and presence is unambiguous —
    // a version-1 record ends exactly at the stream table.
    if (record.policy)
        appendStreamPolicy(meta, *record.policy);
    return meta.take();
}

ArchiveError
parseRecordMeta(std::span<const u8> meta, RecordMeta &out,
                u64 payload_bound)
{
    ByteReader in(meta);
    if (in.getU32() != kRecordMagic)
        return in.ok() ? ArchiveError::Malformed
                       : ArchiveError::ShortRead;
    std::span<const u8> headers = in.getRaw(in.getU32());
    if (!in.ok())
        return ArchiveError::ShortRead;
    auto layout = deserializeHeaders(headers);
    if (!layout)
        return ArchiveError::Malformed;
    out.layout = std::move(*layout);

    const std::size_t frames =
        in.boundedCount(in.getU32(), kPlaceholderBytes);
    if (!in.ok())
        return ArchiveError::ShortRead;
    if (frames != out.layout.frameHeaders.size())
        return ArchiveError::Malformed;
    // Placeholder sizes can only come from real payloads, which the
    // (larger) cell section holds; anything bigger is bogus and must
    // not drive allocation. Each size is checked against what is
    // left of the bound, so no pair of sizes can wrap the total.
    const u64 bound = payload_bound + 16 * u64{frames} + 1024;
    u64 payload_total = 0;
    out.layout.payloads.clear();
    for (std::size_t f = 0; f < frames; ++f) {
        const u64 size = in.getU64();
        if (size > bound - payload_total)
            return ArchiveError::Malformed;
        payload_total += size;
        out.layout.payloads.emplace_back(static_cast<std::size_t>(size),
                                         0);
    }

    out.crypto.reset();
    const u8 crypto_tag = in.getU8();
    if (crypto_tag > 2)
        return ArchiveError::Malformed;
    if (crypto_tag != 0) {
        StreamCryptoMeta crypto;
        const u8 mode = in.getU8();
        if (mode > static_cast<u8>(CipherMode::CFB))
            return ArchiveError::Malformed;
        crypto.mode = static_cast<CipherMode>(mode);
        crypto.keyId = in.getU32();
        std::span<const u8> iv = in.getRaw(crypto.masterIv.size());
        std::copy(iv.begin(), iv.end(), crypto.masterIv.begin());
        if (crypto_tag == 2) {
            crypto.keyCheck = in.getU32();
            // Tag 2 exists only to carry a non-zero check; a zero
            // one re-serializes as tag 1 and breaks canonicality.
            if (in.ok() && crypto.keyCheck == 0)
                return ArchiveError::Malformed;
        }
        if (!in.ok())
            return ArchiveError::ShortRead;
        out.crypto = crypto;
    }

    out.streams.assign(in.boundedCount(in.getU16(), kStreamMetaBytes),
                       StreamMeta{});
    if (!in.ok())
        return ArchiveError::ShortRead;
    int prev_t = -1;
    for (StreamMeta &s : out.streams) {
        s.schemeT = in.getU8();
        s.bitLength = in.getU64();
        s.trueBytes = in.getU64();
        s.payloadBytes = in.getU64();
        s.cellLength = in.getU64();
        s.cellsCrc = in.getU32();
        if (s.schemeT <= prev_t || s.schemeT > 58 ||
            s.trueBytes > s.payloadBytes ||
            s.payloadBytes > s.cellLength)
            return ArchiveError::Malformed;
        prev_t = s.schemeT;
    }
    // Version 2: a trailing policy record. It must cover exactly the
    // streams of the table above (one entry per stream, same scheme
    // t values) so no layer can ever see two answers.
    out.policy.reset();
    if (in.remaining() > 0) {
        StreamPolicy policy;
        if (!parseStreamPolicy(in, policy) ||
            policy.entries.size() != out.streams.size())
            return ArchiveError::Malformed;
        for (std::size_t i = 0; i < policy.entries.size(); ++i)
            if (policy.entries[i].schemeT != out.streams[i].schemeT)
                return ArchiveError::Malformed;
        out.policy = std::move(policy);
    }
    return in.exhausted() ? ArchiveError::None : ArchiveError::Malformed;
}

ArchiveError
parseRecord(std::span<const u8> meta, std::span<const u8> cells,
            u64 payload_bound, VideoRecord &record)
{
    RecordMeta parsed;
    ArchiveError err = parseRecordMeta(meta, parsed, payload_bound);
    if (err != ArchiveError::None)
        return err;
    record.layout = std::move(parsed.layout);
    record.crypto = parsed.crypto;
    record.policy = std::move(parsed.policy);
    record.streams.assign(parsed.streams.size(), StreamRecord{});
    ByteReader in(cells);
    for (std::size_t i = 0; i < parsed.streams.size(); ++i) {
        const StreamMeta &m = parsed.streams[i];
        StreamRecord &s = record.streams[i];
        std::span<const u8> image = in.getRaw(m.cellLength);
        if (!in.ok())
            return ArchiveError::Malformed;
        s.schemeT = m.schemeT;
        s.bitLength = m.bitLength;
        s.trueBytes = m.trueBytes;
        s.cellsCrc = m.cellsCrc;
        s.image.schemeT = m.schemeT;
        s.image.payloadBytes = m.payloadBytes;
        s.image.cells.assign(image.begin(), image.end());
    }
    return in.exhausted() ? ArchiveError::None : ArchiveError::Malformed;
}

Bytes
serializeArchive(const Archive &archive)
{
    // The held-replica section exists only in version 3; an archive
    // holding nothing keeps the version 2 layout so older readers
    // can still open the file.
    const u32 version = archive.replicas.empty()
                            ? std::min(archive.version, 2u)
                            : std::max(archive.version, 3u);

    // Records first, behind room for the superblock; the directory
    // follows them and the superblock, which covers it, comes last.
    ByteWriter out;
    out.putRaw(std::array<u8, kSuperblockSize>{});
    ByteWriter dir;
    dir.putU32(static_cast<u32>(archive.videos.size()));
    for (const auto &[name, record] : archive.videos) {
        const u64 offset = out.size();
        Bytes meta = serializeRecordMeta(record);
        out.putRaw(meta);
        for (const StreamRecord &s : record.streams)
            out.putRaw(s.image.cells);
        dir.putString16(name);
        dir.putU64(offset);
        dir.putU64(out.size() - offset);
        dir.putU64(meta.size());
        dir.putU32(crc32(meta));
    }
    if (version >= 3) {
        dir.putU32(static_cast<u32>(archive.replicas.size()));
        for (const auto &[name, blob] : archive.replicas) {
            dir.putString16(name);
            dir.putBlob32(blob);
        }
    }
    if (!dir.ok())
        return {}; // a name the u16 length prefix cannot carry
    const u64 dir_offset = out.size();
    out.putRaw(dir.bytes());

    ByteWriter super(kSuperblockSize);
    super.putU32(kVappMagic);
    super.putU32(version);
    super.putU64(dir_offset);
    super.putU64(dir.size());
    super.putU32(crc32(dir.bytes()));
    super.putU32(crc32(super.bytes()));
    Bytes blob = out.take();
    std::copy(super.bytes().begin(), super.bytes().end(), blob.begin());
    return blob;
}

ArchiveError
parseArchive(const Bytes &blob, Archive &out)
{
    if (blob.size() < kSuperblockSize)
        return ArchiveError::ShortRead;
    ByteReader super(blob.data(), kSuperblockSize);
    if (super.getU32() != kVappMagic)
        return ArchiveError::BadMagic;
    const u32 version = super.getU32();
    if (version < kVappMinFormatVersion ||
        version > kVappFormatVersion)
        return ArchiveError::BadVersion;
    const u64 dir_offset = super.getU64();
    const u64 dir_length = super.getU64();
    const u32 dir_crc = super.getU32();
    const u32 super_crc = super.getU32();
    if (crc32(blob.data(), kSuperblockSize - 4) != super_crc)
        return ArchiveError::CrcMismatch;
    if (dir_offset > blob.size() ||
        dir_length > blob.size() - dir_offset)
        return ArchiveError::ShortRead;
    const std::span<const u8> file(blob);
    const std::span<const u8> dir_bytes =
        file.subspan(dir_offset, dir_length);
    if (crc32(dir_bytes.data(), dir_bytes.size()) != dir_crc)
        return ArchiveError::CrcMismatch;

    out.version = version;
    out.videos.clear();
    out.replicas.clear();

    ByteReader dir(dir_bytes);
    const std::size_t count =
        dir.boundedCount(dir.getU32(), kDirEntryMinBytes);
    if (!dir.ok())
        return ArchiveError::ShortRead;
    for (std::size_t i = 0; i < count; ++i) {
        std::string name = dir.getString16();
        const u64 offset = dir.getU64();
        const u64 length = dir.getU64();
        const u64 meta_length = dir.getU64();
        const u32 meta_crc = dir.getU32();
        if (!dir.ok())
            return ArchiveError::ShortRead;
        if (offset < kSuperblockSize || offset > blob.size() ||
            length > blob.size() - offset || meta_length > length ||
            out.videos.count(name))
            return ArchiveError::Malformed;
        const std::span<const u8> record = file.subspan(offset, length);
        const std::span<const u8> meta = record.first(meta_length);
        if (crc32(meta.data(), meta.size()) != meta_crc)
            return ArchiveError::CrcMismatch;
        VideoRecord parsed;
        ArchiveError err = parseRecord(
            meta, record.subspan(meta_length), length, parsed);
        if (err != ArchiveError::None)
            return err;
        out.videos.emplace(std::move(name), std::move(parsed));
    }
    if (version >= 3) {
        const std::size_t replicas =
            dir.boundedCount(dir.getU32(), kReplicaMinBytes);
        if (!dir.ok())
            return ArchiveError::ShortRead;
        for (std::size_t i = 0; i < replicas; ++i) {
            std::string name = dir.getString16();
            Bytes held = dir.getBlob32();
            if (!dir.ok())
                return ArchiveError::ShortRead;
            if (out.replicas.count(name))
                return ArchiveError::Malformed;
            out.replicas.emplace(std::move(name), std::move(held));
        }
    }
    return dir.exhausted() ? ArchiveError::None : ArchiveError::Malformed;
}

ArchiveError
readArchive(const std::string &path, Archive &out)
{
    std::ifstream f(path, std::ios::binary);
    if (!f)
        return ArchiveError::Io;
    Bytes blob((std::istreambuf_iterator<char>(f)),
               std::istreambuf_iterator<char>());
    if (f.bad())
        return ArchiveError::Io;
    return parseArchive(blob, out);
}

ArchiveError
writeArchive(const Archive &archive, const std::string &path)
{
    Bytes blob = serializeArchive(archive);
    if (blob.empty())
        return ArchiveError::NameTooLong;
    std::string tmp = path + ".tmp";
    {
        std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
        if (!f)
            return ArchiveError::Io;
        f.write(reinterpret_cast<const char *>(blob.data()),
                static_cast<std::streamsize>(blob.size()));
        if (!f) {
            std::remove(tmp.c_str());
            return ArchiveError::Io;
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return ArchiveError::Io;
    }
    return ArchiveError::None;
}

} // namespace videoapp
