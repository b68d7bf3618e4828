/**
 * @file
 * Stored and wire format tests: every blob the system writes to a
 * container file or sends over the wire, pinned byte for byte
 * against a fixture under tests/golden/ — the codec blob, record
 * metas, whole containers, the policy record, the migration export
 * and request/response frames for every opcode — and one table that
 * drives every parser over those fixtures: truncations, seeded byte
 * flips, random bytes and the known hostile blobs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "archive/archive_service.h"
#include "archive/vapp_container.h"
#include "common/bytes.h"
#include "common/crc32.h"
#include "common/rng.h"
#include "server/wire.h"

#include "golden.h"

namespace videoapp {
namespace {

// --- fixture inputs ---------------------------------------------------

/** The golden clip through encode, importance and partition. */
const PreparedVideo &
goldenPrepared()
{
    static const PreparedVideo prepared = prepareVideo(
        goldenClip(), EncoderConfig{}, EccAssignment::paperTable1());
    return prepared;
}

EncryptionConfig
goldenEncryption()
{
    EncryptionConfig enc;
    enc.mode = CipherMode::CTR;
    enc.key = Bytes(16, 0x3C);
    for (std::size_t i = 0; i < enc.masterIv.size(); ++i)
        enc.masterIv[i] = static_cast<u8>(0xA0 + i);
    enc.keyId = 7;
    return enc;
}

/** The plaintext record without its policy trailer (the version-1
 * meta layout). */
VideoRecord
plainRecord()
{
    VideoRecord record = recordFromPrepared(goldenPrepared(), {});
    record.policy.reset();
    return record;
}

/** AES-CTR record as a keyed put stores it: crypto section with a
 * key check, then the policy trailer. */
VideoRecord
ctrRecord()
{
    return recordFromPrepared(goldenPrepared(), goldenEncryption());
}

/** Plaintext record as an unkeyed put stores it: policy trailer. */
VideoRecord
policyRecord()
{
    return recordFromPrepared(goldenPrepared(), {});
}

/** Five streams at the Table 1 schemes over the golden layout, each
 * a distinct byte ramp stored through its BCH scheme, with a
 * plaintext policy: every stream-table row, cell split and policy
 * entry of the formats gets exercised. */
VideoRecord
streamsRecord()
{
    const std::vector<int> scheme_ts = {0, 2, 6, 16, 31};
    VideoRecord record = plainRecord();
    record.streams.clear();
    for (int t : scheme_ts) {
        Bytes data(static_cast<std::size_t>(40 + 8 * t));
        for (std::size_t i = 0; i < data.size(); ++i)
            data[i] = static_cast<u8>(7 * i + static_cast<std::size_t>(t));
        StreamRecord s;
        s.schemeT = t;
        s.bitLength = data.size() * 8 - 3;
        s.trueBytes = data.size();
        s.image = exportCellImage(data, EccScheme{t});
        s.cellsCrc = crc32(s.image.cells);
        record.streams.push_back(std::move(s));
    }
    record.policy =
        buildStreamPolicy(scheme_ts, StreamCipher::Plaintext, 0, 0);
    return record;
}

/** Two records; with @p replicas also two held replica blobs, which
 * makes the file version 3. */
Archive
goldenArchive(bool replicas)
{
    Archive archive;
    archive.videos["clip-ctr"] = ctrRecord();
    archive.videos["clip-plain"] = plainRecord();
    if (replicas) {
        archive.replicas["peer/a"] = serializeRecordMeta(policyRecord());
        archive.replicas["peer/b"] = serializeRecordMeta(plainRecord());
    }
    return archive;
}

/** The five-stream record beside the AES-CTR one. */
Archive
streamsArchive()
{
    Archive archive;
    archive.videos["clip-ctr"] = ctrRecord();
    archive.videos["streams"] = streamsRecord();
    return archive;
}

/** The CELL_PULL export of the AES-CTR record. */
Bytes
goldenExport()
{
    std::string path = ::testing::TempDir() + "format_test_export.vapp";
    ArchiveService service(path);
    ArchivePutOptions options;
    options.encryption = goldenEncryption();
    EXPECT_EQ(service.put("golden", goldenPrepared(), options),
              ArchiveError::None);
    std::remove(path.c_str());
    return service.exportRecord("golden");
}

StreamPolicy
goldenPolicy()
{
    return buildStreamPolicy({0, 2, 6, 16, 31}, StreamCipher::AesOfb, 5,
                             6);
}

GetFramesRequest
goldenGet(bool epoch_tail)
{
    GetFramesRequest get;
    get.name = "golden";
    get.gop = 1;
    get.injectRawBer = 1e-3;
    get.seed = 7;
    get.conceal = true;
    get.key = goldenEncryption().key;
    get.deadlineMs = 250;
    if (epoch_tail) {
        get.ringEpoch = 3;
        get.allowReplica = true;
    }
    return get;
}

PutRequest
goldenPut(bool epoch_tail)
{
    Video clip = goldenClip();
    PutRequest put;
    put.name = "golden";
    put.width = static_cast<u16>(clip.width());
    put.height = static_cast<u16>(clip.height());
    put.frameCount = static_cast<u32>(clip.frames.size());
    put.i420 = packFramesI420(clip, 0, clip.frames.size());
    put.key = goldenEncryption().key;
    put.cipherMode = static_cast<u8>(CipherMode::CTR);
    put.keyId = 7;
    put.ivSeed = 11;
    put.encryptMinT = 6;
    if (epoch_tail)
        put.ringEpoch = 3;
    return put;
}

ClusterInfoResponse
goldenRing(Status status)
{
    ClusterInfoResponse ring;
    ring.status = status;
    ring.epoch = 4;
    ring.vnodes = 64;
    ring.replicas = 2;
    ring.selfId = 1;
    ring.shards = {{0, "127.0.0.1", 7511},
                   {1, "127.0.0.1", 7512},
                   {2, "10.0.0.3", 7513}};
    return ring;
}

Bytes
request(Opcode op, const Bytes &payload, u8 flags = 0)
{
    return encodeFrame(static_cast<u8>(op), 100 + static_cast<u32>(op),
                       payload, flags);
}

Bytes
response(Status status, const Bytes &payload)
{
    return encodeFrame(static_cast<u8>(status), 200, payload);
}

/** A pinned blob: its fixture name and the bytes built today. */
struct Fixture
{
    std::string name;
    Bytes bytes;
};

std::vector<Fixture>
goldenFixtures()
{
    StatResponse stat;
    stat.status = Status::Ok;
    stat.videos.resize(2);
    stat.videos[0] = {"clip-ctr", 16, 16, 4, 5, 700, 1400, true};
    stat.videos[1] = {"clip-plain", 16, 16, 4, 5, 690, 1380, false};
    ScrubRequest scrub{1e-4, 9};
    ScrubResponse scrubbed{Status::Ok, 2, 10, 40, 3, 17, 1, 0, 1};
    HealthResponse health{Status::Ok, 1, 64, 9, 2, 4096, 3,
                          2, 5, 2, 6};
    Bytes meta = serializeRecordMeta(ctrRecord());
    Bytes record = goldenExport();
    ByteWriter policy;
    appendStreamPolicy(policy, goldenPolicy());

    return {
        {"codec_blob", serialize(goldenPrepared().enc.video)},
        {"record_meta_plain", serializeRecordMeta(plainRecord())},
        {"record_meta_ctr", meta},
        {"record_meta_policy", serializeRecordMeta(policyRecord())},
        {"archive_v2", serializeArchive(goldenArchive(false))},
        {"archive_v3", serializeArchive(goldenArchive(true))},
        {"record_meta_streams", serializeRecordMeta(streamsRecord())},
        {"archive_streams", serializeArchive(streamsArchive())},
        {"stream_policy", policy.take()},
        {"export_record", record},
        {"wire_req_health", request(Opcode::Health, {})},
        {"wire_req_get_frames",
         request(Opcode::GetFrames,
                 serializeGetFramesRequest(goldenGet(false)))},
        {"wire_req_get_frames_epoch",
         request(Opcode::GetFrames,
                 serializeGetFramesRequest(goldenGet(true)),
                 kWireFlagForwarded)},
        {"wire_req_put",
         request(Opcode::Put, serializePutRequest(goldenPut(false)))},
        {"wire_req_put_epoch",
         request(Opcode::Put, serializePutRequest(goldenPut(true)))},
        {"wire_req_stat", request(Opcode::Stat, {})},
        {"wire_req_scrub",
         request(Opcode::Scrub, serializeScrubRequest(scrub))},
        {"wire_req_cluster_info", request(Opcode::ClusterInfo, {})},
        {"wire_req_meta_put",
         request(Opcode::MetaPut,
                 serializeMetaPutRequest({"golden", meta}))},
        {"wire_req_meta_get",
         request(Opcode::MetaGet, serializeMetaGetRequest({"golden"}))},
        {"wire_req_cell_pull",
         request(Opcode::CellPull,
                 serializeCellPullRequest({"golden"}))},
        {"wire_req_cell_push",
         request(Opcode::CellPush,
                 serializeCellPushRequest({"golden", record, true}))},
        {"wire_resp_cluster_info",
         response(Status::Ok,
                  serializeClusterInfoResponse(goldenRing(Status::Ok)))},
        {"wire_resp_wrong_epoch",
         response(Status::WrongEpoch, serializeClusterInfoResponse(
                                          goldenRing(Status::WrongEpoch)))},
        {"wire_resp_stat", response(Status::Ok, serializeStatResponse(stat))},
        {"wire_resp_scrub",
         response(Status::Ok, serializeScrubResponse(scrubbed))},
        {"wire_resp_health",
         response(Status::Ok, serializeHealthResponse(health))},
        {"wire_resp_meta_get",
         response(Status::Ok,
                  serializeMetaGetResponse({Status::Ok, meta}))},
        {"wire_resp_cell_pull",
         response(Status::Ok,
                  serializeCellPullResponse({Status::Ok, record}))},
        {"wire_resp_cell_push",
         response(Status::Ok,
                  serializeCellPushResponse({Status::Ok, true}))},
    };
}

TEST(FormatGolden, EveryBlobMatchesItsFixture)
{
    // Compared as one boolean per blob: a mismatch names the
    // fixture instead of printing kilobytes of hex.
    for (const Fixture &f : goldenFixtures())
        EXPECT_TRUE(hexOf(f.bytes) == readGoldenHex(f.name))
            << f.name << " differs from tests/golden/" << f.name
            << ".hex";
}

// --- the format table -------------------------------------------------

Bytes
bytesOfHex(const std::string &hex)
{
    Bytes out(hex.size() / 2);
    for (std::size_t i = 0; i < out.size(); ++i)
        out[i] = static_cast<u8>(std::stoul(hex.substr(2 * i, 2), nullptr,
                                            16));
    return out;
}

Bytes
fixture(const std::string &name)
{
    return bytesOfHex(readGoldenHex(name));
}

/** Parse @p blob and serialize what it parsed to; nullopt when the
 * parser rejects it. */
using RoundTrip = std::function<std::optional<Bytes>(const Bytes &)>;

/** One stored or wire format as the harness drives it. */
struct FormatRow
{
    std::string name;
    Bytes golden;
    RoundTrip roundTrip;
    /** Prefix lengths the parser legitimately accepts (an optional
     * trailing section left off); every other prefix must fail. */
    std::vector<std::size_t> validPrefixes;
    /** Every accepted input re-serializes to itself. */
    bool canonical = false;
};

template <typename Message>
RoundTrip
wireRoundTrip(bool (*parse)(const Bytes &, Message &),
              Bytes (*serialize)(const Message &))
{
    return [parse, serialize](const Bytes &blob) -> std::optional<Bytes> {
        Message message;
        if (!parse(blob, message))
            return std::nullopt;
        return serialize(message);
    };
}

/** The cell images of a record-meta mutant are rebuilt zero-filled
 * for re-serialization up to this size; larger mutants are checked
 * for acceptance only. */
constexpr u64 kMaxRebuiltCells = u64{1} << 20;

std::optional<Bytes>
recordMetaRoundTrip(const Bytes &blob)
{
    RecordMeta meta;
    if (parseRecordMeta(blob, meta, blob.size()) != ArchiveError::None)
        return std::nullopt;
    VideoRecord record;
    record.layout = meta.layout;
    record.crypto = meta.crypto;
    record.policy = meta.policy;
    for (const StreamMeta &m : meta.streams) {
        if (m.cellLength > kMaxRebuiltCells)
            return blob;
        StreamRecord s;
        s.schemeT = m.schemeT;
        s.bitLength = m.bitLength;
        s.trueBytes = m.trueBytes;
        s.cellsCrc = m.cellsCrc;
        s.image.payloadBytes = m.payloadBytes;
        s.image.cells.resize(static_cast<std::size_t>(m.cellLength));
        record.streams.push_back(std::move(s));
    }
    return serializeRecordMeta(record);
}

std::optional<Bytes>
policyRoundTrip(const Bytes &blob)
{
    ByteReader in(blob);
    StreamPolicy policy;
    if (!parseStreamPolicy(in, policy)) {
        // A refused record leaves the reader where it was.
        EXPECT_EQ(in.pos(), 0u);
        EXPECT_TRUE(in.ok());
        return std::nullopt;
    }
    if (!in.exhausted())
        return std::nullopt;
    ByteWriter out;
    appendStreamPolicy(out, policy);
    return out.take();
}

std::optional<Bytes>
archiveRoundTrip(const Bytes &blob)
{
    Archive archive;
    if (parseArchive(blob, archive) != ArchiveError::None)
        return std::nullopt;
    return serializeArchive(archive);
}

std::optional<Bytes>
exportRoundTrip(const Bytes &blob)
{
    ArchiveService service(::testing::TempDir() + "format_test_adopt.vapp");
    if (service.adoptRecord("golden", blob, false) != ArchiveError::None)
        return std::nullopt;
    return service.exportRecord("golden");
}

std::optional<Bytes>
frameRoundTrip(const Bytes &blob)
{
    FrameDeframer deframer;
    deframer.feed(blob.data(), blob.size());
    FrameDeframer::Decoded frame;
    if (deframer.next(frame) != FrameDeframer::Result::Frame ||
        deframer.buffered() != 0)
        return std::nullopt;
    return encodeFrame(frame.header.kind, frame.header.requestId,
                       frame.payload, frame.header.flags);
}

/** The payload of the whole wire frame in fixture @p name. */
Bytes
framePayload(const std::string &name)
{
    Bytes frame = fixture(name);
    if (frame.size() < kWireHeaderBytes + 4)
        return {};
    return Bytes(frame.begin() + kWireHeaderBytes, frame.end() - 4);
}

/** Length of record meta @p meta without its policy trailer (u16
 * version, u32 key id, u8 minimum t, u16 count, 3 bytes a stream). */
std::size_t
withoutPolicy(const Bytes &meta)
{
    RecordMeta parsed;
    EXPECT_EQ(parseRecordMeta(meta, parsed, meta.size()),
              ArchiveError::None);
    return meta.size() - 9 - 3 * parsed.streams.size();
}

std::vector<FormatRow>
formatTable()
{
    const Bytes meta_ctr = fixture("record_meta_ctr");
    const Bytes meta_policy = fixture("record_meta_policy");
    const Bytes meta_streams = fixture("record_meta_streams");
    std::vector<FormatRow> rows = {
        {"codec_blob", fixture("codec_blob"),
         [](const Bytes &blob) -> std::optional<Bytes> {
             auto video = deserialize(blob);
             if (!video)
                 return std::nullopt;
             return serialize(*video);
         },
         {}, true},
        {"record_meta_plain", fixture("record_meta_plain"),
         recordMetaRoundTrip, {}, true},
        // A policy trailer is optional: the meta without it is a
        // version-1 record.
        {"record_meta_ctr", meta_ctr, recordMetaRoundTrip,
         {withoutPolicy(meta_ctr)}, true},
        {"record_meta_policy", meta_policy, recordMetaRoundTrip,
         {withoutPolicy(meta_policy)}, true},
        {"record_meta_streams", meta_streams, recordMetaRoundTrip,
         {withoutPolicy(meta_streams)}, true},
        {"archive_v2", fixture("archive_v2"), archiveRoundTrip, {}, true},
        {"archive_v3", fixture("archive_v3"), archiveRoundTrip, {}, true},
        {"archive_streams", fixture("archive_streams"), archiveRoundTrip, {},
         true},
        {"stream_policy", fixture("stream_policy"), policyRoundTrip, {},
         true},
        {"export_record", fixture("export_record"), exportRoundTrip, {},
         true},
    };

    // Payloads. Without the epoch tail a GET ends 9 bytes (u64 epoch,
    // u8 replica grant) and a PUT 8 bytes (u64 epoch) earlier.
    // Flag bytes parse as any non-zero value and error statuses as a
    // bare byte, so only fixed-width messages are canonical.
    const Bytes get_epoch = framePayload("wire_req_get_frames_epoch");
    const Bytes put_epoch = framePayload("wire_req_put_epoch");
    auto payload = [&rows](const std::string &name, RoundTrip round_trip,
                           bool canonical,
                           std::vector<std::size_t> valid = {}) {
        rows.push_back({name + " payload", framePayload(name),
                        std::move(round_trip), std::move(valid),
                        canonical});
    };
    payload("wire_req_get_frames",
            wireRoundTrip(parseGetFramesRequest, serializeGetFramesRequest),
            false);
    payload("wire_req_get_frames_epoch",
            wireRoundTrip(parseGetFramesRequest, serializeGetFramesRequest),
            false, {get_epoch.size() - 9});
    payload("wire_req_put",
            wireRoundTrip(parsePutRequest, serializePutRequest), false);
    payload("wire_req_put_epoch",
            wireRoundTrip(parsePutRequest, serializePutRequest), false,
            {put_epoch.size() - 8});
    payload("wire_req_scrub",
            wireRoundTrip(parseScrubRequest, serializeScrubRequest), true);
    payload("wire_req_meta_put",
            wireRoundTrip(parseMetaPutRequest, serializeMetaPutRequest),
            true);
    payload("wire_req_meta_get",
            wireRoundTrip(parseMetaGetRequest, serializeMetaGetRequest),
            true);
    payload("wire_req_cell_pull",
            wireRoundTrip(parseCellPullRequest, serializeCellPullRequest),
            true);
    payload("wire_req_cell_push",
            wireRoundTrip(parseCellPushRequest, serializeCellPushRequest),
            false);
    payload("server_get_miss_response",
            wireRoundTrip<GetFramesResponse>(parseGetFramesResponse,
                                             serializeGetFramesResponse),
            false);
    payload("server_put_response",
            wireRoundTrip(parsePutResponse, serializePutResponse), false);
    payload("wire_resp_stat",
            wireRoundTrip(parseStatResponse, serializeStatResponse), false);
    payload("wire_resp_scrub",
            wireRoundTrip(parseScrubResponse, serializeScrubResponse),
            false);
    payload("wire_resp_health",
            wireRoundTrip(parseHealthResponse, serializeHealthResponse),
            false);
    for (const char *ring : {"wire_resp_cluster_info",
                             "wire_resp_wrong_epoch"})
        payload(ring,
                wireRoundTrip(parseClusterInfoResponse,
                              serializeClusterInfoResponse),
                false);
    payload("wire_resp_meta_get",
            wireRoundTrip(parseMetaGetResponse, serializeMetaGetResponse),
            false);
    payload("wire_resp_cell_pull",
            wireRoundTrip(parseCellPullResponse, serializeCellPullResponse),
            false);
    payload("wire_resp_cell_push",
            wireRoundTrip(parseCellPushResponse, serializeCellPushResponse),
            false);

    // Whole frames, through the deframer. A version-0 header
    // re-encodes as the current version, so frames are not
    // canonical.
    for (const Fixture &f : goldenFixtures())
        if (f.name.rfind("wire_", 0) == 0)
            rows.push_back({f.name, fixture(f.name), frameRoundTrip, {},
                            false});
    for (const char *name : {"server_put_response",
                             "server_get_miss_response",
                             "server_get_hit_response"})
        rows.push_back({name, fixture(name), frameRoundTrip, {}, false});
    return rows;
}

TEST(FormatTable, GoldenBlobsParseAndCanonicalOnesReserialize)
{
    for (const FormatRow &row : formatTable()) {
        ASSERT_FALSE(row.golden.empty()) << row.name;
        std::optional<Bytes> again = row.roundTrip(row.golden);
        ASSERT_TRUE(again.has_value()) << row.name;
        EXPECT_TRUE(!row.canonical || *again == row.golden) << row.name;
    }
}

TEST(FormatTable, EveryOtherPrefixIsRejected)
{
    for (const FormatRow &row : formatTable()) {
        for (std::size_t len = 0; len < row.golden.size(); ++len) {
            Bytes cut(row.golden.begin(),
                      row.golden.begin() + static_cast<std::ptrdiff_t>(len));
            const bool valid =
                std::find(row.validPrefixes.begin(),
                          row.validPrefixes.end(),
                          len) != row.validPrefixes.end();
            EXPECT_EQ(row.roundTrip(cut).has_value(), valid)
                << row.name << " prefix length " << len;
        }
    }
}

TEST(FormatTable, SeededFlipsNeverCrashAndStayCanonical)
{
    for (const FormatRow &row : formatTable()) {
        Rng rng(2024);
        for (int iter = 0; iter < 400; ++iter) {
            Bytes mutated = row.golden;
            int flips = 1 + static_cast<int>(rng.nextBelow(8));
            for (int f = 0; f < flips; ++f) {
                std::size_t pos = rng.nextBelow(mutated.size());
                mutated[pos] ^= static_cast<u8>(1 + rng.nextBelow(255));
            }
            if (rng.nextBool(0.25))
                mutated.resize(rng.nextBelow(mutated.size() + 1));
            std::optional<Bytes> again = row.roundTrip(mutated);
            EXPECT_TRUE(!row.canonical || !again || *again == mutated)
                << row.name << " mutation " << iter;
        }
    }
}

TEST(FormatTable, RandomBytesNeverCrashTheParsers)
{
    for (const FormatRow &row : formatTable()) {
        Rng rng(2026);
        for (int trial = 0; trial < 200; ++trial) {
            Bytes junk(rng.nextBelow(160), 0);
            for (auto &b : junk)
                b = static_cast<u8>(rng.next());
            row.roundTrip(junk); // any verdict is fine
        }
    }
}

/** @p blob with the first two payload placeholder sizes of the
 * record meta at @p meta_at set to 1000 and 2^64 - 995, which sum to
 * 5 modulo 2^64. */
Bytes
withWrappingSizes(Bytes blob, std::size_t meta_at)
{
    ByteReader in(std::span<const u8>(blob).subspan(meta_at));
    in.getU32();            // "VREC"
    in.getRaw(in.getU32()); // codec headers
    in.getU32();            // frame count
    ByteWriter sizes;
    sizes.putU64(1000);
    sizes.putU64(~u64{0} - 994);
    std::copy(sizes.bytes().begin(), sizes.bytes().end(),
              blob.begin() +
                  static_cast<std::ptrdiff_t>(meta_at + in.pos()));
    return blob;
}

TEST(FormatTable, DefectBlobsAreRefused)
{
    ArchiveService service(::testing::TempDir() + "format_test_defects.vapp");

    // Placeholder sizes whose u64 sum wraps below the bound once
    // made the parser allocate 2^64 - 995 bytes and abort.
    const Bytes wrapped_meta =
        withWrappingSizes(fixture("record_meta_ctr"), 0);
    RecordMeta parsed;
    EXPECT_EQ(parseRecordMeta(wrapped_meta, parsed, u64{1} << 31),
              ArchiveError::Malformed);
    EXPECT_EQ(service.putReplicaMeta("golden", wrapped_meta),
              ArchiveError::Malformed);
    EXPECT_EQ(service.adoptRecord(
                  "golden", withWrappingSizes(fixture("export_record"), 4),
                  true),
              ArchiveError::Malformed);

    // A name the directory's u16 length prefix cannot carry once
    // serialized as a truncated length, and the whole file failed
    // to parse. It is refused on every way in.
    const std::string too_long(kMaxArchiveNameBytes + 1, 'n');
    EXPECT_EQ(service.put(too_long, goldenPrepared(), {}),
              ArchiveError::NameTooLong);
    EXPECT_EQ(service.adoptRecord(too_long, fixture("export_record"), true),
              ArchiveError::NameTooLong);
    EXPECT_EQ(service.putReplicaMeta(too_long, fixture("record_meta_ctr")),
              ArchiveError::NameTooLong);
    EXPECT_EQ(service.videoCount(), 0u);
    Archive archive = goldenArchive(true);
    archive.replicas[too_long] = fixture("record_meta_ctr");
    EXPECT_TRUE(serializeArchive(archive).empty());
    archive.replicas.erase(too_long);
    archive.videos[too_long] = plainRecord();
    EXPECT_TRUE(serializeArchive(archive).empty());
    const std::string path =
        ::testing::TempDir() + "format_test_long_name.vapp";
    EXPECT_EQ(writeArchive(archive, path), ArchiveError::NameTooLong);
    EXPECT_FALSE(std::ifstream(path).good());

    // The longest name that fits still round-trips.
    archive.videos.erase(too_long);
    archive.videos[std::string(kMaxArchiveNameBytes, 'n')] = plainRecord();
    Archive back;
    ASSERT_EQ(parseArchive(serializeArchive(archive), back),
              ArchiveError::None);
    EXPECT_EQ(back.videos.size(), 3u);
}

} // namespace
} // namespace videoapp
