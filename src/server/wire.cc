#include "server/wire.h"

#include <algorithm>

#include "common/bytes.h"
#include "common/crc32.h"

namespace videoapp {

const char *
opcodeName(Opcode op)
{
    switch (op) {
    case Opcode::Health: return "HEALTH";
    case Opcode::GetFrames: return "GET_FRAMES";
    case Opcode::Put: return "PUT";
    case Opcode::Stat: return "STAT";
    case Opcode::Scrub: return "SCRUB";
    case Opcode::ClusterInfo: return "CLUSTER_INFO";
    case Opcode::MetaPut: return "META_PUT";
    case Opcode::MetaGet: return "META_GET";
    case Opcode::CellPull: return "CELL_PULL";
    case Opcode::CellPush: return "CELL_PUSH";
    }
    return "unknown opcode";
}

const char *
statusName(Status status)
{
    switch (status) {
    case Status::Ok: return "OK";
    case Status::Partial: return "PARTIAL";
    case Status::NotFound: return "NOT_FOUND";
    case Status::KeyRequired: return "KEY_REQUIRED";
    case Status::Retry: return "RETRY";
    case Status::Deadline: return "DEADLINE";
    case Status::BadRequest: return "BAD_REQUEST";
    case Status::Error: return "ERROR";
    case Status::Degraded: return "DEGRADED";
    case Status::WrongEpoch: return "WRONG_EPOCH";
    }
    return "unknown status";
}

const char *
wireErrorName(WireError error)
{
    switch (error) {
    case WireError::None: return "none";
    case WireError::ShortRead: return "short read";
    case WireError::BadMagic: return "bad magic";
    case WireError::BadVersion: return "unsupported version";
    case WireError::Oversized: return "oversized payload";
    case WireError::BadCrc: return "CRC mismatch";
    case WireError::BadKind: return "unknown opcode/status";
    case WireError::Malformed: return "malformed payload";
    case WireError::ConnectionClosed: return "connection closed";
    }
    return "unknown wire error";
}

Bytes
encodeFrameHeader(u8 kind, u32 requestId, u32 payloadLength,
                  u8 flags)
{
    ByteWriter out(kWireHeaderBytes);
    out.putU32(kWireMagic);
    out.putU16(kWireVersion);
    out.putU8(kind);
    out.putU8(flags);
    out.putU32(requestId);
    out.putU32(payloadLength);
    out.putU32(crc32(out.bytes()));
    return out.take();
}

Bytes
encodeFrame(u8 kind, u32 requestId, const Bytes &payload, u8 flags)
{
    ByteWriter out(kWireHeaderBytes + payload.size() + 4);
    out.putRaw(encodeFrameHeader(
        kind, requestId, static_cast<u32>(payload.size()), flags));
    out.putRaw(payload);
    out.putU32(crc32(payload));
    return out.take();
}

WireError
parseFrameHeader(const u8 *data, std::size_t size,
                 WireFrameHeader &out)
{
    if (size < kWireHeaderBytes)
        return WireError::ShortRead;
    ByteReader in(data, kWireHeaderBytes);
    if (in.getU32() != kWireMagic)
        return WireError::BadMagic;
    if (in.getU16() > kWireVersion)
        return WireError::BadVersion;
    WireFrameHeader header;
    header.kind = in.getU8();
    header.flags = in.getU8();
    header.requestId = in.getU32();
    header.payloadLength = in.getU32();
    if (in.getU32() != crc32(data, 16))
        return WireError::BadCrc;
    out = header;
    if (out.payloadLength > kWireMaxPayload)
        return WireError::Oversized;
    return WireError::None;
}

WireError
verifyPayload(const Bytes &payload, u32 payload_crc)
{
    return crc32(payload) == payload_crc ? WireError::None
                                         : WireError::BadCrc;
}

void
FrameDeframer::feed(const u8 *data, std::size_t size)
{
    // Compact consumed bytes before growing: a long-lived pipelined
    // connection must not accumulate its whole history.
    if (pos_ > 0) {
        buffer_.erase(buffer_.begin(),
                      buffer_.begin() +
                          static_cast<std::ptrdiff_t>(pos_));
        pos_ = 0;
    }
    buffer_.insert(buffer_.end(), data, data + size);
}

FrameDeframer::Result
FrameDeframer::next(Decoded &out)
{
    if (fatal_)
        return Result::Error;
    const std::size_t avail = buffer_.size() - pos_;
    if (avail < kWireHeaderBytes)
        return Result::NeedMore;
    WireError err = parseFrameHeader(buffer_.data() + pos_,
                                     kWireHeaderBytes, out.header);
    if (err != WireError::None) {
        // Header damage: the stream cannot be resynchronized.
        error_ = err;
        fatal_ = true;
        return Result::Error;
    }
    const std::size_t total =
        kWireHeaderBytes + out.header.payloadLength + 4;
    if (avail < total)
        return Result::NeedMore;
    const u8 *body = buffer_.data() + pos_ + kWireHeaderBytes;
    out.payload.assign(body, body + out.header.payloadLength);
    u32 crc = ByteReader(body + out.header.payloadLength, 4).getU32();
    pos_ += total; // consumed either way: framing held
    if (verifyPayload(out.payload, crc) != WireError::None) {
        // Recoverable: out.header.requestId is valid for the
        // BadRequest echo and the next frame starts cleanly.
        error_ = WireError::BadCrc;
        return Result::Error;
    }
    error_ = WireError::None;
    return Result::Frame;
}

// --- requests ----------------------------------------------------------

Bytes
serializeGetFramesRequest(const GetFramesRequest &request)
{
    ByteWriter out;
    out.putString32(request.name);
    out.putU32(request.gop);
    out.putF64(request.injectRawBer);
    out.putU64(request.seed);
    out.putU8(request.conceal ? 1 : 0);
    out.putBlob32(request.key);
    out.putU32(request.deadlineMs);
    // Epoch/replica tail only when set: default-valued requests stay
    // byte-identical to the pre-resize wire shape, so old captures
    // and mixed-version peers keep parsing.
    if (request.ringEpoch != 0 || request.allowReplica) {
        out.putU64(request.ringEpoch);
        out.putU8(request.allowReplica ? 1 : 0);
    }
    return out.take();
}

bool
parseGetFramesRequest(const Bytes &payload, GetFramesRequest &out)
{
    ByteReader in(payload);
    out.name = in.getString32();
    out.gop = in.getU32();
    out.injectRawBer = in.getF64();
    out.seed = in.getU64();
    out.conceal = in.getU8() != 0;
    out.key = in.getBlob32();
    out.deadlineMs = in.getU32();
    const bool tail = in.remaining() > 0;
    out.ringEpoch = tail ? in.getU64() : 0;
    out.allowReplica = tail && in.getU8() != 0;
    // NaN / negative rates would poison the injection path.
    return in.exhausted() && out.injectRawBer >= 0.0 &&
           out.injectRawBer <= 1.0;
}

Bytes
serializePutRequest(const PutRequest &request)
{
    ByteWriter out;
    out.putString32(request.name);
    out.putU16(request.width);
    out.putU16(request.height);
    out.putU32(request.frameCount);
    out.putBlob32(request.i420);
    out.putBlob32(request.key);
    out.putU8(request.cipherMode);
    out.putU32(request.keyId);
    out.putU64(request.ivSeed);
    out.putU8(request.encryptMinT);
    if (request.ringEpoch != 0)
        out.putU64(request.ringEpoch);
    return out.take();
}

bool
parsePutRequest(const Bytes &payload, PutRequest &out)
{
    ByteReader in(payload);
    out.name = in.getString32();
    out.width = in.getU16();
    out.height = in.getU16();
    out.frameCount = in.getU32();
    out.i420 = in.getBlob32();
    out.key = in.getBlob32();
    out.cipherMode = in.getU8();
    out.keyId = in.getU32();
    out.ivSeed = in.getU64();
    out.encryptMinT = in.getU8();
    out.ringEpoch = in.remaining() > 0 ? in.getU64() : 0;
    if (!in.exhausted() || out.name.empty() || out.width == 0 ||
        out.height == 0 || out.width % 16 != 0 ||
        out.height % 16 != 0 || out.frameCount == 0)
        return false;
    u64 frame_bytes = static_cast<u64>(out.width) * out.height * 3 / 2;
    return out.i420.size() == frame_bytes * out.frameCount;
}

Bytes
serializeScrubRequest(const ScrubRequest &request)
{
    ByteWriter out;
    out.putF64(request.ageRawBer);
    out.putU64(request.seed);
    return out.take();
}

bool
parseScrubRequest(const Bytes &payload, ScrubRequest &out)
{
    ByteReader in(payload);
    out.ageRawBer = in.getF64();
    out.seed = in.getU64();
    return in.exhausted() && out.ageRawBer >= 0.0 &&
           out.ageRawBer <= 1.0;
}

// --- responses ---------------------------------------------------------

namespace {

/** GET_FRAMES payload bytes before the frames, their u32 length
 * prefix included. */
constexpr std::size_t kGetFramesFieldBytes = 58;

/** Smallest encodings of one StatResponse row and one ring shard
 * (empty name / host). */
constexpr std::size_t kStatRowMinBytes = 33;
constexpr std::size_t kShardMinBytes = 10;

/** Read the leading status byte into @p status; false when it is
 * missing or outside the known range. */
bool
getStatus(ByteReader &in, Status &status)
{
    const u8 byte = in.getU8();
    if (!in.ok() || byte > static_cast<u8>(Status::WrongEpoch))
        return false;
    status = static_cast<Status>(byte);
    return true;
}

/** Bytes of frames [first, first + count) of @p video as planar
 * I420 (clamped to the video's end). */
std::size_t
framesI420Bytes(const Video &video, std::size_t first,
                std::size_t count)
{
    const std::size_t end = std::min(first + count, video.frames.size());
    std::size_t bytes = 0;
    for (std::size_t i = first; i < end; ++i) {
        const Frame &f = video.frames[i];
        bytes += f.y().data().size() + f.u().data().size() +
                 f.v().data().size();
    }
    return bytes;
}

void
appendFramesI420(ByteWriter &out, const Video &video, std::size_t first,
                 std::size_t count)
{
    const std::size_t end = std::min(first + count, video.frames.size());
    for (std::size_t i = first; i < end; ++i) {
        const Frame &f = video.frames[i];
        for (const Plane *plane : {&f.y(), &f.u(), &f.v()})
            out.putRaw(plane->data());
    }
}

/** A GET_FRAMES payload whose @p i420_bytes of frames
 * @p append_frames writes after the fields, into a buffer reserved
 * to the payload's final size. */
template <typename AppendFrames>
Bytes
serializeGetFrames(const GetFramesResponse &response,
                   std::size_t i420_bytes, AppendFrames append_frames)
{
    ByteWriter out(kGetFramesFieldBytes + i420_bytes);
    out.putU8(static_cast<u8>(response.status));
    out.putU16(response.width);
    out.putU16(response.height);
    out.putU32(response.firstFrame);
    out.putU32(response.frameCount);
    out.putU32(response.gopCount);
    out.putU8(response.fromCache ? 1 : 0);
    out.putU64(response.blocksCorrected);
    out.putU64(response.blocksUncorrectable);
    out.putU32(response.streamsShed);
    out.putU64(response.bytesShed);
    out.putF64(response.shedDbEst);
    out.putU32(static_cast<u32>(i420_bytes));
    append_frames(out);
    return out.take();
}

} // namespace

Bytes
serializeGetFramesResponse(const GetFramesResponse &response)
{
    return serializeGetFramesResponse(response, response.i420);
}

Bytes
serializeGetFramesResponse(const GetFramesResponse &response,
                           const Bytes &i420)
{
    return serializeGetFrames(response, i420.size(),
                              [&i420](ByteWriter &out) {
                                  out.putRaw(i420);
                              });
}

Bytes
serializeGetFramesResponse(const GetFramesResponse &response,
                           const Video &video, std::size_t video_first)
{
    const std::size_t first =
        response.firstFrame >= video_first
            ? response.firstFrame - video_first
            : video.frames.size();
    return serializeGetFrames(
        response, framesI420Bytes(video, first, response.frameCount),
        [&](ByteWriter &out) {
            appendFramesI420(out, video, first, response.frameCount);
        });
}

bool
parseGetFramesResponse(const Bytes &payload, GetFramesResponse &out)
{
    return parseGetFramesResponse(Bytes(payload), out);
}

bool
parseGetFramesResponse(Bytes &&payload, GetFramesResponse &out)
{
    ByteReader in(payload);
    if (!getStatus(in, out.status))
        return false;
    if (out.status != Status::Ok && out.status != Status::Partial &&
        out.status != Status::Degraded)
        return true; // bare-status error response
    out.width = in.getU16();
    out.height = in.getU16();
    out.firstFrame = in.getU32();
    out.frameCount = in.getU32();
    out.gopCount = in.getU32();
    out.fromCache = in.getU8() != 0;
    out.blocksCorrected = in.getU64();
    out.blocksUncorrectable = in.getU64();
    out.streamsShed = in.getU32();
    out.bytesShed = in.getU64();
    out.shedDbEst = in.getF64();
    const u32 i420_bytes = in.getU32();
    if (!in.ok() || in.remaining() != i420_bytes)
        return false;
    // The frames end the payload: drop the fields in front of them
    // and keep the buffer.
    payload.erase(payload.begin(),
                  payload.end() - static_cast<std::ptrdiff_t>(i420_bytes));
    out.i420 = std::move(payload);
    return true;
}

Bytes
serializePutResponse(const PutResponse &response)
{
    ByteWriter out;
    out.putU8(static_cast<u8>(response.status));
    out.putU64(response.payloadBytes);
    out.putU64(response.cellBytes);
    return out.take();
}

bool
parsePutResponse(const Bytes &payload, PutResponse &out)
{
    ByteReader in(payload);
    if (!getStatus(in, out.status))
        return false;
    if (out.status != Status::Ok)
        return true;
    out.payloadBytes = in.getU64();
    out.cellBytes = in.getU64();
    return in.exhausted();
}

Bytes
serializeStatResponse(const StatResponse &response)
{
    ByteWriter out;
    out.putU8(static_cast<u8>(response.status));
    out.putU32(static_cast<u32>(response.videos.size()));
    for (const ArchiveVideoStat &v : response.videos) {
        out.putString32(v.name);
        out.putU16(static_cast<u16>(v.width));
        out.putU16(static_cast<u16>(v.height));
        out.putU32(static_cast<u32>(v.frames));
        out.putU32(static_cast<u32>(v.streamCount));
        out.putU64(v.payloadBytes);
        out.putU64(v.cellBytes);
        out.putU8(v.encrypted ? 1 : 0);
    }
    return out.take();
}

bool
parseStatResponse(const Bytes &payload, StatResponse &out)
{
    ByteReader in(payload);
    if (!getStatus(in, out.status))
        return false;
    if (out.status != Status::Ok)
        return true;
    out.videos.assign(in.boundedCount(in.getU32(), kStatRowMinBytes),
                      ArchiveVideoStat{});
    for (ArchiveVideoStat &v : out.videos) {
        v.name = in.getString32();
        v.width = in.getU16();
        v.height = in.getU16();
        v.frames = in.getU32();
        v.streamCount = in.getU32();
        v.payloadBytes = in.getU64();
        v.cellBytes = in.getU64();
        v.encrypted = in.getU8() != 0;
    }
    return in.exhausted();
}

Bytes
serializeScrubResponse(const ScrubResponse &response)
{
    ByteWriter out;
    out.putU8(static_cast<u8>(response.status));
    out.putU64(response.videos);
    out.putU64(response.streams);
    out.putU64(response.blocksRead);
    out.putU64(response.blocksRewritten);
    out.putU64(response.bitsCorrected);
    out.putU64(response.blocksUncorrectable);
    out.putU64(response.streamsMiscorrected);
    out.putU64(response.streamsDamaged);
    return out.take();
}

bool
parseScrubResponse(const Bytes &payload, ScrubResponse &out)
{
    ByteReader in(payload);
    if (!getStatus(in, out.status))
        return false;
    if (out.status != Status::Ok)
        return true;
    out.videos = in.getU64();
    out.streams = in.getU64();
    out.blocksRead = in.getU64();
    out.blocksRewritten = in.getU64();
    out.bitsCorrected = in.getU64();
    out.blocksUncorrectable = in.getU64();
    out.streamsMiscorrected = in.getU64();
    out.streamsDamaged = in.getU64();
    return in.exhausted();
}

Bytes
serializeHealthResponse(const HealthResponse &response)
{
    ByteWriter out;
    out.putU8(static_cast<u8>(response.status));
    out.putU32(response.queueDepth);
    out.putU32(response.queueCapacity);
    out.putU32(response.queueHighWater);
    out.putU64(response.queueRejected);
    out.putU64(response.cacheBytes);
    out.putU64(response.cacheEntries);
    out.putU64(response.videos);
    out.putU64(response.coalescedGets);
    out.putU32(response.shedThreshold);
    out.putU64(response.shedResponses);
    return out.take();
}

bool
parseHealthResponse(const Bytes &payload, HealthResponse &out)
{
    ByteReader in(payload);
    if (!getStatus(in, out.status))
        return false;
    if (out.status != Status::Ok)
        return true;
    out.queueDepth = in.getU32();
    out.queueCapacity = in.getU32();
    out.queueHighWater = in.getU32();
    out.queueRejected = in.getU64();
    out.cacheBytes = in.getU64();
    out.cacheEntries = in.getU64();
    out.videos = in.getU64();
    out.coalescedGets = in.getU64();
    out.shedThreshold = in.getU32();
    out.shedResponses = in.getU64();
    return in.exhausted();
}

Bytes
serializeStatusOnly(Status status)
{
    return Bytes{static_cast<u8>(status)};
}

std::optional<Status>
peekStatus(const Bytes &payload)
{
    ByteReader in(payload);
    Status status = Status::Error;
    if (!getStatus(in, status))
        return std::nullopt;
    return status;
}

// --- cluster messages --------------------------------------------------

Bytes
serializeClusterInfoResponse(const ClusterInfoResponse &r)
{
    ByteWriter out;
    out.putU8(static_cast<u8>(r.status));
    out.putU64(r.epoch);
    out.putU32(r.vnodes);
    out.putU32(r.replicas);
    out.putU32(r.selfId);
    out.putU32(static_cast<u32>(r.shards.size()));
    for (const ClusterShard &s : r.shards) {
        out.putU32(s.id);
        out.putString32(s.host);
        out.putU16(s.port);
    }
    return out.take();
}

bool
parseClusterInfoResponse(const Bytes &payload,
                         ClusterInfoResponse &out)
{
    ByteReader in(payload);
    if (!getStatus(in, out.status))
        return false;
    // WrongEpoch responses carry the full ring body too — that is
    // the entire point: the rejected client heals from the reply.
    if (out.status != Status::Ok && out.status != Status::WrongEpoch)
        return true; // bare-status error response
    out.epoch = in.getU64();
    out.vnodes = in.getU32();
    out.replicas = in.getU32();
    out.selfId = in.getU32();
    out.shards.assign(in.boundedCount(in.getU32(), kShardMinBytes),
                      ClusterShard{});
    for (ClusterShard &s : out.shards) {
        s.id = in.getU32();
        s.host = in.getString32();
        s.port = in.getU16();
    }
    return in.exhausted() && out.vnodes > 0 && !out.shards.empty();
}

Bytes
serializeMetaPutRequest(const MetaPutRequest &request)
{
    ByteWriter out;
    out.putString32(request.name);
    out.putBlob32(request.meta);
    return out.take();
}

bool
parseMetaPutRequest(const Bytes &payload, MetaPutRequest &out)
{
    ByteReader in(payload);
    out.name = in.getString32();
    out.meta = in.getBlob32();
    return in.exhausted() && !out.name.empty() && !out.meta.empty();
}

Bytes
serializeMetaGetRequest(const MetaGetRequest &request)
{
    ByteWriter out;
    out.putString32(request.name);
    return out.take();
}

bool
parseMetaGetRequest(const Bytes &payload, MetaGetRequest &out)
{
    ByteReader in(payload);
    out.name = in.getString32();
    return in.exhausted() && !out.name.empty();
}

Bytes
serializeMetaGetResponse(const MetaGetResponse &response)
{
    ByteWriter out;
    out.putU8(static_cast<u8>(response.status));
    if (response.status == Status::Ok)
        out.putBlob32(response.meta);
    return out.take();
}

bool
parseMetaGetResponse(const Bytes &payload, MetaGetResponse &out)
{
    ByteReader in(payload);
    if (!getStatus(in, out.status))
        return false;
    if (out.status != Status::Ok)
        return true;
    out.meta = in.getBlob32();
    return in.exhausted();
}

Bytes
serializeCellPullRequest(const CellPullRequest &request)
{
    ByteWriter out;
    out.putString32(request.name);
    return out.take();
}

bool
parseCellPullRequest(const Bytes &payload, CellPullRequest &out)
{
    ByteReader in(payload);
    out.name = in.getString32();
    return in.exhausted() && !out.name.empty();
}

Bytes
serializeCellPullResponse(const CellPullResponse &response)
{
    ByteWriter out;
    out.putU8(static_cast<u8>(response.status));
    if (response.status == Status::Ok)
        out.putBlob32(response.record);
    return out.take();
}

bool
parseCellPullResponse(const Bytes &payload, CellPullResponse &out)
{
    ByteReader in(payload);
    if (!getStatus(in, out.status))
        return false;
    if (out.status != Status::Ok)
        return true;
    out.record = in.getBlob32();
    return in.exhausted() && !out.record.empty();
}

Bytes
serializeCellPushRequest(const CellPushRequest &request)
{
    ByteWriter out;
    out.putString32(request.name);
    out.putBlob32(request.record);
    out.putU8(request.overwrite ? 1 : 0);
    return out.take();
}

bool
parseCellPushRequest(const Bytes &payload, CellPushRequest &out)
{
    ByteReader in(payload);
    out.name = in.getString32();
    out.record = in.getBlob32();
    out.overwrite = in.getU8() != 0;
    return in.exhausted() && !out.name.empty() && !out.record.empty();
}

Bytes
serializeCellPushResponse(const CellPushResponse &response)
{
    ByteWriter out;
    out.putU8(static_cast<u8>(response.status));
    if (response.status == Status::Ok)
        out.putU8(response.adopted ? 1 : 0);
    return out.take();
}

bool
parseCellPushResponse(const Bytes &payload, CellPushResponse &out)
{
    ByteReader in(payload);
    if (!getStatus(in, out.status))
        return false;
    if (out.status != Status::Ok)
        return true;
    out.adopted = in.getU8() != 0;
    return in.exhausted();
}

std::optional<std::string>
peekRequestName(const Bytes &payload)
{
    ByteReader in(payload);
    std::string name = in.getString32();
    if (!in.ok() || name.empty())
        return std::nullopt;
    return name;
}

// --- frame packing (GOP ranges: codec/gop.h) --------------------------

Bytes
packFramesI420(const Video &video, std::size_t first,
               std::size_t count)
{
    ByteWriter out(framesI420Bytes(video, first, count));
    appendFramesI420(out, video, first, count);
    return out.take();
}

} // namespace videoapp
