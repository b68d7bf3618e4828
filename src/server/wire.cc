#include "server/wire.h"

#include <algorithm>
#include <bit>
#include <cstring>

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

namespace {

void
putBe16(Bytes &out, u16 v)
{
    out.push_back(static_cast<u8>(v >> 8));
    out.push_back(static_cast<u8>(v));
}

void
putBe32(Bytes &out, u32 v)
{
    out.push_back(static_cast<u8>(v >> 24));
    out.push_back(static_cast<u8>(v >> 16));
    out.push_back(static_cast<u8>(v >> 8));
    out.push_back(static_cast<u8>(v));
}

u16
getBe16(const u8 *p)
{
    return static_cast<u16>(static_cast<u16>(p[0]) << 8 | p[1]);
}

u32
getBe32(const u8 *p)
{
    return static_cast<u32>(p[0]) << 24 |
           static_cast<u32>(p[1]) << 16 |
           static_cast<u32>(p[2]) << 8 | static_cast<u32>(p[3]);
}

} // namespace

Bytes
encodeFrameHeader(u8 kind, u32 requestId, u32 payloadLength,
                  u8 flags)
{
    Bytes out;
    out.reserve(kWireHeaderBytes);
    putBe32(out, kWireMagic);
    putBe16(out, kWireVersion);
    out.push_back(kind);
    out.push_back(flags);
    putBe32(out, requestId);
    putBe32(out, payloadLength);
    putBe32(out, crc32(out.data(), 16));
    return out;
}

Bytes
encodeBe32(u32 v)
{
    Bytes out;
    putBe32(out, v);
    return out;
}

Bytes
encodeFrame(u8 kind, u32 requestId, const Bytes &payload, u8 flags)
{
    Bytes out = encodeFrameHeader(
        kind, requestId, static_cast<u32>(payload.size()), flags);
    out.reserve(kWireHeaderBytes + payload.size() + 4);
    out.insert(out.end(), payload.begin(), payload.end());
    putBe32(out, crc32(payload));
    return out;
}

WireError
parseFrameHeader(const u8 *data, std::size_t size,
                 WireFrameHeader &out)
{
    if (size < kWireHeaderBytes)
        return WireError::ShortRead;
    if (getBe32(data) != kWireMagic)
        return WireError::BadMagic;
    if (getBe16(data + 4) > kWireVersion)
        return WireError::BadVersion;
    if (getBe32(data + 16) != crc32(data, 16))
        return WireError::BadCrc;
    out.kind = data[6];
    out.flags = data[7];
    out.requestId = getBe32(data + 8);
    out.payloadLength = getBe32(data + 12);
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
    u32 crc = getBe32(body + out.header.payloadLength);
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

// --- payload primitives ------------------------------------------------

void
WireWriter::putU16(u16 v)
{
    putBe16(out_, v);
}

void
WireWriter::putU32(u32 v)
{
    putBe32(out_, v);
}

void
WireWriter::putU64(u64 v)
{
    putBe32(out_, static_cast<u32>(v >> 32));
    putBe32(out_, static_cast<u32>(v));
}

void
WireWriter::putDouble(double v)
{
    putU64(std::bit_cast<u64>(v));
}

void
WireWriter::putBytes(const Bytes &bytes)
{
    putU32(static_cast<u32>(bytes.size()));
    putRaw(bytes.data(), bytes.size());
}

void
WireWriter::putRaw(const u8 *data, std::size_t size)
{
    out_.insert(out_.end(), data, data + size);
}

void
WireWriter::putString(const std::string &s)
{
    putU32(static_cast<u32>(s.size()));
    out_.insert(out_.end(), s.begin(), s.end());
}

bool
WireReader::getU8(u8 &v)
{
    if (data_.size() - pos_ < 1)
        return false;
    v = data_[pos_++];
    return true;
}

bool
WireReader::getU16(u16 &v)
{
    if (data_.size() - pos_ < 2)
        return false;
    v = getBe16(data_.data() + pos_);
    pos_ += 2;
    return true;
}

bool
WireReader::getU32(u32 &v)
{
    if (data_.size() - pos_ < 4)
        return false;
    v = getBe32(data_.data() + pos_);
    pos_ += 4;
    return true;
}

bool
WireReader::getU64(u64 &v)
{
    u32 hi = 0;
    u32 lo = 0;
    if (!getU32(hi) || !getU32(lo))
        return false;
    v = static_cast<u64>(hi) << 32 | lo;
    return true;
}

bool
WireReader::getDouble(double &v)
{
    u64 bits = 0;
    if (!getU64(bits))
        return false;
    v = std::bit_cast<double>(bits);
    return true;
}

bool
WireReader::getBytes(Bytes &bytes)
{
    u32 n = 0;
    if (!getU32(n) || data_.size() - pos_ < n)
        return false;
    bytes.assign(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                 data_.begin() +
                     static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return true;
}

bool
WireReader::getString(std::string &s)
{
    u32 n = 0;
    if (!getU32(n) || data_.size() - pos_ < n)
        return false;
    s.assign(reinterpret_cast<const char *>(data_.data()) + pos_, n);
    pos_ += n;
    return true;
}

// --- requests ----------------------------------------------------------

Bytes
serializeGetFramesRequest(const GetFramesRequest &request)
{
    WireWriter w;
    w.putString(request.name);
    w.putU32(request.gop);
    w.putDouble(request.injectRawBer);
    w.putU64(request.seed);
    w.putU8(request.conceal ? 1 : 0);
    w.putBytes(request.key);
    w.putU32(request.deadlineMs);
    // Epoch/replica tail only when set: default-valued requests stay
    // byte-identical to the pre-resize wire shape, so old captures
    // and mixed-version peers keep parsing.
    if (request.ringEpoch != 0 || request.allowReplica) {
        w.putU64(request.ringEpoch);
        w.putU8(request.allowReplica ? 1 : 0);
    }
    return w.take();
}

bool
parseGetFramesRequest(const Bytes &payload, GetFramesRequest &out)
{
    WireReader r(payload);
    u8 conceal = 0;
    if (!r.getString(out.name) || !r.getU32(out.gop) ||
        !r.getDouble(out.injectRawBer) || !r.getU64(out.seed) ||
        !r.getU8(conceal) || !r.getBytes(out.key) ||
        !r.getU32(out.deadlineMs))
        return false;
    out.conceal = conceal != 0;
    out.ringEpoch = 0;
    out.allowReplica = false;
    if (!r.exhausted()) {
        u8 allow_replica = 0;
        if (!r.getU64(out.ringEpoch) || !r.getU8(allow_replica) ||
            !r.exhausted())
            return false;
        out.allowReplica = allow_replica != 0;
    }
    // NaN / negative rates would poison the injection path.
    return out.injectRawBer >= 0.0 && out.injectRawBer <= 1.0;
}

Bytes
serializePutRequest(const PutRequest &request)
{
    WireWriter w;
    w.putString(request.name);
    w.putU16(request.width);
    w.putU16(request.height);
    w.putU32(request.frameCount);
    w.putBytes(request.i420);
    w.putBytes(request.key);
    w.putU8(request.cipherMode);
    w.putU32(request.keyId);
    w.putU64(request.ivSeed);
    w.putU8(request.encryptMinT);
    if (request.ringEpoch != 0)
        w.putU64(request.ringEpoch);
    return w.take();
}

bool
parsePutRequest(const Bytes &payload, PutRequest &out)
{
    WireReader r(payload);
    if (!r.getString(out.name) || !r.getU16(out.width) ||
        !r.getU16(out.height) || !r.getU32(out.frameCount) ||
        !r.getBytes(out.i420) || !r.getBytes(out.key) ||
        !r.getU8(out.cipherMode) || !r.getU32(out.keyId) ||
        !r.getU64(out.ivSeed) || !r.getU8(out.encryptMinT))
        return false;
    out.ringEpoch = 0;
    if (!r.exhausted() &&
        (!r.getU64(out.ringEpoch) || !r.exhausted()))
        return false;
    if (out.name.empty() || out.width == 0 || out.height == 0 ||
        out.width % 16 != 0 || out.height % 16 != 0 ||
        out.frameCount == 0)
        return false;
    u64 frame_bytes = static_cast<u64>(out.width) * out.height * 3 / 2;
    return out.i420.size() == frame_bytes * out.frameCount;
}

Bytes
serializeScrubRequest(const ScrubRequest &request)
{
    WireWriter w;
    w.putDouble(request.ageRawBer);
    w.putU64(request.seed);
    return w.take();
}

bool
parseScrubRequest(const Bytes &payload, ScrubRequest &out)
{
    WireReader r(payload);
    if (!r.getDouble(out.ageRawBer) || !r.getU64(out.seed) ||
        !r.exhausted())
        return false;
    return out.ageRawBer >= 0.0 && out.ageRawBer <= 1.0;
}

// --- responses ---------------------------------------------------------

namespace {

/** GET_FRAMES payload bytes before the frames, their u32 length
 * prefix included. */
constexpr std::size_t kGetFramesFieldBytes = 58;

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
appendFramesI420(WireWriter &w, const Video &video, std::size_t first,
                 std::size_t count)
{
    const std::size_t end = std::min(first + count, video.frames.size());
    for (std::size_t i = first; i < end; ++i) {
        const Frame &f = video.frames[i];
        for (const Plane *plane : {&f.y(), &f.u(), &f.v()})
            w.putRaw(plane->data().data(), plane->data().size());
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
    WireWriter w;
    w.reserve(kGetFramesFieldBytes + i420_bytes);
    w.putU8(static_cast<u8>(response.status));
    w.putU16(response.width);
    w.putU16(response.height);
    w.putU32(response.firstFrame);
    w.putU32(response.frameCount);
    w.putU32(response.gopCount);
    w.putU8(response.fromCache ? 1 : 0);
    w.putU64(response.blocksCorrected);
    w.putU64(response.blocksUncorrectable);
    w.putU32(response.streamsShed);
    w.putU64(response.bytesShed);
    w.putDouble(response.shedDbEst);
    w.putU32(static_cast<u32>(i420_bytes));
    append_frames(w);
    return w.take();
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
                              [&i420](WireWriter &w) {
                                  w.putRaw(i420.data(), i420.size());
                              });
}

Bytes
serializeGetFramesResponse(const GetFramesResponse &response,
                           const Video &video)
{
    return serializeGetFrames(
        response,
        framesI420Bytes(video, response.firstFrame,
                        response.frameCount),
        [&](WireWriter &w) {
            appendFramesI420(w, video, response.firstFrame,
                             response.frameCount);
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
    WireReader r(payload);
    u8 status = 0;
    if (!r.getU8(status) || status > static_cast<u8>(Status::WrongEpoch))
        return false;
    out.status = static_cast<Status>(status);
    if (out.status != Status::Ok && out.status != Status::Partial &&
        out.status != Status::Degraded)
        return true; // bare-status error response
    u8 from_cache = 0;
    u32 i420_bytes = 0;
    if (!r.getU16(out.width) || !r.getU16(out.height) ||
        !r.getU32(out.firstFrame) || !r.getU32(out.frameCount) ||
        !r.getU32(out.gopCount) || !r.getU8(from_cache) ||
        !r.getU64(out.blocksCorrected) ||
        !r.getU64(out.blocksUncorrectable) ||
        !r.getU32(out.streamsShed) || !r.getU64(out.bytesShed) ||
        !r.getDouble(out.shedDbEst) || !r.getU32(i420_bytes) ||
        r.remaining() != i420_bytes)
        return false;
    out.fromCache = from_cache != 0;
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
    WireWriter w;
    w.putU8(static_cast<u8>(response.status));
    w.putU64(response.payloadBytes);
    w.putU64(response.cellBytes);
    return w.take();
}

bool
parsePutResponse(const Bytes &payload, PutResponse &out)
{
    WireReader r(payload);
    u8 status = 0;
    if (!r.getU8(status) || status > static_cast<u8>(Status::WrongEpoch))
        return false;
    out.status = static_cast<Status>(status);
    if (out.status != Status::Ok)
        return true;
    return r.getU64(out.payloadBytes) && r.getU64(out.cellBytes) &&
           r.exhausted();
}

Bytes
serializeStatResponse(const StatResponse &response)
{
    WireWriter w;
    w.putU8(static_cast<u8>(response.status));
    w.putU32(static_cast<u32>(response.videos.size()));
    for (const ArchiveVideoStat &v : response.videos) {
        w.putString(v.name);
        w.putU16(static_cast<u16>(v.width));
        w.putU16(static_cast<u16>(v.height));
        w.putU32(static_cast<u32>(v.frames));
        w.putU32(static_cast<u32>(v.streamCount));
        w.putU64(v.payloadBytes);
        w.putU64(v.cellBytes);
        w.putU8(v.encrypted ? 1 : 0);
    }
    return w.take();
}

bool
parseStatResponse(const Bytes &payload, StatResponse &out)
{
    WireReader r(payload);
    u8 status = 0;
    if (!r.getU8(status) || status > static_cast<u8>(Status::WrongEpoch))
        return false;
    out.status = static_cast<Status>(status);
    if (out.status != Status::Ok)
        return true;
    u32 count = 0;
    if (!r.getU32(count))
        return false;
    out.videos.clear();
    for (u32 i = 0; i < count; ++i) {
        ArchiveVideoStat v;
        u16 width = 0;
        u16 height = 0;
        u32 frames = 0;
        u32 streams = 0;
        u8 encrypted = 0;
        if (!r.getString(v.name) || !r.getU16(width) ||
            !r.getU16(height) || !r.getU32(frames) ||
            !r.getU32(streams) || !r.getU64(v.payloadBytes) ||
            !r.getU64(v.cellBytes) || !r.getU8(encrypted))
            return false;
        v.width = width;
        v.height = height;
        v.frames = frames;
        v.streamCount = streams;
        v.encrypted = encrypted != 0;
        out.videos.push_back(std::move(v));
    }
    return r.exhausted();
}

Bytes
serializeScrubResponse(const ScrubResponse &response)
{
    WireWriter w;
    w.putU8(static_cast<u8>(response.status));
    w.putU64(response.videos);
    w.putU64(response.streams);
    w.putU64(response.blocksRead);
    w.putU64(response.blocksRewritten);
    w.putU64(response.bitsCorrected);
    w.putU64(response.blocksUncorrectable);
    w.putU64(response.streamsMiscorrected);
    w.putU64(response.streamsDamaged);
    return w.take();
}

bool
parseScrubResponse(const Bytes &payload, ScrubResponse &out)
{
    WireReader r(payload);
    u8 status = 0;
    if (!r.getU8(status) || status > static_cast<u8>(Status::WrongEpoch))
        return false;
    out.status = static_cast<Status>(status);
    if (out.status != Status::Ok)
        return true;
    return r.getU64(out.videos) && r.getU64(out.streams) &&
           r.getU64(out.blocksRead) &&
           r.getU64(out.blocksRewritten) &&
           r.getU64(out.bitsCorrected) &&
           r.getU64(out.blocksUncorrectable) &&
           r.getU64(out.streamsMiscorrected) &&
           r.getU64(out.streamsDamaged) && r.exhausted();
}

Bytes
serializeHealthResponse(const HealthResponse &response)
{
    WireWriter w;
    w.putU8(static_cast<u8>(response.status));
    w.putU32(response.queueDepth);
    w.putU32(response.queueCapacity);
    w.putU32(response.queueHighWater);
    w.putU64(response.queueRejected);
    w.putU64(response.cacheBytes);
    w.putU64(response.cacheEntries);
    w.putU64(response.videos);
    w.putU64(response.coalescedGets);
    w.putU32(response.shedThreshold);
    w.putU64(response.shedResponses);
    return w.take();
}

bool
parseHealthResponse(const Bytes &payload, HealthResponse &out)
{
    WireReader r(payload);
    u8 status = 0;
    if (!r.getU8(status) || status > static_cast<u8>(Status::WrongEpoch))
        return false;
    out.status = static_cast<Status>(status);
    if (out.status != Status::Ok)
        return true;
    return r.getU32(out.queueDepth) && r.getU32(out.queueCapacity) &&
           r.getU32(out.queueHighWater) &&
           r.getU64(out.queueRejected) && r.getU64(out.cacheBytes) &&
           r.getU64(out.cacheEntries) && r.getU64(out.videos) &&
           r.getU64(out.coalescedGets) &&
           r.getU32(out.shedThreshold) &&
           r.getU64(out.shedResponses) && r.exhausted();
}

Bytes
serializeStatusOnly(Status status)
{
    WireWriter w;
    w.putU8(static_cast<u8>(status));
    return w.take();
}

std::optional<Status>
peekStatus(const Bytes &payload)
{
    if (payload.empty() ||
        payload[0] > static_cast<u8>(Status::WrongEpoch))
        return std::nullopt;
    return static_cast<Status>(payload[0]);
}

// --- cluster messages --------------------------------------------------

Bytes
serializeClusterInfoResponse(const ClusterInfoResponse &r)
{
    WireWriter w;
    w.putU8(static_cast<u8>(r.status));
    w.putU64(r.epoch);
    w.putU32(r.vnodes);
    w.putU32(r.replicas);
    w.putU32(r.selfId);
    w.putU32(static_cast<u32>(r.shards.size()));
    for (const ClusterShard &s : r.shards) {
        w.putU32(s.id);
        w.putString(s.host);
        w.putU16(s.port);
    }
    return w.take();
}

bool
parseClusterInfoResponse(const Bytes &payload,
                         ClusterInfoResponse &out)
{
    WireReader r(payload);
    u8 status = 0;
    if (!r.getU8(status) || status > static_cast<u8>(Status::WrongEpoch))
        return false;
    out.status = static_cast<Status>(status);
    // WrongEpoch responses carry the full ring body too — that is
    // the entire point: the rejected client heals from the reply.
    if (out.status != Status::Ok && out.status != Status::WrongEpoch)
        return true; // bare-status error response
    u32 count = 0;
    if (!r.getU64(out.epoch) || !r.getU32(out.vnodes) ||
        !r.getU32(out.replicas) || !r.getU32(out.selfId) ||
        !r.getU32(count))
        return false;
    out.shards.clear();
    for (u32 i = 0; i < count; ++i) {
        ClusterShard s;
        if (!r.getU32(s.id) || !r.getString(s.host) ||
            !r.getU16(s.port))
            return false;
        out.shards.push_back(std::move(s));
    }
    return r.exhausted() && out.vnodes > 0 && !out.shards.empty();
}

Bytes
serializeMetaPutRequest(const MetaPutRequest &request)
{
    WireWriter w;
    w.putString(request.name);
    w.putBytes(request.meta);
    return w.take();
}

bool
parseMetaPutRequest(const Bytes &payload, MetaPutRequest &out)
{
    WireReader r(payload);
    if (!r.getString(out.name) || !r.getBytes(out.meta) ||
        !r.exhausted())
        return false;
    return !out.name.empty() && !out.meta.empty();
}

Bytes
serializeMetaGetRequest(const MetaGetRequest &request)
{
    WireWriter w;
    w.putString(request.name);
    return w.take();
}

bool
parseMetaGetRequest(const Bytes &payload, MetaGetRequest &out)
{
    WireReader r(payload);
    return r.getString(out.name) && r.exhausted() &&
           !out.name.empty();
}

Bytes
serializeMetaGetResponse(const MetaGetResponse &response)
{
    WireWriter w;
    w.putU8(static_cast<u8>(response.status));
    if (response.status == Status::Ok)
        w.putBytes(response.meta);
    return w.take();
}

bool
parseMetaGetResponse(const Bytes &payload, MetaGetResponse &out)
{
    WireReader r(payload);
    u8 status = 0;
    if (!r.getU8(status) || status > static_cast<u8>(Status::WrongEpoch))
        return false;
    out.status = static_cast<Status>(status);
    if (out.status != Status::Ok)
        return true;
    return r.getBytes(out.meta) && r.exhausted();
}

Bytes
serializeCellPullRequest(const CellPullRequest &request)
{
    WireWriter w;
    w.putString(request.name);
    return w.take();
}

bool
parseCellPullRequest(const Bytes &payload, CellPullRequest &out)
{
    WireReader r(payload);
    return r.getString(out.name) && r.exhausted() &&
           !out.name.empty();
}

Bytes
serializeCellPullResponse(const CellPullResponse &response)
{
    WireWriter w;
    w.putU8(static_cast<u8>(response.status));
    if (response.status == Status::Ok)
        w.putBytes(response.record);
    return w.take();
}

bool
parseCellPullResponse(const Bytes &payload, CellPullResponse &out)
{
    WireReader r(payload);
    u8 status = 0;
    if (!r.getU8(status) || status > static_cast<u8>(Status::WrongEpoch))
        return false;
    out.status = static_cast<Status>(status);
    if (out.status != Status::Ok)
        return true;
    return r.getBytes(out.record) && r.exhausted() &&
           !out.record.empty();
}

Bytes
serializeCellPushRequest(const CellPushRequest &request)
{
    WireWriter w;
    w.putString(request.name);
    w.putBytes(request.record);
    w.putU8(request.overwrite ? 1 : 0);
    return w.take();
}

bool
parseCellPushRequest(const Bytes &payload, CellPushRequest &out)
{
    WireReader r(payload);
    u8 overwrite = 0;
    if (!r.getString(out.name) || !r.getBytes(out.record) ||
        !r.getU8(overwrite) || !r.exhausted())
        return false;
    out.overwrite = overwrite != 0;
    return !out.name.empty() && !out.record.empty();
}

Bytes
serializeCellPushResponse(const CellPushResponse &response)
{
    WireWriter w;
    w.putU8(static_cast<u8>(response.status));
    if (response.status == Status::Ok)
        w.putU8(response.adopted ? 1 : 0);
    return w.take();
}

bool
parseCellPushResponse(const Bytes &payload, CellPushResponse &out)
{
    WireReader r(payload);
    u8 status = 0;
    if (!r.getU8(status) || status > static_cast<u8>(Status::WrongEpoch))
        return false;
    out.status = static_cast<Status>(status);
    if (out.status != Status::Ok)
        return true;
    u8 adopted = 0;
    if (!r.getU8(adopted) || !r.exhausted())
        return false;
    out.adopted = adopted != 0;
    return true;
}

std::optional<std::string>
peekRequestName(const Bytes &payload)
{
    WireReader r(payload);
    std::string name;
    if (!r.getString(name) || name.empty())
        return std::nullopt;
    return name;
}

// --- frame packing & GOP ranges ----------------------------------------

std::vector<GopRange>
gopRanges(const std::vector<FrameHeader> &headers,
          std::size_t frame_count)
{
    std::vector<u32> starts;
    for (const FrameHeader &h : headers)
        if (h.type == FrameType::I && h.displayIdx < frame_count)
            starts.push_back(h.displayIdx);
    std::sort(starts.begin(), starts.end());
    // A leading non-I prefix (or no I frames at all) folds into the
    // first GOP so every frame belongs to exactly one range.
    if (starts.empty())
        starts.push_back(0);
    else
        starts.front() = 0;
    std::vector<GopRange> ranges;
    for (std::size_t g = 0; g < starts.size(); ++g) {
        u32 first = starts[g];
        u32 end = g + 1 < starts.size()
                      ? starts[g + 1]
                      : static_cast<u32>(frame_count);
        if (end > first)
            ranges.push_back({first, end - first});
    }
    if (ranges.empty() && frame_count > 0)
        ranges.push_back({0, static_cast<u32>(frame_count)});
    return ranges;
}

Bytes
packFramesI420(const Video &video, std::size_t first,
               std::size_t count)
{
    WireWriter w;
    w.reserve(framesI420Bytes(video, first, count));
    appendFramesI420(w, video, first, count);
    return w.take();
}

} // namespace videoapp
