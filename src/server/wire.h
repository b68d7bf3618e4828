/**
 * @file
 * The VAPP serving wire protocol: a length-prefixed binary framing
 * shared by the server, the client library and the load bench.
 *
 * Every message travels as one frame:
 *
 *   header (20 bytes, all integers big-endian like the containers)
 *     u32 magic "VSRV"     u16 version      u8 kind    u8 flags
 *     u32 requestId        u32 payloadLength
 *     u32 headerCrc        (crc32 of bytes 0..15)
 *   payload (payloadLength bytes, opcode/status specific)
 *   u32 payloadCrc         (crc32 of the payload bytes)
 *
 * `kind` is the request Opcode client->server and the response
 * Status server->client; `requestId` is echoed verbatim so a client
 * can pipeline requests on one connection. The parser is total:
 * truncations, bad magic/version, oversized lengths and CRC flips
 * all come back as typed WireError values, never a crash (fuzzed in
 * tests/server_test.cc, mirroring the vapp_container fuzzing).
 *
 * Payload encodings are plain big-endian field sequences written and
 * read with the shared byte codec (common/bytes.h); every parse*() is
 * as total as the frame parser. Response payloads begin
 * with the Status byte repeated, so a generic error response (status
 * byte only) parses under every opcode's response type.
 */

#ifndef VIDEOAPP_SERVER_WIRE_H_
#define VIDEOAPP_SERVER_WIRE_H_

#include <optional>
#include <string>
#include <vector>

#include "archive/archive_service.h"
#include "codec/container.h"
#include "core/pipeline.h"

namespace videoapp {

/** "VSRV" — the serving protocol, distinct from both containers. */
inline constexpr u32 kWireMagic = 0x56535256;

/** Current (and oldest supported) wire protocol version. */
inline constexpr u16 kWireVersion = 1;

/** Encoded frame header size in bytes. */
inline constexpr std::size_t kWireHeaderBytes = 20;

/** Reject frames claiming payloads beyond this (memory safety). */
inline constexpr u32 kWireMaxPayload = 256u << 20;

/** Request opcodes (frame `kind`, client -> server). */
enum class Opcode : u8
{
    Health = 0,      // liveness + load probe, served off-queue
    GetFrames = 1,   // decode one GOP of a stored video
    Put = 2,         // store a raw I420 video under a name
    Stat = 3,        // directory listing
    Scrub = 4,       // archive-wide repair pass
    ClusterInfo = 5, // ring topology + epoch (cluster nodes only)
    MetaPut = 6,     // node-to-node: replicate a precise-meta blob
    MetaGet = 7,     // node-to-node: fetch a held replica blob
    CellPull = 8,    // node-to-node: fetch a full record (migration)
    CellPush = 9,    // node-to-node: install a full record (migration)
};

/**
 * Frame header flag: this request was forwarded by a peer shard on
 * the client's behalf. A receiving node serves it locally even when
 * the ring says another shard owns the name — one hop, never a loop
 * (set exactly once, by the first mis-targeted node).
 */
inline constexpr u8 kWireFlagForwarded = 0x01;

/** Response status (frame `kind`, server -> client). */
enum class Status : u8
{
    Ok = 0,
    Partial = 1,     // served, but some blocks were uncorrectable
    NotFound = 2,    // ArchiveError::NotFound mapped to the wire
    KeyRequired = 3, // record is encrypted, no/empty key supplied
    Retry = 4,       // request queue full: back off and resend
    Deadline = 5,    // deadline expired before a worker got to it
    BadRequest = 6,  // malformed frame or payload
    Error = 7,       // any other server-side failure
    /** Served at reduced fidelity: the server shed low-importance
     * streams under load to protect latency. Distinct from Partial
     * (storage damage) — the loss here was chosen, not suffered. */
    Degraded = 8,
    /** The request carried a ring epoch older than the node's: the
     * topology changed under the client. The response payload is a
     * full ClusterInfoResponse body (status byte = WrongEpoch), so
     * the client installs the fresh ring and retries — no separate
     * refresh round trip. */
    WrongEpoch = 9,
};

/** Why a frame could not be decoded. */
enum class WireError
{
    None,
    ShortRead,  // buffer truncated mid-frame (peer died mid-send)
    BadMagic,   // not a VSRV frame
    BadVersion, // peer speaks a newer protocol revision
    Oversized,  // payload length beyond kWireMaxPayload
    BadCrc,     // header or payload failed its integrity check
    BadKind,    // opcode/status byte outside the known range
    Malformed,  // payload fields inconsistent with the opcode
    /** Peer closed cleanly between frames (orderly EOF / reset):
     * distinct from ShortRead so pipelined clients can tell "the
     * server went away" from "the stream is corrupt". */
    ConnectionClosed,
};

const char *opcodeName(Opcode op);
const char *statusName(Status status);
const char *wireErrorName(WireError error);

// --- framing -----------------------------------------------------------

/** A parsed frame header (payload read separately). */
struct WireFrameHeader
{
    u8 kind = 0;
    u8 flags = 0;
    u32 requestId = 0;
    u32 payloadLength = 0;
};

/** Encode a complete frame (header + payload + payload CRC). */
Bytes encodeFrame(u8 kind, u32 requestId, const Bytes &payload,
                  u8 flags = 0);

/**
 * Encode only the 20-byte frame header for a payload of
 * @p payloadLength bytes. The zero-copy response path sends
 * [header][shared payload][crc trailer] as separate segments, so
 * the payload bytes are never copied into the frame.
 */
Bytes encodeFrameHeader(u8 kind, u32 requestId, u32 payloadLength,
                        u8 flags = 0);

/**
 * Parse and validate a 20-byte frame header. @p data must hold at
 * least kWireHeaderBytes; @p out is valid only on None.
 */
WireError parseFrameHeader(const u8 *data, std::size_t size,
                           WireFrameHeader &out);

/** Check a received payload against its trailing CRC field. */
WireError verifyPayload(const Bytes &payload, u32 payload_crc);

/**
 * Incremental frame deframer for nonblocking sockets: feed() raw
 * bytes as they arrive in arbitrary-sized chunks, then pull
 * complete frames out with next(). The event loop owns one per
 * connection; blocking recvFull loops are gone.
 *
 * Error discipline mirrors the blocking reader it replaces:
 *
 *  - Header damage (bad magic/version/CRC, oversized length) is
 *    *fatal*: a byte stream cannot be resynchronized, so fatal()
 *    latches and next() keeps returning Error. The caller answers
 *    BadRequest once and drops the connection.
 *  - Payload CRC damage is *recoverable*: framing held, so the
 *    frame is consumed, out.header carries the request id to echo,
 *    and the stream stays in sync for the next frame.
 */
class FrameDeframer
{
  public:
    enum class Result
    {
        Frame,    // out holds a verified frame
        NeedMore, // feed() more bytes
        Error,    // see error(); fatal() tells if the stream is lost
    };

    struct Decoded
    {
        WireFrameHeader header;
        Bytes payload;
    };

    /** Append @p size raw bytes from the socket. */
    void feed(const u8 *data, std::size_t size);

    /** Extract the next complete frame, if buffered. */
    Result next(Decoded &out);

    /** Last error returned by next() (valid after Error). */
    WireError error() const { return error_; }

    /** Stream unrecoverable: stop reading, drop the connection. */
    bool fatal() const { return fatal_; }

    /** Bytes buffered but not yet consumed (tests/introspection). */
    std::size_t buffered() const { return buffer_.size() - pos_; }

  private:
    Bytes buffer_;
    std::size_t pos_ = 0;
    WireError error_ = WireError::None;
    bool fatal_ = false;
};

// --- requests ----------------------------------------------------------

struct GetFramesRequest
{
    std::string name;
    /** GOP index into the video's I-frame-delimited ranges. */
    u32 gop = 0;
    /** Mirrors ArchiveGetOptions (0 = read cells as stored). */
    double injectRawBer = 0.0;
    u64 seed = 1;
    bool conceal = false;
    Bytes key;
    /** Per-request deadline in ms (0 = none): expired requests get
     * Status::Deadline instead of tying up a worker. */
    u32 deadlineMs = 0;
    /** The ring epoch the sender routed by (0 = not epoch-checked,
     * the pre-resize wire shape). A node at a newer epoch answers
     * Status::WrongEpoch with the fresh ring instead of serving. */
    u64 ringEpoch = 0;
    /** Allow a metadata-replica successor to answer a degraded,
     * precise-streams-only response when it is not the owner (the
     * router's owner-timeout fallback path). */
    bool allowReplica = false;
};

struct PutRequest
{
    std::string name;
    u16 width = 0;
    u16 height = 0;
    u32 frameCount = 0;
    /** Raw planar I420 bytes, frameCount * (w*h*3/2). */
    Bytes i420;
    /** Encrypt before storage when key is non-empty. */
    Bytes key;
    u8 cipherMode = 0;
    u32 keyId = 0;
    /** Master-IV derivation seed (mixed with the name hash). */
    u64 ivSeed = 1;
    /** Selective encryption: encrypt only streams with scheme
     * t >= this (0 = encrypt every stream). */
    u8 encryptMinT = 0;
    /** Ring epoch the sender routed by (0 = not epoch-checked). */
    u64 ringEpoch = 0;
};

struct ScrubRequest
{
    double ageRawBer = 0.0;
    u64 seed = 1;
};

Bytes serializeGetFramesRequest(const GetFramesRequest &request);
bool parseGetFramesRequest(const Bytes &payload,
                           GetFramesRequest &out);
Bytes serializePutRequest(const PutRequest &request);
bool parsePutRequest(const Bytes &payload, PutRequest &out);
Bytes serializeScrubRequest(const ScrubRequest &request);
bool parseScrubRequest(const Bytes &payload, ScrubRequest &out);
// Health and Stat requests carry empty payloads.

// --- responses ---------------------------------------------------------

struct GetFramesResponse
{
    Status status = Status::Error;
    u16 width = 0;
    u16 height = 0;
    /** Display index of the first returned frame. */
    u32 firstFrame = 0;
    u32 frameCount = 0;
    /** Total GOPs in the video (lets clients iterate). */
    u32 gopCount = 0;
    /** Served from the decoded-GOP cache (no BCH/decrypt/decode). */
    bool fromCache = false;
    u64 blocksCorrected = 0;
    u64 blocksUncorrectable = 0;
    /** Streams the server shed under load (Degraded responses). */
    u32 streamsShed = 0;
    /** Stored payload bytes the shed streams did not read. */
    u64 bytesShed = 0;
    /** Modeled quality cost of shedding in dB: reconstruction error
     * energy taken proportional to the shed payload fraction f, so
     * est = -10*log10(1-f). 0 for full-fidelity responses. */
    double shedDbEst = 0.0;
    /** Raw planar I420 frames, display order. */
    Bytes i420;
};

struct PutResponse
{
    Status status = Status::Error;
    u64 payloadBytes = 0;
    u64 cellBytes = 0;
};

struct StatResponse
{
    Status status = Status::Error;
    std::vector<ArchiveVideoStat> videos;
};

struct ScrubResponse
{
    Status status = Status::Error;
    u64 videos = 0;
    u64 streams = 0;
    u64 blocksRead = 0;
    u64 blocksRewritten = 0;
    u64 bitsCorrected = 0;
    u64 blocksUncorrectable = 0;
    u64 streamsMiscorrected = 0;
    u64 streamsDamaged = 0;
};

struct HealthResponse
{
    Status status = Status::Error;
    u32 queueDepth = 0;
    u32 queueCapacity = 0;
    u32 queueHighWater = 0;
    u64 queueRejected = 0;
    u64 cacheBytes = 0;
    u64 cacheEntries = 0;
    u64 videos = 0;
    /** GETs answered from another request's in-flight decode. */
    u64 coalescedGets = 0;
    /** Load-shedding degradation-class threshold (0 = disabled). */
    u32 shedThreshold = 0;
    /** GETs served reduced-fidelity (Status::Degraded) so far. */
    u64 shedResponses = 0;
};

Bytes serializeGetFramesResponse(const GetFramesResponse &response);
/** The same payload with @p i420 as its frames in place of
 * response.i420 (ignored), so the frames are copied only once. */
Bytes serializeGetFramesResponse(const GetFramesResponse &response,
                                 const Bytes &i420);
/** The same payload with display frames [response.firstFrame,
 * +response.frameCount) of @p video as its frames (response.i420 is
 * ignored): each plane is copied once, straight from the decoded
 * video into a payload reserved to its final size. @p video_first is
 * the display index of video.frames[0] (nonzero for a ranged read). */
Bytes serializeGetFramesResponse(const GetFramesResponse &response,
                                 const Video &video,
                                 std::size_t video_first = 0);
bool parseGetFramesResponse(const Bytes &payload,
                            GetFramesResponse &out);
/** Parse in place: the frames, the payload's tail, become out.i420
 * without a second buffer. @p payload is consumed. */
bool parseGetFramesResponse(Bytes &&payload, GetFramesResponse &out);
Bytes serializePutResponse(const PutResponse &response);
bool parsePutResponse(const Bytes &payload, PutResponse &out);
Bytes serializeStatResponse(const StatResponse &response);
bool parseStatResponse(const Bytes &payload, StatResponse &out);
Bytes serializeScrubResponse(const ScrubResponse &response);
bool parseScrubResponse(const Bytes &payload, ScrubResponse &out);
Bytes serializeHealthResponse(const HealthResponse &response);
bool parseHealthResponse(const Bytes &payload, HealthResponse &out);

/** A bare-status payload (error responses under any opcode). */
Bytes serializeStatusOnly(Status status);

/** First payload byte as a Status; nullopt on empty/bad values. */
std::optional<Status> peekStatus(const Bytes &payload);

// --- cluster messages --------------------------------------------------

/** One shard of the ring as clients need to reach it. */
struct ClusterShard
{
    u32 id = 0;
    std::string host;
    u16 port = 0;
};

/**
 * Ring topology answer (CLUSTER_INFO, served inline like HEALTH).
 * Placement is a pure function of (shard ids, vnodes), so a client
 * holding this response routes exactly like the nodes themselves;
 * `epoch` bumps on any membership change so stale clients can tell
 * their map is outdated and refresh.
 */
struct ClusterInfoResponse
{
    Status status = Status::Error;
    u64 epoch = 0;
    u32 vnodes = 0;
    u32 replicas = 0;
    u32 selfId = 0;
    std::vector<ClusterShard> shards;
};

/** Node-to-node: replicate @p name's precise-meta blob (META_PUT). */
struct MetaPutRequest
{
    std::string name;
    Bytes meta;
};

/** Node-to-node: fetch the replica blob held for @p name. */
struct MetaGetRequest
{
    std::string name;
};

struct MetaGetResponse
{
    Status status = Status::Error;
    Bytes meta;
};

/**
 * Node-to-node bulk record transfer (CELL_PULL / CELL_PUSH), the
 * migration engine's data plane. `record` is an opaque archive
 * export blob — the CRC-checked precise metadata followed by the
 * raw approximate cell images in stream order (see
 * ArchiveService::exportRecord) — so the wire layer never needs to
 * understand cell geometry.
 */
struct CellPullRequest
{
    std::string name;
};

struct CellPullResponse
{
    Status status = Status::Error;
    Bytes record;
};

struct CellPushRequest
{
    std::string name;
    Bytes record;
    /** Replace an existing record (rebuild); adopt-if-absent when
     * false, so a concurrent PUT at the new owner wins. */
    bool overwrite = false;
};

struct CellPushResponse
{
    Status status = Status::Error;
    /** The record was installed (false: a newer one already there). */
    bool adopted = false;
};

Bytes serializeClusterInfoResponse(const ClusterInfoResponse &r);
bool parseClusterInfoResponse(const Bytes &payload,
                              ClusterInfoResponse &out);
Bytes serializeMetaPutRequest(const MetaPutRequest &request);
bool parseMetaPutRequest(const Bytes &payload, MetaPutRequest &out);
Bytes serializeMetaGetRequest(const MetaGetRequest &request);
bool parseMetaGetRequest(const Bytes &payload, MetaGetRequest &out);
Bytes serializeMetaGetResponse(const MetaGetResponse &response);
bool parseMetaGetResponse(const Bytes &payload, MetaGetResponse &out);
Bytes serializeCellPullRequest(const CellPullRequest &request);
bool parseCellPullRequest(const Bytes &payload, CellPullRequest &out);
Bytes serializeCellPullResponse(const CellPullResponse &response);
bool parseCellPullResponse(const Bytes &payload,
                           CellPullResponse &out);
Bytes serializeCellPushRequest(const CellPushRequest &request);
bool parseCellPushRequest(const Bytes &payload, CellPushRequest &out);
Bytes serializeCellPushResponse(const CellPushResponse &response);
bool parseCellPushResponse(const Bytes &payload,
                           CellPushResponse &out);

/**
 * The leading length-prefixed name string shared by every
 * name-routed request payload (GET_FRAMES, PUT, META_PUT, META_GET,
 * CELL_PULL and CELL_PUSH all serialize the name first). The routing decision needs only
 * this field, so a node peeks it without a full parse; nullopt when
 * the payload is too short to carry one.
 */
std::optional<std::string> peekRequestName(const Bytes &payload);

// --- frame packing (GOP ranges: codec/gop.h) --------------------------

/** Concatenate frames [first, first+count) as raw planar I420. */
Bytes packFramesI420(const Video &video, std::size_t first,
                     std::size_t count);

} // namespace videoapp

#endif // VIDEOAPP_SERVER_WIRE_H_
