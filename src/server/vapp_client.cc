#include "server/vapp_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <thread>

#include "common/bytes.h"
#include "common/rng.h"
#include "common/telemetry.h"

namespace videoapp {

VappClient::~VappClient()
{
    disconnect();
}

VappClient::VappClient(VappClient &&other) noexcept
    : fd_(other.fd_), nextId_(other.nextId_),
      lastError_(other.lastError_), retry_(other.retry_),
      host_(std::move(other.host_)), port_(other.port_),
      jitterDraws_(other.jitterDraws_)
{
    other.fd_ = -1;
}

VappClient &
VappClient::operator=(VappClient &&other) noexcept
{
    if (this != &other) {
        disconnect();
        fd_ = other.fd_;
        nextId_ = other.nextId_;
        lastError_ = other.lastError_;
        retry_ = other.retry_;
        host_ = std::move(other.host_);
        port_ = other.port_;
        jitterDraws_ = other.jitterDraws_;
        other.fd_ = -1;
    }
    return *this;
}

bool
VappClient::connect(const std::string &host, u16 port)
{
    disconnect();
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0)
        return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
        ::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                  sizeof addr) < 0) {
        ::close(fd_);
        fd_ = -1;
        return false;
    }
    int nodelay = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &nodelay,
                 sizeof nodelay);
    lastError_ = WireError::None;
    host_ = host;
    port_ = port;
    return true;
}

void
VappClient::disconnect()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

bool
VappClient::sendAll(const Bytes &data)
{
    std::size_t off = 0;
    while (off < data.size()) {
        ssize_t n = ::send(fd_, data.data() + off,
                           data.size() - off, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            // The peer tearing the connection down (RST / EPIPE) is
            // a distinct condition from a protocol-level short
            // write: callers may reconnect-and-retry on the former.
            lastError_ = (errno == EPIPE || errno == ECONNRESET)
                             ? WireError::ConnectionClosed
                             : WireError::ShortRead;
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

bool
VappClient::recvAll(u8 *data, std::size_t size, bool frame_boundary)
{
    std::size_t off = 0;
    while (off < size) {
        ssize_t n = ::recv(fd_, data + off, size - off, 0);
        if (n == 0) {
            // EOF on the very first byte of a frame is a clean close
            // between responses (server shutdown, idle teardown) —
            // typed so pipelined callers can tell "the server went
            // away" from "the server died mid-frame".
            lastError_ = (frame_boundary && off == 0)
                             ? WireError::ConnectionClosed
                             : WireError::ShortRead;
            return false;
        }
        if (n < 0) {
            if (errno == EINTR)
                continue;
            lastError_ = errno == ECONNRESET
                             ? WireError::ConnectionClosed
                             : WireError::ShortRead;
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

bool
VappClient::send(Opcode op, const Bytes &payload, u32 *request_id,
                 u8 flags)
{
    if (fd_ < 0) {
        lastError_ = WireError::ShortRead;
        return false;
    }
    u32 id = nextId_++;
    if (request_id)
        *request_id = id;
    return sendAll(
        encodeFrame(static_cast<u8>(op), id, payload, flags));
}

std::optional<VappClient::RawResponse>
VappClient::receive()
{
    if (fd_ < 0) {
        lastError_ = WireError::ShortRead;
        return std::nullopt;
    }
    u8 header[kWireHeaderBytes];
    if (!recvAll(header, sizeof header, /*frame_boundary=*/true))
        return std::nullopt;
    WireFrameHeader fh;
    WireError err = parseFrameHeader(header, sizeof header, fh);
    if (err != WireError::None) {
        lastError_ = err;
        return std::nullopt;
    }
    RawResponse response;
    response.kind = fh.kind;
    response.requestId = fh.requestId;
    response.payload.resize(fh.payloadLength);
    u8 crc_buf[4];
    if (!recvAll(response.payload.data(),
                 response.payload.size()) ||
        !recvAll(crc_buf, sizeof crc_buf))
        return std::nullopt;
    err = verifyPayload(response.payload,
                        ByteReader(crc_buf, sizeof crc_buf).getU32());
    if (err != WireError::None) {
        lastError_ = err;
        return std::nullopt;
    }
    lastError_ = WireError::None;
    return response;
}

void
VappClient::backoffSleep(int attempt)
{
    u32 backoff = retry_.initialBackoffMs;
    for (int i = 0; i < attempt && backoff < retry_.maxBackoffMs;
         ++i)
        backoff *= 2;
    if (backoff > retry_.maxBackoffMs)
        backoff = retry_.maxBackoffMs;
    if (backoff == 0)
        return;
    // Jitter stream: one fresh deterministic draw per sleep, so
    // repeated retries (and moved-from clients) never reuse a value.
    Rng rng(Rng::deriveSeed(retry_.jitterSeed, jitterDraws_++));
    u32 half = backoff / 2;
    u32 delay =
        half + static_cast<u32>(rng.nextBelow(half > 0 ? half : 1));
    std::this_thread::sleep_for(std::chrono::milliseconds(delay));
}

std::optional<VappClient::RawResponse>
VappClient::call(Opcode op, const Bytes &payload)
{
    for (int attempt = 0;; ++attempt) {
        const bool last = attempt >= retry_.maxRetries;
        if (fd_ < 0 && !host_.empty() && !connect(host_, port_)) {
            // Reconnect refused (server restarting?): retryable.
            lastError_ = WireError::ConnectionClosed;
            if (last)
                return std::nullopt;
            VA_TELEM_COUNT("client.retries", 1);
            backoffSleep(attempt);
            continue;
        }
        std::optional<RawResponse> raw;
        if (send(op, payload))
            raw = receive();
        if (!raw) {
            if (last || lastError_ != WireError::ConnectionClosed)
                return std::nullopt;
            // Clean close between frames: reconnect and resend.
            disconnect();
            VA_TELEM_COUNT("client.retries", 1);
            backoffSleep(attempt);
            continue;
        }
        if (raw->kind == static_cast<u8>(Status::Retry) && !last) {
            // Explicit backpressure: back off and resend.
            VA_TELEM_COUNT("client.retries", 1);
            backoffSleep(attempt);
            continue;
        }
        return raw;
    }
}

std::optional<GetFramesResponse>
VappClient::getFrames(const GetFramesRequest &request)
{
    auto raw = call(Opcode::GetFrames,
                    serializeGetFramesRequest(request));
    if (!raw)
        return std::nullopt;
    GetFramesResponse response;
    if (!parseGetFramesResponse(std::move(raw->payload), response)) {
        lastError_ = WireError::Malformed;
        return std::nullopt;
    }
    return response;
}

std::optional<PutResponse>
VappClient::put(const PutRequest &request)
{
    auto raw = call(Opcode::Put, serializePutRequest(request));
    if (!raw)
        return std::nullopt;
    PutResponse response;
    if (!parsePutResponse(raw->payload, response)) {
        lastError_ = WireError::Malformed;
        return std::nullopt;
    }
    return response;
}

std::optional<StatResponse>
VappClient::stat()
{
    auto raw = call(Opcode::Stat, Bytes{});
    if (!raw)
        return std::nullopt;
    StatResponse response;
    if (!parseStatResponse(raw->payload, response)) {
        lastError_ = WireError::Malformed;
        return std::nullopt;
    }
    return response;
}

std::optional<ScrubResponse>
VappClient::scrub(const ScrubRequest &request)
{
    auto raw = call(Opcode::Scrub, serializeScrubRequest(request));
    if (!raw)
        return std::nullopt;
    ScrubResponse response;
    if (!parseScrubResponse(raw->payload, response)) {
        lastError_ = WireError::Malformed;
        return std::nullopt;
    }
    return response;
}

std::optional<HealthResponse>
VappClient::health()
{
    auto raw = call(Opcode::Health, Bytes{});
    if (!raw)
        return std::nullopt;
    HealthResponse response;
    if (!parseHealthResponse(raw->payload, response)) {
        lastError_ = WireError::Malformed;
        return std::nullopt;
    }
    return response;
}

} // namespace videoapp
