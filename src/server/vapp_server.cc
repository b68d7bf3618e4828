#include "server/vapp_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <functional>
#include <mutex>

#include "common/bytes.h"
#include "common/crc32.h"
#include "common/telemetry.h"

namespace videoapp {

/**
 * One response frame queued for a nonblocking write, as up to three
 * segments so cached payloads are never copied:
 *
 *   seg 0: head — frame header (or the whole owned frame)
 *   seg 1: pin->payload — the shared cache entry's bytes
 *   seg 2: tail — the 4-byte memoized payload CRC
 *
 * (seg, off) is the write cursor; a partial send parks here until
 * EPOLLOUT says the socket drained.
 */
struct VappServer::OutboundFrame
{
    Bytes head;
    CachedGopPtr pin;
    Bytes tail;
    unsigned seg = 0;
    std::size_t off = 0;
};

struct VappServer::Connection
{
    /** Owned (and closed) by the event loop thread exclusively. */
    int fd = -1;
    /** Loop-thread only: incremental frame reassembly. */
    FrameDeframer deframer;
    /** Loop-thread only: EPOLLOUT armed. */
    bool wantWrite = false;
    /** Loop-thread only: EOF or fatal framing; reads disarmed. */
    bool readClosed = false;
    /** Loop-thread only: close once the outbox drains. */
    bool closeAfterFlush = false;

    /** Guards outbox / open / queuedForWrite (workers + loop). */
    std::mutex mutex;
    std::deque<OutboundFrame> outbox;
    bool queuedForWrite = false;
    /** False once the connection is lost: responses are dropped. */
    bool open = true;
};

namespace {

u32
elapsedMs(std::chrono::steady_clock::time_point since)
{
    auto ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - since)
            .count();
    return ms > 0 ? static_cast<u32>(ms) : 0;
}

u32
keyIdOf(const Bytes &key)
{
    return key.empty() ? 0 : crc32(key);
}

/** Flight registry key: one in-flight decode per (video, key id). */
std::string
flightKeyOf(const std::string &name, u32 key_id)
{
    std::string key = name;
    key.push_back('\0');
    key += std::to_string(key_id);
    return key;
}

bool
setNonBlocking(int fd)
{
    int flags = ::fcntl(fd, F_GETFL, 0);
    return flags >= 0 &&
           ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

} // namespace

VappServer::VappServer(ArchiveService &service,
                       VappServerConfig config)
    : service_(service), config_(config),
      queue_(config.queueCapacity), cache_(config.cacheBytes)
{}

VappServer::~VappServer()
{
    stop();
}

bool
VappServer::start()
{
    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd_ < 0)
        return false;
    int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(config_.port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof addr) < 0 ||
        ::listen(listenFd_, 128) < 0 ||
        !setNonBlocking(listenFd_)) {
        ::close(listenFd_);
        listenFd_ = -1;
        return false;
    }
    socklen_t len = sizeof addr;
    if (::getsockname(listenFd_,
                      reinterpret_cast<sockaddr *>(&addr),
                      &len) == 0)
        port_ = ntohs(addr.sin_port);

    epollFd_ = ::epoll_create1(0);
    wakeFd_ = ::eventfd(0, EFD_NONBLOCK);
    auto bail = [this] {
        if (epollFd_ >= 0)
            ::close(epollFd_);
        if (wakeFd_ >= 0)
            ::close(wakeFd_);
        ::close(listenFd_);
        listenFd_ = epollFd_ = wakeFd_ = -1;
        return false;
    };
    if (epollFd_ < 0 || wakeFd_ < 0)
        return bail();
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = listenFd_;
    if (::epoll_ctl(epollFd_, EPOLL_CTL_ADD, listenFd_, &ev) < 0)
        return bail();
    ev.data.fd = wakeFd_;
    if (::epoll_ctl(epollFd_, EPOLL_CTL_ADD, wakeFd_, &ev) < 0)
        return bail();

    started_ = true;
    int workers = config_.workers > 0 ? config_.workers : 1;
    workers_.reserve(static_cast<std::size_t>(workers));
    for (int i = 0; i < workers; ++i)
        workers_.emplace_back([this] { workerLoop(); });
    loopThread_ = std::thread([this] { eventLoop(); });
    return true;
}

void
VappServer::stop()
{
    if (!started_ || stopped_)
        return;
    stopped_ = true;

    // 1. Stop accepting (the loop closes the listen socket).
    stopAccept_.store(true);
    wakeLoop();
    // 2. Close the queue: admitted jobs drain to their responses
    //    while the event loop is still flushing outboxes.
    queue_.close();
    for (std::thread &w : workers_)
        if (w.joinable())
            w.join();
    workers_.clear();
    // 3. Flush whatever the workers produced, then exit the loop.
    draining_.store(true);
    wakeLoop();
    if (loopThread_.joinable())
        loopThread_.join();

    if (epollFd_ >= 0) {
        ::close(epollFd_);
        epollFd_ = -1;
    }
    if (wakeFd_ >= 0) {
        ::close(wakeFd_);
        wakeFd_ = -1;
    }
}

void
VappServer::setDrainPaused(bool paused)
{
    queue_.setDrainPaused(paused);
}

void
VappServer::wakeLoop()
{
    u64 one = 1;
    [[maybe_unused]] ssize_t n =
        ::write(wakeFd_, &one, sizeof one);
}

// --- event loop --------------------------------------------------------

void
VappServer::eventLoop()
{
    loopThreadId_.store(std::this_thread::get_id());
    std::vector<epoll_event> events(64);
    std::chrono::steady_clock::time_point drain_deadline{};
    bool drain_started = false;
    for (;;) {
        int timeout = draining_.load() ? 5 : -1;
        int n = ::epoll_wait(epollFd_, events.data(),
                             static_cast<int>(events.size()),
                             timeout);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        VA_TELEM_COUNT("server.epoll_wakeups", 1);
        for (int i = 0; i < n; ++i) {
            const int fd = events[i].data.fd;
            const u32 mask = events[i].events;
            if (fd == wakeFd_) {
                u64 v = 0;
                [[maybe_unused]] ssize_t r =
                    ::read(wakeFd_, &v, sizeof v);
                continue;
            }
            if (fd == listenFd_) {
                acceptAll();
                continue;
            }
            auto it = conns_.find(fd);
            if (it == conns_.end())
                continue; // closed earlier in this batch
            std::shared_ptr<Connection> conn = it->second;
            if (mask & (EPOLLHUP | EPOLLERR)) {
                closeConnection(conn);
                continue;
            }
            if (mask & EPOLLIN)
                onReadable(conn);
            if (conn->fd >= 0 && (mask & EPOLLOUT))
                flushOutbox(conn);
        }
        processWriteReady();

        if (stopAccept_.load() && listenFd_ >= 0) {
            ::epoll_ctl(epollFd_, EPOLL_CTL_DEL, listenFd_,
                        nullptr);
            ::close(listenFd_);
            listenFd_ = -1;
        }
        if (draining_.load()) {
            if (!drain_started) {
                drain_started = true;
                drain_deadline = std::chrono::steady_clock::now() +
                                 std::chrono::seconds(3);
            }
            if (drainForExit() ||
                std::chrono::steady_clock::now() > drain_deadline)
                break;
        }
    }
    // Tear down every connection; queued responses for clients that
    // never drained past the deadline are abandoned here.
    std::vector<std::shared_ptr<Connection>> leftover;
    leftover.reserve(conns_.size());
    for (auto &[fd, conn] : conns_)
        leftover.push_back(conn);
    for (auto &conn : leftover)
        closeConnection(conn);
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }
}

void
VappServer::acceptAll()
{
    for (;;) {
        int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            break; // EAGAIN: accept queue drained
        }
        if (!setNonBlocking(fd)) {
            ::close(fd);
            continue;
        }
        int nodelay = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay,
                     sizeof nodelay);
        if (config_.sndbufBytes > 0)
            ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF,
                         &config_.sndbufBytes,
                         sizeof config_.sndbufBytes);
        VA_TELEM_COUNT("server.connections", 1);
        auto conn = std::make_shared<Connection>();
        conn->fd = fd;
        conns_[fd] = conn;
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.fd = fd;
        if (::epoll_ctl(epollFd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
            conns_.erase(fd);
            ::close(fd);
        }
    }
}

void
VappServer::updateEpoll(const std::shared_ptr<Connection> &conn)
{
    if (conn->fd < 0)
        return;
    epoll_event ev{};
    ev.events = (conn->readClosed ? 0u : u32{EPOLLIN}) |
                (conn->wantWrite ? u32{EPOLLOUT} : 0u);
    ev.data.fd = conn->fd;
    ::epoll_ctl(epollFd_, EPOLL_CTL_MOD, conn->fd, &ev);
}

void
VappServer::closeConnection(const std::shared_ptr<Connection> &conn)
{
    if (conn->fd < 0)
        return;
    {
        std::lock_guard lock(conn->mutex);
        conn->open = false;
        conn->outbox.clear();
    }
    ::epoll_ctl(epollFd_, EPOLL_CTL_DEL, conn->fd, nullptr);
    conns_.erase(conn->fd);
    ::close(conn->fd);
    conn->fd = -1;
}

void
VappServer::onReadable(const std::shared_ptr<Connection> &conn)
{
    if (conn->fd < 0 || conn->readClosed)
        return;
    u8 buf[64 * 1024];
    // Bounded reads per wakeup keep one firehose connection from
    // starving the rest; level-triggered epoll re-reports leftovers.
    for (int round = 0; round < 16; ++round) {
        ssize_t n = ::recv(conn->fd, buf, sizeof buf, 0);
        if (n > 0) {
            conn->deframer.feed(buf,
                                static_cast<std::size_t>(n));
            if (!processFrames(conn))
                return;
            if (static_cast<std::size_t>(n) < sizeof buf)
                break;
            continue;
        }
        if (n == 0) {
            // Peer EOF. Our clients never half-close, so the
            // connection is done; any response still queued has no
            // reader (same as the blocking server's shutdown).
            closeConnection(conn);
            return;
        }
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        closeConnection(conn);
        return;
    }
}

bool
VappServer::processFrames(const std::shared_ptr<Connection> &conn)
{
    FrameDeframer::Decoded frame;
    for (;;) {
        if (conn->fd < 0)
            return false;
        switch (conn->deframer.next(frame)) {
        case FrameDeframer::Result::NeedMore: return true;
        case FrameDeframer::Result::Error:
            VA_TELEM_COUNT("server.frames.bad", 1);
            if (conn->deframer.fatal()) {
                // Framing lost (bad magic/version/CRC/length):
                // answer once, flush, drop — a byte stream cannot
                // be resynchronized.
                respondStatus(conn, Status::BadRequest, 0);
                conn->readClosed = true;
                conn->closeAfterFlush = true;
                if (conn->fd >= 0) {
                    updateEpoll(conn);
                    flushOutbox(conn);
                }
                return false;
            }
            // Framing held, the body is corrupt: report and keep
            // the connection (the stream is still in sync).
            respondStatus(conn, Status::BadRequest,
                          frame.header.requestId);
            continue;
        case FrameDeframer::Result::Frame:
            handleFrame(conn, frame.header,
                        std::move(frame.payload));
            continue;
        }
    }
}

void
VappServer::handleFrame(const std::shared_ptr<Connection> &conn,
                        const WireFrameHeader &header,
                        Bytes payload)
{
    if (header.kind > static_cast<u8>(Opcode::CellPush)) {
        VA_TELEM_COUNT("server.frames.bad", 1);
        respondStatus(conn, Status::BadRequest, header.requestId);
        return;
    }
    Opcode op = static_cast<Opcode>(header.kind);
    VA_TELEM_COUNT("server.requests", 1);
    if (op == Opcode::Health) {
        // Served off-queue: liveness probes must work while the
        // queue is saturated.
        answerHealth(conn, header.requestId);
        return;
    }
    if (op == Opcode::ClusterInfo) {
        // Topology is a cheap in-memory snapshot: served inline
        // like HEALTH so clients can refresh placement even while
        // the queue is saturated. Standalone servers answer Error.
        if (config_.cluster == nullptr) {
            respondStatus(conn, Status::Error, header.requestId);
            return;
        }
        respondPayload(conn, static_cast<u8>(Status::Ok),
                       header.requestId,
                       config_.cluster->infoPayload());
        return;
    }

    // Cluster routing: a name-carrying request for a video another
    // shard owns is relayed there on the client's behalf — one hop,
    // never a loop (the forwarded flag makes the peer serve it
    // locally no matter what its ring says).
    bool forward = false;
    u32 forward_shard = 0;
    if (config_.cluster != nullptr &&
        (op == Opcode::GetFrames || op == Opcode::Put) &&
        (header.flags & kWireFlagForwarded) == 0) {
        if (std::optional<std::string> name =
                peekRequestName(payload)) {
            const u32 owner = config_.cluster->ownerOf(*name);
            if (owner != config_.cluster->selfShard()) {
                forward = true;
                forward_shard = owner;
            }
        }
    }

    std::string flight_key;
    bool shed = false;
    if (!forward && op == Opcode::GetFrames) {
        GetFramesRequest request;
        if (!parseGetFramesRequest(payload, request)) {
            respondStatus(conn, Status::BadRequest,
                          header.requestId);
            return;
        }
        const bool exact = request.injectRawBer == 0.0;
        const u32 key_id = keyIdOf(request.key);
        if (exact && config_.cacheBytes > 0) {
            if (CachedGopPtr hit = cache_.get(
                    GopKey{request.name, request.gop, key_id})) {
                // Hot path: the pre-serialized entry goes straight
                // to the socket, no queue slot, no worker, no copy.
                // Cache hits are free, so they stay full-fidelity
                // even when admission is shedding.
                hitsSinceMiss_.fetch_add(1, std::memory_order_relaxed);
                respondCached(conn, header.requestId,
                              std::move(hit));
                return;
            }
        }
        // Queue pressure at admission: with shedding enabled, a GET
        // admitted while the queue sits at 3/4 capacity or more is
        // marked for reduced-fidelity service. Shed jobs never lead
        // or join flights (their decode is not the full-fidelity one
        // the waiters expect) and are never cached.
        shed = config_.shedThreshold > 0 &&
               queue_.size() * 4 >= config_.queueCapacity * 3;
        if (shed)
            VA_TELEM_COUNT("server.shed.admissions", 1);
        if (!shed && exact && request.deadlineMs == 0) {
            // Single flight: register (or join) the decode for this
            // (video, key id). Registration happens here, on the
            // one admission thread, so "N concurrent cold GETs ->
            // one decode" is deterministic. Deadline-carrying and
            // injected reads bypass coalescing: the former must be
            // sheddable while queued, the latter are stochastic
            // experiments with per-request seeds.
            flight_key = flightKeyOf(request.name, key_id);
            std::lock_guard lock(flightsMutex_);
            auto [it, fresh] = flights_.try_emplace(flight_key);
            if (!fresh) {
                it->second.waiters.push_back(
                    {conn, header.requestId, request.gop});
                coalescedGets_.fetch_add(
                    1, std::memory_order_relaxed);
                VA_TELEM_COUNT("server.coalesced", 1);
                return;
            }
        }
    }

    // Node-to-node replication and migration traffic rides the
    // maintenance class with puts and scrubs so it never crowds out
    // serving.
    QueueClass cls = (op == Opcode::Put || op == Opcode::Scrub ||
                      op == Opcode::MetaPut ||
                      op == Opcode::MetaGet ||
                      op == Opcode::CellPull ||
                      op == Opcode::CellPush)
                         ? QueueClass::Maintain
                         : QueueClass::Serve;
    ServerJob job;
    job.conn = conn;
    job.opcode = op;
    job.requestId = header.requestId;
    job.payload = std::move(payload);
    job.admitted = std::chrono::steady_clock::now();
    job.flightKey = flight_key;
    job.forward = forward;
    job.forwardShard = forward_shard;
    job.shed = shed;
    if (!queue_.tryPush(cls, std::move(job))) {
        // Explicit backpressure: the client backs off and retries
        // instead of the server buffering unboundedly. A leader
        // that could not be queued has no waiters yet (this thread
        // is the only one that attaches them), so the flight just
        // unregisters.
        if (!flight_key.empty()) {
            std::lock_guard lock(flightsMutex_);
            flights_.erase(flight_key);
        }
        // Two call sites, not a ternary name: VA_TELEM_COUNT caches
        // the counter in a per-callsite static.
        if (cls == QueueClass::Serve)
            VA_TELEM_COUNT("server.queue.rejected.serve", 1);
        else
            VA_TELEM_COUNT("server.queue.rejected.maintain", 1);
        respondStatus(conn, Status::Retry, header.requestId);
        return;
    }
    VA_TELEM_HIST("server.queue.depth",
                  static_cast<u64>(queue_.size()));
}

void
VappServer::flushOutbox(const std::shared_ptr<Connection> &conn)
{
    if (conn->fd < 0)
        return;
    std::unique_lock lock(conn->mutex);
    while (!conn->outbox.empty()) {
        OutboundFrame &f = conn->outbox.front();
        auto segSize = [&f](unsigned seg) -> std::size_t {
            if (seg == 0)
                return f.head.size();
            if (seg == 1)
                return f.pin ? f.pin->payload.size() : 0;
            return f.tail.size();
        };
        while (f.seg <= 2 && f.off >= segSize(f.seg)) {
            ++f.seg;
            f.off = 0;
        }
        if (f.seg > 2) {
            conn->outbox.pop_front();
            continue;
        }
        // Gather every unwritten byte of the frame into one
        // sendmsg: writing header, payload, and CRC tail as three
        // separate sends would leave the 4-byte tail parked behind
        // Nagle waiting on a delayed ACK (~40 ms per response).
        struct iovec iov[3];
        unsigned iovcnt = 0;
        for (unsigned seg = f.seg; seg <= 2; ++seg) {
            std::size_t off = seg == f.seg ? f.off : 0;
            std::size_t size = segSize(seg);
            if (off >= size)
                continue;
            const u8 *data = seg == 0   ? f.head.data()
                             : seg == 1 ? f.pin->payload.data()
                                        : f.tail.data();
            iov[iovcnt].iov_base =
                const_cast<u8 *>(data + off);
            iov[iovcnt].iov_len = size - off;
            ++iovcnt;
        }
        msghdr msg{};
        msg.msg_iov = iov;
        msg.msg_iovlen = iovcnt;
        ssize_t n = ::sendmsg(conn->fd, &msg, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK) {
                // Socket full: park the cursor and let EPOLLOUT
                // resume the write. The histogram tracks how
                // much is parked when stalls happen.
                std::size_t pending = 0;
                for (const OutboundFrame &p : conn->outbox)
                    pending +=
                        p.head.size() + p.tail.size() +
                        (p.pin ? p.pin->payload.size() : 0);
                VA_TELEM_COUNT("server.write_stalls", 1);
                VA_TELEM_HIST("server.write_stall.bytes",
                              static_cast<u64>(pending));
                if (!conn->wantWrite) {
                    conn->wantWrite = true;
                    lock.unlock();
                    updateEpoll(conn);
                }
                return;
            }
            lock.unlock();
            closeConnection(conn);
            return;
        }
        std::size_t advance = static_cast<std::size_t>(n);
        while (f.seg <= 2) {
            std::size_t left = segSize(f.seg) - f.off;
            if (advance < left) {
                f.off += advance;
                break;
            }
            advance -= left;
            ++f.seg;
            f.off = 0;
        }
    }
    const bool close_now = conn->closeAfterFlush;
    const bool disarm = conn->wantWrite;
    if (disarm)
        conn->wantWrite = false;
    lock.unlock();
    if (disarm)
        updateEpoll(conn);
    if (close_now)
        closeConnection(conn);
}

void
VappServer::processWriteReady()
{
    std::vector<std::shared_ptr<Connection>> ready;
    {
        std::lock_guard lock(writeReadyMutex_);
        ready.swap(writeReady_);
    }
    for (auto &conn : ready) {
        {
            std::lock_guard lock(conn->mutex);
            conn->queuedForWrite = false;
        }
        flushOutbox(conn);
    }
}

bool
VappServer::drainForExit()
{
    std::vector<std::shared_ptr<Connection>> conns;
    conns.reserve(conns_.size());
    for (auto &[fd, conn] : conns_)
        conns.push_back(conn);
    bool all_empty = true;
    for (auto &conn : conns) {
        flushOutbox(conn);
        if (conn->fd < 0)
            continue;
        std::lock_guard lock(conn->mutex);
        if (!conn->outbox.empty())
            all_empty = false;
    }
    return all_empty;
}

void
VappServer::enqueueResponse(
    const std::shared_ptr<Connection> &conn, OutboundFrame frame)
{
    bool notify = false;
    {
        std::lock_guard lock(conn->mutex);
        if (!conn->open)
            return; // connection lost: response has no reader
        conn->outbox.push_back(std::move(frame));
        if (!conn->queuedForWrite) {
            conn->queuedForWrite = true;
            notify = true;
        }
    }
    if (std::this_thread::get_id() == loopThreadId_.load()) {
        // Inline answers (HEALTH, Retry, BadRequest, cache hits)
        // flush immediately — no eventfd round trip.
        {
            std::lock_guard lock(conn->mutex);
            conn->queuedForWrite = false;
        }
        flushOutbox(conn);
        return;
    }
    if (notify) {
        {
            std::lock_guard lock(writeReadyMutex_);
            writeReady_.push_back(conn);
        }
        wakeLoop();
    }
}

void
VappServer::respondPayload(const std::shared_ptr<Connection> &conn,
                           u8 kind, u32 request_id,
                           const Bytes &payload)
{
    OutboundFrame frame;
    frame.head = encodeFrame(kind, request_id, payload);
    enqueueResponse(conn, std::move(frame));
}

void
VappServer::respondStatus(const std::shared_ptr<Connection> &conn,
                          Status status, u32 request_id)
{
    respondPayload(conn, static_cast<u8>(status), request_id,
                   serializeStatusOnly(status));
}

void
VappServer::respondCached(const std::shared_ptr<Connection> &conn,
                          u32 request_id, CachedGopPtr gop)
{
    OutboundFrame frame;
    frame.head = encodeFrameHeader(
        static_cast<u8>(gop->status), request_id,
        static_cast<u32>(gop->payload.size()));
    ByteWriter tail(4);
    tail.putU32(gop->payloadCrc);
    frame.tail = tail.take();
    frame.pin = std::move(gop);
    enqueueResponse(conn, std::move(frame));
}

// --- workers -----------------------------------------------------------

void
VappServer::workerLoop()
{
    // Batched drain: a coalesced admission burst costs the pool one
    // wakeup, and one worker amortizes its queue lock across jobs.
    constexpr std::size_t kBatch = 4;
    for (;;) {
        std::vector<ServerJob> batch = queue_.popBatch(kBatch);
        if (batch.empty())
            return; // closed and drained
        for (ServerJob &job : batch)
            execute(job);
    }
}

void
VappServer::execute(const ServerJob &job)
{
    if (job.forward) {
        handleForward(job);
        return;
    }
    switch (job.opcode) {
    case Opcode::GetFrames: handleGetFrames(job); break;
    case Opcode::Put: handlePut(job); break;
    case Opcode::Stat: handleStat(job); break;
    case Opcode::Scrub: handleScrub(job); break;
    case Opcode::MetaPut: handleMetaPut(job); break;
    case Opcode::MetaGet: handleMetaGet(job); break;
    case Opcode::CellPull: handleCellPull(job); break;
    case Opcode::CellPush: handleCellPush(job); break;
    case Opcode::Health: answerHealth(job.conn, job.requestId); break;
    case Opcode::ClusterInfo: break; // answered inline at admission
    }
}

void
VappServer::handleForward(const ServerJob &job)
{
    VA_TELEM_LATENCY("server.op.forward");
    u8 kind = 0;
    Bytes response;
    if (!config_.cluster->forward(job.forwardShard, job.opcode,
                                  job.payload, kind, response)) {
        // The owner is unreachable: tell the client to back off and
        // retry (its retry policy may pick a healthier entry point).
        VA_TELEM_COUNT("server.forward_failures", 1);
        respondStatus(job.conn, Status::Retry, job.requestId);
        return;
    }
    VA_TELEM_COUNT("server.forwards", 1);
    respondPayload(job.conn, kind, job.requestId, response);
}

void
VappServer::handleMetaPut(const ServerJob &job)
{
    VA_TELEM_LATENCY("server.op.meta_put");
    MetaPutRequest request;
    if (!parseMetaPutRequest(job.payload, request)) {
        respondStatus(job.conn, Status::BadRequest, job.requestId);
        return;
    }
    if (service_.putReplicaMeta(request.name,
                                std::move(request.meta)) !=
        ArchiveError::None) {
        respondStatus(job.conn, Status::BadRequest, job.requestId);
        return;
    }
    respondStatus(job.conn, Status::Ok, job.requestId);
}

void
VappServer::handleMetaGet(const ServerJob &job)
{
    VA_TELEM_LATENCY("server.op.meta_get");
    MetaGetRequest request;
    if (!parseMetaGetRequest(job.payload, request)) {
        respondStatus(job.conn, Status::BadRequest, job.requestId);
        return;
    }
    MetaGetResponse response;
    response.meta = service_.replicaMeta(request.name);
    if (response.meta.empty()) {
        respondStatus(job.conn, Status::NotFound, job.requestId);
        return;
    }
    response.status = Status::Ok;
    respondPayload(job.conn, static_cast<u8>(response.status),
                   job.requestId,
                   serializeMetaGetResponse(response));
}

void
VappServer::handleCellPull(const ServerJob &job)
{
    VA_TELEM_LATENCY("server.op.cell_pull");
    CellPullRequest request;
    if (!parseCellPullRequest(job.payload, request)) {
        respondStatus(job.conn, Status::BadRequest, job.requestId);
        return;
    }
    CellPullResponse response;
    response.record = service_.exportRecord(request.name);
    if (response.record.empty()) {
        respondStatus(job.conn, Status::NotFound, job.requestId);
        return;
    }
    response.status = Status::Ok;
    VA_TELEM_COUNT("server.cell_pulls", 1);
    respondPayload(job.conn, static_cast<u8>(response.status),
                   job.requestId,
                   serializeCellPullResponse(response));
}

void
VappServer::handleCellPush(const ServerJob &job)
{
    VA_TELEM_LATENCY("server.op.cell_push");
    CellPushRequest request;
    if (!parseCellPushRequest(job.payload, request)) {
        respondStatus(job.conn, Status::BadRequest, job.requestId);
        return;
    }
    bool adopted = false;
    if (service_.adoptRecord(request.name, request.record,
                             request.overwrite, &adopted) !=
        ArchiveError::None) {
        respondStatus(job.conn, Status::BadRequest, job.requestId);
        return;
    }
    // Whether this push or a concurrent local PUT won, the name's
    // migration is settled: stop deferring local misses to the old
    // holder. An adopted record also re-replicates its precise meta
    // from its new home and invalidates stale cached decodes.
    if (config_.cluster != nullptr)
        config_.cluster->clearPendingMigration(request.name);
    if (adopted) {
        cache_.eraseVideo(request.name);
        if (config_.cluster != nullptr)
            config_.cluster->replicateMeta(request.name);
        VA_TELEM_COUNT("server.cell_pushes", 1);
    }
    CellPushResponse response;
    response.status = Status::Ok;
    response.adopted = adopted;
    respondPayload(job.conn, static_cast<u8>(response.status),
                   job.requestId,
                   serializeCellPushResponse(response));
}

void
VappServer::answerWrongEpoch(const ServerJob &job)
{
    // A WRONG_EPOCH response carries the full ClusterInfo body with
    // the status byte patched, so one round trip both rejects the
    // stale request and hands the client the ring it should have
    // routed under.
    Bytes payload = config_.cluster->infoPayload();
    if (!payload.empty())
        payload[0] = static_cast<u8>(Status::WrongEpoch);
    VA_TELEM_COUNT("server.wrong_epoch", 1);
    respondPayload(job.conn, static_cast<u8>(Status::WrongEpoch),
                   job.requestId, payload);
}

void
VappServer::finishFlight(
    const std::string &key, std::vector<CachedGopPtr> table,
    const std::function<CachedGopPtr(u32)> &build)
{
    std::vector<Waiter> waiters;
    {
        std::lock_guard lock(flightsMutex_);
        auto it = flights_.find(key);
        if (it == flights_.end())
            return;
        waiters = std::move(it->second.waiters);
        flights_.erase(it);
    }
    for (const Waiter &w : waiters) {
        if (w.gop < table.size() && !table[w.gop] && build)
            table[w.gop] = build(w.gop);
        if (w.gop < table.size() && table[w.gop])
            respondCached(w.conn, w.requestId, table[w.gop]);
        else
            respondStatus(w.conn, Status::NotFound, w.requestId);
    }
}

void
VappServer::failFlight(const std::string &key, Status status)
{
    std::vector<Waiter> waiters;
    {
        std::lock_guard lock(flightsMutex_);
        auto it = flights_.find(key);
        if (it == flights_.end())
            return;
        waiters = std::move(it->second.waiters);
        flights_.erase(it);
    }
    for (const Waiter &w : waiters)
        respondStatus(w.conn, status, w.requestId);
}

bool
VappServer::completeFlightFromCache(const ServerJob &job,
                                    const GetFramesRequest &request,
                                    CachedGopPtr hit)
{
    // The leader's own GOP is cached. When every waiter's GOP is
    // cached too (a GOP past the last answers NotFound), retire the
    // flight from cache; otherwise the leader reads. The check and
    // the detach share the flights lock, so no waiter can join in
    // between and go unanswered.
    const u32 key_id = keyIdOf(request.key);
    std::vector<std::pair<Waiter, CachedGopPtr>> answers;
    {
        std::lock_guard lock(flightsMutex_);
        auto it = flights_.find(job.flightKey);
        if (it != flights_.end()) {
            for (const Waiter &w : it->second.waiters) {
                CachedGopPtr gop;
                if (w.gop == request.gop)
                    gop = hit;
                else if (w.gop < hit->gopCount)
                    gop = cache_.get(GopKey{request.name, w.gop, key_id});
                if (!gop && w.gop < hit->gopCount)
                    return false;
                answers.emplace_back(w, std::move(gop));
            }
            flights_.erase(it);
        }
    }
    for (auto &[w, gop] : answers) {
        if (gop)
            respondCached(w.conn, w.requestId, std::move(gop));
        else
            respondStatus(w.conn, Status::NotFound, w.requestId);
    }
    respondCached(job.conn, job.requestId, std::move(hit));
    return true;
}

bool
VappServer::fillsWholeVideo(const ServerJob &job,
                            const GetFramesRequest &request,
                            bool cacheable)
{
    // Locality as cache hits per miss, averaged over recent misses in
    // 1/256 units: when a workload re-reads what it reads (one hit
    // per miss or more), the extra GOPs of a whole-video fill are
    // likely hits; random seeks leave them to be evicted unread. One
    // sample is capped so a burst of hits cannot swamp the average.
    constexpr u64 kOne = 256;
    const u64 hits = std::min<u64>(
        hitsSinceMiss_.exchange(0, std::memory_order_relaxed), 64);
    const u64 average =
        (hitsPerMiss_.load(std::memory_order_relaxed) * 7 + hits * kOne) /
        8;
    hitsPerMiss_.store(average, std::memory_order_relaxed);
    const GopKey key{request.name, request.gop, keyIdOf(request.key)};
    if (cacheable && (average >= kOne || cache_.holdsOtherGop(key)))
        return true;
    if (job.flightKey.empty())
        return false;
    std::lock_guard lock(flightsMutex_);
    auto it = flights_.find(job.flightKey);
    if (it == flights_.end())
        return false;
    for (const Waiter &w : it->second.waiters)
        if (w.gop != request.gop)
            return true;
    return false;
}

void
VappServer::handleGetFrames(const ServerJob &job)
{
    VA_TELEM_LATENCY("server.op.get_frames");
    GetFramesRequest request;
    if (!parseGetFramesRequest(job.payload, request)) {
        respondStatus(job.conn, Status::BadRequest, job.requestId);
        return;
    }
    const bool leader = !job.flightKey.empty();
    if (config_.cluster != nullptr && request.ringEpoch != 0 &&
        request.ringEpoch < config_.cluster->ringEpoch()) {
        // The client routed under a ring this node has already moved
        // past: refuse with the fresh membership so it re-routes,
        // instead of serving (or missing) under stale placement.
        if (leader)
            failFlight(job.flightKey, Status::WrongEpoch);
        answerWrongEpoch(job);
        return;
    }
    if (request.deadlineMs > 0 &&
        elapsedMs(job.admitted) > request.deadlineMs) {
        // Queued past its deadline: shed it now instead of doing
        // work the client has given up on. (Deadline-carrying
        // requests never lead flights, so nobody waits on this.)
        VA_TELEM_COUNT("server.deadline_expired", 1);
        respondStatus(job.conn, Status::Deadline, job.requestId);
        return;
    }
    bool shed = job.shed;
    if (!shed && config_.shedThreshold > 0 &&
        request.deadlineMs > 0 &&
        elapsedMs(job.admitted) * 2 > request.deadlineMs) {
        // Deadline risk: more than half the budget burned in the
        // queue. A reduced read is the difference between Degraded
        // and a Deadline miss. (Deadline-carrying requests never
        // lead flights, so shedding here strands no waiters.)
        shed = true;
        VA_TELEM_COUNT("server.shed.deadline_risk", 1);
    }

    // Shed decodes are reduced-fidelity: they must never seed the
    // full-fidelity GOP cache.
    const bool cacheable = config_.cacheBytes > 0 &&
                           request.injectRawBer == 0.0 && !shed;
    const u32 key_id = keyIdOf(request.key);
    GopKey cache_key{request.name, request.gop, key_id};
    if (cacheable) {
        if (CachedGopPtr hit = cache_.get(cache_key)) {
            // Admission raced a concurrent fill; serve from cache.
            // A leader still owes its waiters the full table.
            if (!leader) {
                hitsSinceMiss_.fetch_add(1, std::memory_order_relaxed);
                respondCached(job.conn, job.requestId,
                              std::move(hit));
                return;
            }
            if (completeFlightFromCache(job, request,
                                        std::move(hit)))
                return;
        }
    }

    // Decode leaders build every BCH table the video needs before
    // the read fans out: one construction pays for every block
    // decode of every coalesced request in this flight.
    if (leader)
        service_.prewarmCodes(request.name);

    ArchiveGetOptions options;
    options.injectRawBer = request.injectRawBer;
    options.seed = request.seed;
    // Shed streams come back zero-filled; concealment keeps their
    // macroblocks watchable instead of garbage.
    options.conceal = request.conceal || shed;
    options.key = request.key;
    options.shedDegradeClass = shed ? config_.shedThreshold : 0;
    // The fill rule: a miss decodes only its own GOP's reference
    // closure, unless the cache or the flight shows that other GOPs
    // of the video are wanted too (playback, scrubbing); then it
    // decodes the whole video once and caches every GOP.
    const bool whole = fillsWholeVideo(job, request, cacheable);
    // Two call sites, not a ternary name: VA_TELEM_COUNT caches the
    // counter in a per-callsite static.
    if (whole) {
        VA_TELEM_COUNT("server.get.video_fills", 1);
    } else {
        VA_TELEM_COUNT("server.get.gop_reads", 1);
        options.gop = request.gop;
    }
    ArchiveGetResult result = service_.get(request.name, options);
    if (result.error == ArchiveError::CrcMismatch &&
        config_.cluster != nullptr) {
        // The precise metadata failed its integrity check but the
        // (ECC-protected, single-copy) cells may be fine: pull the
        // replicated meta blob from a ring successor, re-anchor the
        // record, and retry the read once.
        Bytes meta;
        if (config_.cluster->fetchReplicaMeta(request.name, meta) &&
            service_.repairMeta(request.name, meta) ==
                ArchiveError::None) {
            VA_TELEM_COUNT("server.get.meta_repaired", 1);
            result = service_.get(request.name, options);
        }
    }
    if (result.error == ArchiveError::NotFound &&
        config_.cluster != nullptr) {
        if (auto source = config_.cluster->pendingMigrationSource(
                request.name)) {
            // Migration race: this node owns the name under the new
            // ring but the record has not arrived yet. Pull it from
            // the holder now (adopt-if-absent: a concurrent PUT here
            // wins) and serve as if it had always been local.
            Bytes blob;
            if (config_.cluster->pullRecord(*source, request.name,
                                            blob) &&
                service_.adoptRecord(request.name, blob,
                                     /*overwrite=*/false) ==
                    ArchiveError::None) {
                config_.cluster->clearPendingMigration(
                    request.name);
                config_.cluster->replicateMeta(request.name);
                VA_TELEM_COUNT("server.get.pull_through", 1);
                result = service_.get(request.name, options);
            } else {
                // The holder is unreachable; the record still
                // exists there, so NotFound would lie. Back off.
                if (leader)
                    failFlight(job.flightKey, Status::Retry);
                respondStatus(job.conn, Status::Retry,
                              job.requestId);
                return;
            }
        }
    }
    if (result.error == ArchiveError::NotFound &&
        request.allowReplica) {
        // Router fallback after an owner timeout: reconstruct a
        // best-effort degraded video from this successor's precise
        // metadata replica (the cells live only on the owner, so
        // every stream is served shed and concealed).
        ArchiveGetResult rep =
            service_.getFromReplica(request.name, request.gop);
        if (rep.error == ArchiveError::None) {
            // Coalesced waiters wanted full fidelity; send them
            // back to retry against the owner. Never cached.
            if (leader)
                failFlight(job.flightKey, Status::Retry);
            const std::vector<GopRange> &ranges = rep.gops;
            if (request.gop >= ranges.size()) {
                respondStatus(job.conn, Status::NotFound,
                              job.requestId);
                return;
            }
            GetFramesResponse response;
            response.status = Status::Degraded;
            response.streamsShed =
                static_cast<u32>(rep.streamsShed);
            response.bytesShed = rep.bytesShed;
            // Every payload byte is shed: the capped value the
            // shed-fraction model bottoms out at.
            response.shedDbEst = 30.0;
            response.width = static_cast<u16>(rep.decoded.width());
            response.height =
                static_cast<u16>(rep.decoded.height());
            response.gopCount = static_cast<u32>(ranges.size());
            response.firstFrame = ranges[request.gop].firstFrame;
            response.frameCount = ranges[request.gop].frameCount;
            shedResponses_.fetch_add(1,
                                     std::memory_order_relaxed);
            VA_TELEM_COUNT("server.get.replica_served", 1);
            respondCached(
                job.conn, job.requestId,
                makeCachedGop(response, rep.decoded, rep.firstFrame));
            return;
        }
    }
    if (result.error != ArchiveError::None) {
        Status status = Status::Error;
        if (result.error == ArchiveError::NotFound)
            status = Status::NotFound;
        else if (result.error == ArchiveError::KeyRequired ||
                 result.error == ArchiveError::KeyMismatch)
            status = Status::KeyRequired;
        if (leader)
            failFlight(job.flightKey, status);
        respondStatus(job.conn, status, job.requestId);
        return;
    }

    const std::vector<GopRange> &ranges = result.gops;

    GetFramesResponse response;
    response.status = result.cells.blocksUncorrectable > 0
                          ? Status::Partial
                          : Status::Ok;
    if (response.status == Status::Partial)
        VA_TELEM_COUNT("server.partial_responses", 1);
    if (result.streamsShed > 0) {
        // Chosen loss outranks suffered loss in the status byte; the
        // block counters still carry any storage damage alongside.
        response.status = Status::Degraded;
        response.streamsShed =
            static_cast<u32>(result.streamsShed);
        response.bytesShed = result.bytesShed;
        u64 total_bytes = 0;
        for (const auto &[t, data] : result.streams.data)
            total_bytes += data.size();
        double fraction =
            total_bytes > 0 ? static_cast<double>(result.bytesShed) /
                                  static_cast<double>(total_bytes)
                            : 0.0;
        if (fraction > 0.999)
            fraction = 0.999;
        // Modeled dB cost: reconstruction error energy taken
        // proportional to the shed payload fraction.
        response.shedDbEst = -10.0 * std::log10(1.0 - fraction);
        shedResponses_.fetch_add(1, std::memory_order_relaxed);
        VA_TELEM_COUNT("server.shed.responses", 1);
        VA_TELEM_COUNT("server.shed.streams", result.streamsShed);
        VA_TELEM_COUNT("server.shed.bytes", result.bytesShed);
        VA_TELEM_HIST("server.shed.est_db_x100",
                      static_cast<u64>(response.shedDbEst * 100.0));
    }
    response.gopCount = static_cast<u32>(ranges.size());
    response.blocksCorrected = result.cells.blocksCorrected;
    response.blocksUncorrectable = result.cells.blocksUncorrectable;

    // Each GOP a miss answers with is packed straight out of the
    // decoded frames into its wire payload and CRC'd, once per
    // payload. Cache entries carry fromCache = true; the leader's
    // own response carries false. Entries exist only for full-
    // fidelity reads (shed jobs neither cache nor lead), so they
    // never carry the shed fields.
    auto pack = [&](const ArchiveGetResult &from, u32 g, bool from_cache) {
        GetFramesResponse head = response;
        head.width = static_cast<u16>(from.decoded.width());
        head.height = static_cast<u16>(from.decoded.height());
        head.firstFrame = ranges[g].firstFrame;
        head.frameCount = ranges[g].frameCount;
        head.fromCache = from_cache;
        VA_TELEM_COUNT("server.gops_packed", 1);
        return makeCachedGop(head, from.decoded, from.firstFrame);
    };
    const auto covers = [&](const ArchiveGetResult &from, u32 g) {
        return ranges[g].firstFrame >= from.firstFrame &&
               ranges[g].firstFrame + ranges[g].frameCount <=
                   from.firstFrame + from.decoded.frames.size();
    };
    // Cache every GOP the read decoded: all of them after a
    // whole-video read, so the next hot read of any GOP skips the
    // read path, or the requested one after a GOP read. With the
    // cache off, a GOP is packed only if a request asked for it.
    auto fill = [&](const ArchiveGetResult &from) {
        std::vector<CachedGopPtr> table(ranges.size());
        if (!cacheable)
            return table;
        for (u32 g = 0; g < ranges.size(); ++g) {
            if (!covers(from, g))
                continue;
            table[g] = pack(from, g, true);
            cache_.put(GopKey{request.name, g, key_id}, table[g]);
        }
        return table;
    };
    // Cache inserts happen before the flight retires: a GET arriving
    // after the flight is gone finds the cache warm, so no request
    // can fall between the two.
    if (leader) {
        // A waiter for a GOP this read did not decode joined after
        // the read was sized: read the whole video once for all such
        // waiters, filling as a whole-video miss does.
        std::optional<ArchiveGetResult> video;
        std::vector<CachedGopPtr> video_table;
        auto build = [&](u32 g) -> CachedGopPtr {
            if (covers(result, g))
                return pack(result, g, true);
            if (!video) {
                VA_TELEM_COUNT("server.get.video_fills", 1);
                ArchiveGetOptions whole_options = options;
                whole_options.gop.reset();
                video = service_.get(request.name, whole_options);
                if (video->error == ArchiveError::None)
                    video_table = fill(*video);
            }
            if (video->error != ArchiveError::None || !covers(*video, g))
                return nullptr;
            return video_table[g] ? video_table[g] : pack(*video, g, true);
        };
        finishFlight(job.flightKey, fill(result), build);
    } else {
        fill(result);
    }
    if (request.gop >= ranges.size()) {
        respondStatus(job.conn, Status::NotFound, job.requestId);
        return;
    }
    // The dB-vs-latency trade, split by fidelity: degraded reads
    // finish in less wall time at a modeled quality cost. Two call
    // sites, not a ternary name: VA_TELEM_HIST caches the histogram
    // in a per-callsite static.
    if (result.streamsShed > 0)
        VA_TELEM_HIST("server.shed.latency_degraded_ms",
                      elapsedMs(job.admitted));
    else
        VA_TELEM_HIST("server.shed.latency_full_ms",
                      elapsedMs(job.admitted));
    respondCached(job.conn, job.requestId, pack(result, request.gop, false));
}

void
VappServer::handlePut(const ServerJob &job)
{
    VA_TELEM_LATENCY("server.op.put");
    PutRequest request;
    if (!parsePutRequest(job.payload, request) ||
        request.cipherMode > static_cast<u8>(CipherMode::CFB)) {
        respondStatus(job.conn, Status::BadRequest, job.requestId);
        return;
    }
    if (config_.cluster != nullptr && request.ringEpoch != 0 &&
        request.ringEpoch < config_.cluster->ringEpoch()) {
        // Writing under stale placement would strand the record on
        // a non-owner; reject with the fresh ring instead.
        answerWrongEpoch(job);
        return;
    }

    Video video;
    const std::size_t luma =
        static_cast<std::size_t>(request.width) * request.height;
    const std::size_t frame_bytes = luma * 3 / 2;
    video.frames.reserve(request.frameCount);
    for (u32 f = 0; f < request.frameCount; ++f) {
        Frame frame(request.width, request.height);
        const u8 *src = request.i420.data() + f * frame_bytes;
        std::memcpy(frame.y().data().data(), src, luma);
        std::memcpy(frame.u().data().data(), src + luma, luma / 4);
        std::memcpy(frame.v().data().data(),
                    src + luma + luma / 4, luma / 4);
        video.frames.push_back(std::move(frame));
    }

    PreparedVideo prepared = prepareVideo(
        video, EncoderConfig{}, EccAssignment::paperTable1());
    ArchivePutOptions options;
    if (!request.key.empty()) {
        EncryptionConfig enc;
        enc.mode = static_cast<CipherMode>(request.cipherMode);
        enc.key = request.key;
        enc.keyId = request.keyId;
        enc.encryptMinT = request.encryptMinT;
        // Same nonce derivation as the CLI: reproducible per
        // (seed, name), distinct across names under one key.
        Rng iv_rng(Rng::deriveSeed(
            request.ivSeed,
            std::hash<std::string>{}(request.name)));
        for (auto &b : enc.masterIv)
            b = static_cast<u8>(iv_rng.next());
        options.encryption = enc;
    }
    PutResponse response;
    const ArchiveError err = service_.put(request.name, prepared, options,
                                          &response.cellBytes);
    if (err != ArchiveError::None) {
        // A name the archive cannot store is the client's fault.
        respondStatus(job.conn,
                      err == ArchiveError::NameTooLong ? Status::BadRequest
                                                       : Status::Error,
                      job.requestId);
        return;
    }
    if (config_.cluster != nullptr && request.ringEpoch != 0 &&
        request.ringEpoch < config_.cluster->ringEpoch() &&
        config_.cluster->ownerOf(request.name) !=
            config_.cluster->selfShard()) {
        // The ring moved while this PUT was in flight (the entry
        // check ran before the bump) and took ownership elsewhere.
        // Answering Ok would strand the record on a non-owner the
        // migration sweep has already passed; undo and bounce so
        // the client re-routes under the fresh ring.
        service_.remove(request.name);
        cache_.eraseVideo(request.name);
        answerWrongEpoch(job);
        return;
    }
    cache_.eraseVideo(request.name);
    if (config_.cluster != nullptr)
        config_.cluster->replicateMeta(request.name);

    response.status = Status::Ok;
    response.payloadBytes = prepared.payloadBits() / 8;
    respondPayload(job.conn, static_cast<u8>(response.status),
                   job.requestId, serializePutResponse(response));
}

void
VappServer::handleStat(const ServerJob &job)
{
    VA_TELEM_LATENCY("server.op.stat");
    StatResponse response;
    response.status = Status::Ok;
    response.videos = service_.stat();
    respondPayload(job.conn, static_cast<u8>(response.status),
                   job.requestId, serializeStatResponse(response));
}

void
VappServer::handleScrub(const ServerJob &job)
{
    VA_TELEM_LATENCY("server.op.scrub");
    ScrubRequest request;
    if (!parseScrubRequest(job.payload, request)) {
        respondStatus(job.conn, Status::BadRequest, job.requestId);
        return;
    }
    ScrubOptions options;
    options.ageRawBer = request.ageRawBer;
    options.seed = request.seed;
    ScrubReport report = service_.scrub(options);
    // A scrub (with aging) may have changed any stream's cells:
    // every cached decode is stale.
    cache_.clear();

    ScrubResponse response;
    response.status = Status::Ok;
    response.videos = report.videos;
    response.streams = report.streams;
    response.blocksRead = report.cells.blocksRead;
    response.blocksRewritten = report.blocksRewritten;
    response.bitsCorrected = report.cells.bitsCorrected;
    response.blocksUncorrectable = report.cells.blocksUncorrectable;
    response.streamsMiscorrected = report.streamsMiscorrected;
    response.streamsDamaged = report.streamsDamaged;
    respondPayload(job.conn, static_cast<u8>(response.status),
                   job.requestId, serializeScrubResponse(response));
}

void
VappServer::answerHealth(const std::shared_ptr<Connection> &conn,
                         u32 request_id)
{
    HealthResponse response;
    response.status = Status::Ok;
    response.queueDepth = static_cast<u32>(queue_.size());
    response.queueCapacity = static_cast<u32>(queue_.capacity());
    response.queueHighWater =
        static_cast<u32>(queue_.highWater());
    response.queueRejected = queue_.rejectedTotal();
    response.cacheBytes = cache_.bytes();
    response.cacheEntries = cache_.entries();
    response.videos = service_.videoCount();
    response.coalescedGets = coalescedGets_.load();
    response.shedThreshold = config_.shedThreshold > 0
                                 ? static_cast<u32>(
                                       config_.shedThreshold)
                                 : 0;
    response.shedResponses = shedResponses_.load();
    respondPayload(conn, static_cast<u8>(response.status),
                   request_id, serializeHealthResponse(response));
}

} // namespace videoapp
