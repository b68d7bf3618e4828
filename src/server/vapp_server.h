/**
 * @file
 * The VAPP store server: an event-driven TCP front end over an
 * ArchiveService, completing the paper's storage model into a
 * serving system that can be load-tested end to end.
 *
 * Architecture (one process, loopback or LAN):
 *
 *   epoll event loop (1 thread, nonblocking sockets)
 *     │  accepts, reads, incremental deframing (FrameDeframer),
 *     │  HEALTH / BadRequest / Retry / cache hits answered inline,
 *     │  all socket writes (nonblocking, partial-write continuation
 *     │  via per-connection outboxes and EPOLLOUT re-arm)
 *     ▼
 *   RequestQueue (bounded, Serve ahead of Maintain;
 *     │           full queue -> Status::Retry)
 *     ▼
 *   worker pool: batched pop, deadline check, single-flight decode,
 *     ArchiveService get/put/scrub/stat; responses are appended to
 *     the connection outbox and the loop is woken via eventfd —
 *     workers never touch a socket.
 *
 * Read path: a GET_FRAMES miss reads the video through
 * ArchiveService::get (BCH read, decrypt, pivot reassembly) and
 * entropy-decodes only the requested GOP's reference closure, caches
 * that GOP and answers with it. When another GOP of the video is
 * already cached, a coalesced waiter wants one, or recent misses
 * averaged a cache hit each, the miss decodes the whole video
 * instead and caches every GOP (the fill rule, fillsWholeVideo). A
 * hit serializes straight from the
 * refcounted FrameCache entry — the pre-built payload and memoized
 * CRC hit the wire with zero copies. Exact reads (injectRawBer ==
 * 0) are the only cacheable ones — injected reads are stochastic
 * experiments and always decode fresh.
 *
 * Single flight: concurrent cold GETs for the same (video, key-id)
 * coalesce. The first becomes the decode leader; later arrivals
 * (exact, deadline-free) attach as waiters without consuming queue
 * slots and are all answered from the leader's one decode — which
 * also pre-warms the video's BCH tables once, so the block decodes
 * the whole batch shares hit the table cache's lock-free fast path.
 * Requests carrying deadlines or error injection bypass coalescing.
 *
 * Degradation: requests carrying a deadline that expires while
 * queued get Status::Deadline; reads whose low-importance streams
 * had uncorrectable blocks still serve their frames with
 * Status::Partial (approximate storage made visible, not an error).
 *
 * Shutdown (stop()): stop accepting, close the queue (admitted jobs
 * still drain and answer), join workers while the loop keeps
 * flushing their responses, then drain the outboxes (bounded) and
 * exit — an admitted request never loses its response.
 */

#ifndef VIDEOAPP_SERVER_VAPP_SERVER_H_
#define VIDEOAPP_SERVER_VAPP_SERVER_H_

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "archive/archive_service.h"
#include "server/frame_cache.h"
#include "server/request_queue.h"
#include "server/wire.h"

namespace videoapp {

/**
 * What a VappServer needs from the cluster tier, when it runs as one
 * shard of a ring (src/cluster/ClusterNode implements this; a null
 * pointer in the config means standalone, zero cluster overhead).
 *
 * Placement methods are pure functions of the ring and safe from any
 * thread. forward()/replicateMeta()/fetchReplicaMeta() do blocking
 * peer I/O and must only run on worker threads, never the event
 * loop.
 */
class ClusterPeer
{
  public:
    virtual ~ClusterPeer() = default;

    /** This node's shard id. */
    virtual u32 selfShard() const = 0;

    /** The shard the ring places @p name on. */
    virtual u32 ownerOf(const std::string &name) const = 0;

    /**
     * Relay (op, payload) to @p shard with kWireFlagForwarded set
     * and return the peer's response verbatim (@p kind is the
     * response frame kind, @p response its payload). False on
     * transport failure.
     */
    virtual bool forward(u32 shard, Opcode op, const Bytes &payload,
                        u8 &kind, Bytes &response) = 0;

    /** Serialized ClusterInfoResponse describing the ring. */
    virtual Bytes infoPayload() const = 0;

    /** Ship @p name's precise-meta blob to its ring successors
     * (best effort; failures are counted, not fatal). */
    virtual void replicateMeta(const std::string &name) = 0;

    /** Fetch a replica blob for @p name from a successor holding
     * one. False when no replica could be retrieved. */
    virtual bool fetchReplicaMeta(const std::string &name,
                                  Bytes &meta) = 0;

    // --- live membership (rebalance tier; defaults = static ring) --

    /** Current ring epoch (requests carrying an older one are
     * answered Status::WrongEpoch with the fresh ring). */
    virtual u64
    ringEpoch() const
    {
        return 0;
    }

    /**
     * When @p name is still migrating *to* this node, the shard that
     * holds it today. A worker seeing NotFound for such a name pulls
     * the record from the source before answering (pull-through
     * cutover — GETs stay correct mid-migration).
     */
    virtual std::optional<ClusterShard>
    pendingMigrationSource(const std::string &name) const
    {
        (void)name;
        return std::nullopt;
    }

    /** Blocking CELL_PULL of @p name's record blob from @p source
     * (workers only). False on transport/status failure. */
    virtual bool
    pullRecord(const ClusterShard &source, const std::string &name,
               Bytes &record)
    {
        (void)source;
        (void)name;
        (void)record;
        return false;
    }

    /** The record for @p name arrived (pull-through or push):
     * forget its migration-in entry. */
    virtual void
    clearPendingMigration(const std::string &name)
    {
        (void)name;
    }
};

struct VappServerConfig
{
    /** TCP port to bind on 127.0.0.1 (0 = ephemeral, see port()). */
    u16 port = 0;
    /** Worker threads draining the request queue (the event loop
     * handles any number of connections on its own). */
    int workers = 4;
    /** Bounded queue capacity across both priority classes. */
    std::size_t queueCapacity = 256;
    /** Decoded-GOP cache byte budget (0 disables caching). */
    std::size_t cacheBytes = 64u << 20;
    /** Test hook: SO_SNDBUF for accepted sockets (0 = OS default).
     * A tiny buffer forces partial writes so the EPOLLOUT
     * continuation path is exercised deterministically. */
    int sndbufBytes = 0;
    /**
     * Importance-aware load shedding (0 = disabled). When > 0, a
     * GET_FRAMES admitted while the queue is under pressure (depth
     * at 3/4 capacity or more), or whose deadline is already half
     * spent by the time a worker picks it up, skips reading streams
     * whose policy degradation class is >= this value and answers
     * Status::Degraded — trading low-importance fidelity for
     * latency. Class 0 (the most important stream) is never shed,
     * and shed responses bypass both single-flight coalescing and
     * the GOP cache.
     */
    int shedThreshold = 0;
    /** Non-null: run as one shard of a cluster. Mis-targeted
     * GET_FRAMES/PUT requests are forwarded to their owner, PUTs
     * replicate precise metadata to ring successors, and GETs whose
     * precise metadata fails its CRC repair from a replica. The
     * peer must outlive the server. */
    ClusterPeer *cluster = nullptr;
};

class VappServer
{
  public:
    /** @p service must outlive the server and be open()ed. */
    VappServer(ArchiveService &service, VappServerConfig config);
    ~VappServer();

    VappServer(const VappServer &) = delete;
    VappServer &operator=(const VappServer &) = delete;

    /** Bind, listen and launch the threads; false on socket errors
     * (errno preserved). Call at most once. */
    bool start();

    /** Graceful shutdown; idempotent, also run by the destructor. */
    void stop();

    /** The bound port (valid after start(); resolves port = 0). */
    u16 port() const { return port_; }

    FrameCache &cache() { return cache_; }
    std::size_t queueDepth() const { return queue_.size(); }
    std::size_t queueHighWater() const { return queue_.highWater(); }
    u64 queueRejected() const { return queue_.rejectedTotal(); }

    /** GETs answered from another request's in-flight decode. */
    u64 coalescedGets() const { return coalescedGets_.load(); }

    /** GETs served reduced-fidelity (Status::Degraded). */
    u64 shedResponses() const { return shedResponses_.load(); }

    /**
     * Test/bench hook: freeze the worker pool's queue drain so
     * admitted requests pile up to capacity and the overflow is
     * answered with Status::Retry deterministically. Admission,
     * HEALTH and connection handling keep running.
     */
    void setDrainPaused(bool paused);

  private:
    struct Connection;
    struct OutboundFrame;

    struct ServerJob
    {
        std::shared_ptr<Connection> conn;
        Opcode opcode = Opcode::Health;
        u32 requestId = 0;
        Bytes payload;
        std::chrono::steady_clock::time_point admitted;
        /** Non-empty: this job leads the single-flight decode
         * registered under this key at admission. */
        std::string flightKey;
        /** True: relay the request to @p forwardShard and echo the
         * peer's response instead of serving locally. */
        bool forward = false;
        u32 forwardShard = 0;
        /** True: admission saw queue pressure — serve this GET at
         * reduced fidelity (shed low-importance streams). */
        bool shed = false;
    };

    struct Waiter
    {
        std::shared_ptr<Connection> conn;
        u32 requestId = 0;
        u32 gop = 0;
    };

    struct Flight
    {
        std::vector<Waiter> waiters;
    };

    // --- event loop (loop thread only unless noted) ----------------
    void eventLoop();
    void acceptAll();
    void onReadable(const std::shared_ptr<Connection> &conn);
    /** Parse buffered frames; false when the connection was lost. */
    bool processFrames(const std::shared_ptr<Connection> &conn);
    void handleFrame(const std::shared_ptr<Connection> &conn,
                     const WireFrameHeader &header, Bytes payload);
    void flushOutbox(const std::shared_ptr<Connection> &conn);
    void processWriteReady();
    void updateEpoll(const std::shared_ptr<Connection> &conn);
    void closeConnection(const std::shared_ptr<Connection> &conn);
    bool drainForExit();

    /** Any thread: queue a frame on @p conn and make sure the loop
     * flushes it (inline when called from the loop itself). */
    void enqueueResponse(const std::shared_ptr<Connection> &conn,
                         OutboundFrame frame);
    void wakeLoop();

    void respondPayload(const std::shared_ptr<Connection> &conn,
                        u8 kind, u32 request_id,
                        const Bytes &payload);
    void respondStatus(const std::shared_ptr<Connection> &conn,
                       Status status, u32 request_id);
    /** Zero-copy: header + pinned cache payload + CRC trailer. */
    void respondCached(const std::shared_ptr<Connection> &conn,
                       u32 request_id, CachedGopPtr gop);

    // --- workers ---------------------------------------------------
    void workerLoop();
    void execute(const ServerJob &job);
    void handleGetFrames(const ServerJob &job);
    void handlePut(const ServerJob &job);
    void handleStat(const ServerJob &job);
    void handleScrub(const ServerJob &job);
    void handleMetaPut(const ServerJob &job);
    void handleMetaGet(const ServerJob &job);
    void handleCellPull(const ServerJob &job);
    void handleCellPush(const ServerJob &job);
    /** The request routed by a stale ring: answer Status::WrongEpoch
     * carrying the fresh ring so the client self-heals. */
    void answerWrongEpoch(const ServerJob &job);
    /** Relay a mis-targeted request to its owner shard and echo the
     * response verbatim (workers only: blocking peer I/O). */
    void handleForward(const ServerJob &job);
    void answerHealth(const std::shared_ptr<Connection> &conn,
                      u32 request_id);

    /** Retire the flight of @p key and serve its waiters from the
     * per-GOP table (out of range -> NotFound). A requested GOP the
     * table lacks is built by @p build, once, after the waiters are
     * detached, so nobody packs a GOP no one asked for; a null build
     * answers NotFound. */
    void finishFlight(const std::string &key,
                      std::vector<CachedGopPtr> table,
                      const std::function<CachedGopPtr(u32)> &build = {});
    /** Retire the flight answering every waiter @p status. */
    void failFlight(const std::string &key, Status status);
    /** Leader raced a cache fill: try to finish the flight (and the
     * leader's own response) entirely from cache; false when a GOP a
     * waiter wants is not cached and a read is needed. */
    bool completeFlightFromCache(const ServerJob &job,
                                 const GetFramesRequest &request,
                                 CachedGopPtr hit);
    /**
     * The fill rule: true when a miss should decode and cache the
     * whole video instead of its own GOP. For @p cacheable reads:
     * another GOP of the same (video, key id) is cached, or recent
     * misses averaged at least one cache hit each. For any leader: a
     * waiter on @p job's flight wants another GOP. All three are
     * locality the server observes (playback, scrubbing, replays of
     * what was just read), so no option chooses the decode range.
     * Every call is one miss for the hit average.
     */
    bool fillsWholeVideo(const ServerJob &job,
                         const GetFramesRequest &request,
                         bool cacheable);

    ArchiveService &service_;
    VappServerConfig config_;
    RequestQueue<ServerJob> queue_;
    FrameCache cache_;

    int listenFd_ = -1;
    int epollFd_ = -1;
    int wakeFd_ = -1;
    u16 port_ = 0;
    bool started_ = false;
    bool stopped_ = false;
    std::atomic<bool> stopAccept_{false};
    std::atomic<bool> draining_{false};
    std::atomic<std::thread::id> loopThreadId_{};
    std::thread loopThread_;
    std::vector<std::thread> workers_;

    /** Loop-thread only: fd -> connection. */
    std::unordered_map<int, std::shared_ptr<Connection>> conns_;

    /** Connections with responses queued by workers, awaiting a
     * loop-side flush (drained by processWriteReady). */
    std::mutex writeReadyMutex_;
    std::vector<std::shared_ptr<Connection>> writeReady_;

    /** In-flight decode registry, keyed (video name, key id). */
    std::mutex flightsMutex_;
    std::unordered_map<std::string, Flight> flights_;

    std::atomic<u64> coalescedGets_{0};
    std::atomic<u64> shedResponses_{0};
    /** Cache hits since the last miss reached the fill rule, and the
     * fill rule's running average of that count (1/256 units). Relaxed
     * and racy by design: a lost update only nudges a heuristic. */
    std::atomic<u64> hitsSinceMiss_{0};
    std::atomic<u64> hitsPerMiss_{0};
};

} // namespace videoapp

#endif // VIDEOAPP_SERVER_VAPP_SERVER_H_
