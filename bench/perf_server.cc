/**
 * @file
 * Performance of the VAPP serving layer (not a paper figure — an
 * engineering bench for the network store front end built on the
 * archive service).
 *
 * Measurements, written to BENCH_server.json:
 *  1. closed-loop loopback load at 16 and 64 concurrent
 *     connections, each client issuing a deterministic mix of
 *     GET_FRAMES / PUT / SCRUB / missing-name GETs, with wall time,
 *     throughput and client-observed GET latency percentiles.
 *  2. a skewed hot-key mode at 64 and 256 connections: 90% of GETs
 *     hammer one (video, GOP) — the workload single-flight
 *     coalescing and the zero-copy cache hit path exist for — with
 *     the same throughput/latency metrics.
 *  3. a shed-mode section: the same overloaded GET load (cache off,
 *     8-deep queue, 32 connections) with the importance-aware
 *     shed threshold off and on, reporting the fidelity split
 *     (full vs degraded, streams shed) and GET p50/p99 per row plus
 *     the p99 speedup shedding buys — and two hard flags: with the
 *     threshold off nothing ever degrades, and a deterministically
 *     saturated 4-deep queue sheds exactly the tail request.
 *  4. hard output counts per row: ok GETs, ok PUTs, ok SCRUBs,
 *     not-found responses and lost responses (always 0 — an
 *     admitted request never loses its response), all derived from
 *     the fixed per-client schedule.
 *  5. with --shards N --resize, a live-membership section: N shards
 *     serving 4 concurrent routed readers while a new shard joins
 *     and the migration engine moves records, followed by a
 *     kill-and-rebuild of one shard. Three hard flags gate it: zero
 *     lost or byte-mismatched videos, moved count equal to the ring
 *     diff prediction, and a byte-exact rebuild.
 *  6. cold single-GOP GETs of a 1-, 4- and 16-GOP video on a server
 *     with the cache off, so every GET misses: p50 latency and the
 *     frames decoded per GET (the codec.frames_decoded histogram) per
 *     row. A miss decodes only its GOP's reference closure, so both
 *     should stay flat across video lengths (soft fields).
 *  7. five correctness flags: every request got a response
 *     (responses_all_accounted), wire GET frames are byte-identical
 *     to a local ArchiveService::get (wire_matches_local), a warm
 *     GET is served from the decoded-GOP cache without touching the
 *     archive read path (cache_hit_skips_decode), overflowing a
 *     paused small queue answers Status::Retry for exactly the
 *     overflow (backpressure_returns_retry), and N concurrent cold
 *     GETs of one GOP trigger exactly one archive decode
 *     (coalescing_single_flight).
 *
 * The JSON carries the bench config and a telemetry snapshot;
 * tools/check_bench_regression.py diffs it against
 * bench/baselines/BENCH_server.baseline.json in CI (latency soft,
 * counts and flags hard). VIDEOAPP_BENCH_OUT overrides the output
 * path.
 */

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "archive/archive_service.h"
#include "cluster/cluster_node.h"
#include "cluster/cluster_router.h"
#include "cluster/scrub_scheduler.h"
#include "rebalance/rebalance.h"
#include "common/telemetry.h"
#include "server/vapp_client.h"
#include "server/vapp_server.h"
#include "sim/bench_config.h"

namespace videoapp {
namespace {

double
now()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               clock::now().time_since_epoch())
        .count();
}

/** One load row: all clients at a fixed connection count. */
struct LoadPoint
{
    int connections = 0;
    double wallSeconds = 0;
    double opsPerSecond = 0;
    double getP50Us = 0;
    double getP99Us = 0;
    // Hard-checked outputs (fixed by the per-client op schedule).
    u64 getsOk = 0;
    u64 putsOk = 0;
    u64 scrubsOk = 0;
    u64 notFound = 0;
    u64 responsesLost = 0;
};

std::string
scratchPath()
{
    const char *tmp = std::getenv("TMPDIR");
    return std::string(tmp ? tmp : "/tmp") + "/perf_server.vapp";
}

std::string
benchVideoName(std::size_t i)
{
    std::string name = "video";
    name += std::to_string(i);
    return name;
}

double
percentile(std::vector<double> &sorted_us, double p)
{
    if (sorted_us.empty())
        return 0;
    double rank = p * (sorted_us.size() - 1);
    std::size_t lo = static_cast<std::size_t>(rank);
    std::size_t hi = std::min(lo + 1, sorted_us.size() - 1);
    double frac = rank - lo;
    return sorted_us[lo] * (1 - frac) + sorted_us[hi] * frac;
}

/**
 * The deterministic per-client op schedule. Client @p client does
 * @p ops operations; op @p j is one of:
 *   - j % 8 == 6               GET of a name that does not exist
 *   - j % 8 == 3, client % 4 == 1   PUT of the client's own clip
 *   - j % 8 == 7, client == 0  SCRUB (no aging)
 *   - otherwise                GET of a stored video, cycling GOPs
 * so the ok/not-found totals per row are a pure function of
 * (connections, ops) and hard-checkable against the baseline.
 */
enum class OpKind { Get, GetMissing, Put, Scrub };

OpKind
scheduledOp(int client, int j)
{
    if (j % 8 == 6)
        return OpKind::GetMissing;
    if (j % 8 == 3 && client % 4 == 1)
        return OpKind::Put;
    if (j % 8 == 7 && client == 0)
        return OpKind::Scrub;
    return OpKind::Get;
}

struct ClientTally
{
    u64 getsOk = 0;
    u64 putsOk = 0;
    u64 scrubsOk = 0;
    u64 notFound = 0;
    u64 lost = 0;
    std::vector<double> getLatencyUs;
};

void
clientLoop(u16 port, int client, int ops, int videos, u32 gop_count,
           const std::vector<PutRequest> &put_templates,
           ClientTally &tally)
{
    VappClient c;
    if (!c.connect("127.0.0.1", port)) {
        tally.lost += static_cast<u64>(ops);
        return;
    }
    for (int j = 0; j < ops; ++j) {
        switch (scheduledOp(client, j)) {
          case OpKind::GetMissing: {
            GetFramesRequest get;
            get.name = "no-such-video";
            auto r = c.getFrames(get);
            if (!r)
                ++tally.lost;
            else if (r->status == Status::NotFound)
                ++tally.notFound;
            break;
          }
          case OpKind::Put: {
            PutRequest put =
                put_templates[client % put_templates.size()];
            put.name = "client" + std::to_string(client);
            auto r = c.put(put);
            if (!r)
                ++tally.lost;
            else if (r->status == Status::Ok)
                ++tally.putsOk;
            break;
          }
          case OpKind::Scrub: {
            ScrubRequest scrub;
            auto r = c.scrub(scrub);
            if (!r)
                ++tally.lost;
            else if (r->status == Status::Ok)
                ++tally.scrubsOk;
            break;
          }
          case OpKind::Get: {
            GetFramesRequest get;
            get.name = benchVideoName(
                static_cast<std::size_t>(client) % videos);
            get.gop = static_cast<u32>(j) % gop_count;
            double t0 = now();
            auto r = c.getFrames(get);
            double us = (now() - t0) * 1e6;
            if (!r)
                ++tally.lost;
            else if (r->status == Status::Ok ||
                     r->status == Status::Partial) {
                ++tally.getsOk;
                tally.getLatencyUs.push_back(us);
            }
            break;
          }
        }
    }
}

/**
 * The skewed hot-key schedule: 90% of ops GET (video0, gop0), the
 * rest cycle deterministically across the other videos and GOPs.
 * Every op is a GET of a stored video, so gets_ok is a pure function
 * of (connections, ops) and hard-checkable.
 */
void
skewedClientLoop(u16 port, int client, int ops, int videos,
                 u32 gop_count, ClientTally &tally)
{
    VappClient c;
    if (!c.connect("127.0.0.1", port)) {
        tally.lost += static_cast<u64>(ops);
        return;
    }
    for (int j = 0; j < ops; ++j) {
        GetFramesRequest get;
        if ((client + j) % 10 < 9) {
            get.name = benchVideoName(0);
            get.gop = 0;
        } else {
            get.name = benchVideoName(
                static_cast<std::size_t>(client + j) %
                static_cast<std::size_t>(videos));
            get.gop = static_cast<u32>(j) % gop_count;
        }
        double t0 = now();
        auto r = c.getFrames(get);
        double us = (now() - t0) * 1e6;
        if (!r)
            ++tally.lost;
        else if (r->status == Status::Ok ||
                 r->status == Status::Partial) {
            ++tally.getsOk;
            tally.getLatencyUs.push_back(us);
        }
    }
}

LoadPoint
mergeTallies(int connections, int ops, double wall_seconds,
             std::vector<ClientTally> &tallies)
{
    LoadPoint p;
    p.connections = connections;
    p.wallSeconds = wall_seconds;
    std::vector<double> latencies;
    for (const ClientTally &t : tallies) {
        p.getsOk += t.getsOk;
        p.putsOk += t.putsOk;
        p.scrubsOk += t.scrubsOk;
        p.notFound += t.notFound;
        p.responsesLost += t.lost;
        latencies.insert(latencies.end(), t.getLatencyUs.begin(),
                         t.getLatencyUs.end());
    }
    std::sort(latencies.begin(), latencies.end());
    p.getP50Us = percentile(latencies, 0.50);
    p.getP99Us = percentile(latencies, 0.99);
    u64 total_ops = static_cast<u64>(connections) *
                    static_cast<u64>(ops);
    p.opsPerSecond = p.wallSeconds > 0
                         ? static_cast<double>(total_ops) /
                               p.wallSeconds
                         : 0;
    return p;
}

LoadPoint
benchOneConnectionCount(u16 port, int connections, int ops,
                        int videos, u32 gop_count,
                        const std::vector<PutRequest> &put_templates)
{
    std::vector<ClientTally> tallies(connections);
    std::vector<std::thread> threads;
    threads.reserve(connections);
    double t0 = now();
    for (int i = 0; i < connections; ++i)
        threads.emplace_back([&, i] {
            clientLoop(port, i, ops, videos, gop_count,
                       put_templates, tallies[i]);
        });
    for (std::thread &t : threads)
        t.join();
    return mergeTallies(connections, ops, now() - t0, tallies);
}

LoadPoint
benchSkewedConnectionCount(u16 port, int connections, int ops,
                           int videos, u32 gop_count)
{
    std::vector<ClientTally> tallies(connections);
    std::vector<std::thread> threads;
    threads.reserve(connections);
    double t0 = now();
    for (int i = 0; i < connections; ++i)
        threads.emplace_back([&, i] {
            skewedClientLoop(port, i, ops, videos, gop_count,
                             tallies[i]);
        });
    for (std::thread &t : threads)
        t.join();
    return mergeTallies(connections, ops, now() - t0, tallies);
}

/** Wire GET frames == packFramesI420 over a local service get. */
bool
checkWireMatchesLocal(ArchiveService &service, u16 port, int videos)
{
    VappClient c;
    if (!c.connect("127.0.0.1", port))
        return false;
    for (int i = 0; i < videos; ++i) {
        const std::string name = benchVideoName(i);
        ArchiveGetResult local = service.get(name);
        if (local.error != ArchiveError::None)
            return false;
        auto ranges = gopRanges(local.frameHeaders,
                                local.decoded.frames.size());
        for (std::size_t g = 0; g < ranges.size(); ++g) {
            GetFramesRequest get;
            get.name = name;
            get.gop = static_cast<u32>(g);
            auto r = c.getFrames(get);
            if (!r || r->status != Status::Ok)
                return false;
            Bytes expected =
                packFramesI420(local.decoded, ranges[g].firstFrame,
                               ranges[g].frameCount);
            if (r->i420 != expected ||
                r->firstFrame != ranges[g].firstFrame ||
                r->frameCount != ranges[g].frameCount)
                return false;
        }
    }
    return true;
}

/** A warm GET is flagged fromCache and (when telemetry is compiled
 * in) leaves the archive.gets counter untouched. */
bool
checkCacheHitSkipsDecode(VappServer &server, u16 port)
{
    server.cache().clear();
    VappClient c;
    if (!c.connect("127.0.0.1", port))
        return false;
    GetFramesRequest get;
    get.name = benchVideoName(0);
    auto miss = c.getFrames(get);
    if (!miss || miss->status != Status::Ok || miss->fromCache)
        return false;
    u64 gets_before = 0;
    if (telemetry::kEnabled)
        gets_before = telemetry::globalRegistry()
                          .counter("archive.gets")
                          .value();
    auto hit = c.getFrames(get);
    if (!hit || hit->status != Status::Ok || !hit->fromCache ||
        hit->i420 != miss->i420)
        return false;
    if (telemetry::kEnabled &&
        telemetry::globalRegistry().counter("archive.gets").value() !=
            gets_before)
        return false;
    return true;
}

/**
 * Overflow a paused 4-deep queue with 8 pipelined GETs: exactly the
 * overflow half must answer Status::Retry, and after resuming the
 * drain the admitted half must answer normally.
 */
bool
checkBackpressureReturnsRetry(ArchiveService &service)
{
    VappServerConfig config;
    config.workers = 2;
    config.queueCapacity = 4;
    config.cacheBytes = 0;
    VappServer server(service, config);
    if (!server.start())
        return false;
    server.setDrainPaused(true);

    VappClient c;
    if (!c.connect("127.0.0.1", server.port()))
        return false;
    const int burst = 8;
    for (int i = 0; i < burst; ++i) {
        // Distinct (missing) names: identical cold GETs would
        // coalesce into one queue slot and never overflow.
        GetFramesRequest get;
        get.name = "no-such-video-" + std::to_string(i);
        if (!c.send(Opcode::GetFrames,
                    serializeGetFramesRequest(get)))
            return false;
    }
    // The reader admits sequentially, so the rejects are answered
    // first; wait for the queue to actually fill before resuming.
    double deadline = now() + 10;
    while (server.queueDepth() < config.queueCapacity &&
           now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    int retries = 0;
    int answered = 0;
    for (int i = 0; i < burst; ++i) {
        if (i == burst - static_cast<int>(config.queueCapacity))
            server.setDrainPaused(false);
        auto r = c.receive();
        if (!r)
            return false;
        ++answered;
        if (static_cast<Status>(r->kind) == Status::Retry)
            ++retries;
    }
    server.stop();
    return answered == burst &&
           retries == burst - static_cast<int>(config.queueCapacity);
}

/**
 * N pipelined cold GETs of one GOP must trigger exactly one archive
 * decode: the first becomes the single-flight leader, the rest are
 * answered from its result, byte-identically. Deterministic because
 * admission (and flight registration) is single-threaded on the
 * event loop and the worker drain is paused until all N landed.
 */
bool
checkSingleFlightCoalesces(VappServer &server, u16 port)
{
    server.cache().clear();
    server.setDrainPaused(true);
    const u64 coalesced_before = server.coalescedGets();
    u64 gets_before = 0;
    if (telemetry::kEnabled)
        gets_before = telemetry::globalRegistry()
                          .counter("archive.gets")
                          .value();

    const std::size_t burst = 6;
    std::vector<VappClient> clients(burst);
    GetFramesRequest get;
    get.name = benchVideoName(0);
    Bytes payload = serializeGetFramesRequest(get);
    for (VappClient &c : clients) {
        if (!c.connect("127.0.0.1", port) ||
            !c.send(Opcode::GetFrames, payload)) {
            server.setDrainPaused(false);
            return false;
        }
    }
    double deadline = now() + 10;
    while (server.coalescedGets() - coalesced_before < burst - 1 &&
           now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const bool coalesced =
        server.coalescedGets() - coalesced_before == burst - 1;
    server.setDrainPaused(false);

    Bytes first;
    bool all_equal = true;
    for (std::size_t i = 0; i < clients.size(); ++i) {
        auto raw = clients[i].receive();
        if (!raw)
            return false;
        GetFramesResponse response;
        if (!parseGetFramesResponse(raw->payload, response) ||
            response.status != Status::Ok)
            return false;
        if (i == 0)
            first = response.i420;
        else if (response.i420 != first)
            all_equal = false;
    }
    bool one_decode = true;
    if (telemetry::kEnabled)
        one_decode = telemetry::globalRegistry()
                             .counter("archive.gets")
                             .value() == gets_before + 1;
    return coalesced && all_equal && one_decode;
}

// --- importance-aware shedding ------------------------------------------

/** One shed-mode row: the same overloaded GET load at one
 * shed-threshold setting. */
struct ShedPoint
{
    int threshold = 0;
    double wallSeconds = 0;
    double opsPerSecond = 0;
    double p50Us = 0;
    /** p99 over every answered GET (degraded included): the latency
     * the load-shedding exists to protect. */
    double p99Us = 0;
    /** p99 over full-fidelity answers only. */
    double fullP99Us = 0;
    u64 answered = 0;
    u64 fullFidelity = 0;
    u64 degraded = 0;
    u64 streamsShed = 0;
    u64 lost = 0;
    u64 shedResponses = 0;
};

struct ShedTally
{
    u64 fullFidelity = 0;
    u64 degraded = 0;
    u64 streamsShed = 0;
    u64 lost = 0;
    std::vector<double> allLatencyUs;
    std::vector<double> fullLatencyUs;
};

void
shedClientLoop(u16 port, int client, int ops, u32 gop_count,
               ShedTally &tally)
{
    VappClient c;
    if (!c.connect("127.0.0.1", port)) {
        tally.lost += static_cast<u64>(ops);
        return;
    }
    // Backpressure overflow answers Retry; the client-side retry
    // policy absorbs it so every op resolves to a fidelity outcome.
    // Generous budget: the queue stays saturated for the whole run,
    // and a client that gives up would turn the schedule-fixed
    // responses_lost=0 contract into a timing accident.
    RetryPolicy policy;
    policy.maxRetries = 64;
    policy.initialBackoffMs = 1;
    policy.maxBackoffMs = 64;
    policy.jitterSeed = static_cast<u64>(client) + 1;
    c.setRetryPolicy(policy);
    for (int j = 0; j < ops; ++j) {
        // Per-client clips: distinct cold keys cannot coalesce in
        // the single-flight table, so every GET is real decode work
        // and the queue pressure the shed path exists for builds.
        GetFramesRequest get;
        get.name = "shedload-" + std::to_string(client);
        get.gop = static_cast<u32>(j) % gop_count;
        get.conceal = true;
        double t0 = now();
        auto r = c.getFrames(get);
        double us = (now() - t0) * 1e6;
        if (!r) {
            ++tally.lost;
            continue;
        }
        if (r->status == Status::Degraded) {
            ++tally.degraded;
            tally.streamsShed += r->streamsShed;
            tally.allLatencyUs.push_back(us);
        } else if (r->status == Status::Ok ||
                   r->status == Status::Partial) {
            ++tally.fullFidelity;
            tally.allLatencyUs.push_back(us);
            tally.fullLatencyUs.push_back(us);
        } else {
            ++tally.lost;
        }
    }
}

/**
 * The overloaded mixed-importance GET load at one threshold: its own
 * server with the cache off (every GET pays the decode) and a small
 * queue, so admission pressure is real. Per-response fidelity is
 * load-dependent (soft); answered/lost are schedule-fixed (hard).
 */
ShedPoint
benchShedMode(ArchiveService &service, int threshold,
              int connections, int ops,
              const PreparedVideo &scratch, u32 gop_count)
{
    VappServerConfig config;
    config.workers = 2;
    config.queueCapacity = 8;
    config.cacheBytes = 0;
    config.shedThreshold = threshold;
    VappServer server(service, config);
    ShedPoint point;
    point.threshold = threshold;
    if (!server.start()) {
        point.lost =
            static_cast<u64>(connections) * static_cast<u64>(ops);
        return point;
    }
    for (int i = 0; i < connections; ++i)
        if (service.put("shedload-" + std::to_string(i), scratch,
                        {}) != ArchiveError::None) {
            server.stop();
            point.lost = static_cast<u64>(connections) *
                         static_cast<u64>(ops);
            return point;
        }
    const u16 port = server.port();
    std::vector<ShedTally> tallies(connections);
    std::vector<std::thread> threads;
    threads.reserve(connections);
    double t0 = now();
    for (int i = 0; i < connections; ++i)
        threads.emplace_back([&, i] {
            shedClientLoop(port, i, ops, gop_count, tallies[i]);
        });
    for (std::thread &t : threads)
        t.join();
    point.wallSeconds = now() - t0;
    std::vector<double> all, full;
    for (const ShedTally &t : tallies) {
        point.fullFidelity += t.fullFidelity;
        point.degraded += t.degraded;
        point.streamsShed += t.streamsShed;
        point.lost += t.lost;
        all.insert(all.end(), t.allLatencyUs.begin(),
                   t.allLatencyUs.end());
        full.insert(full.end(), t.fullLatencyUs.begin(),
                    t.fullLatencyUs.end());
    }
    point.answered = point.fullFidelity + point.degraded;
    std::sort(all.begin(), all.end());
    std::sort(full.begin(), full.end());
    point.p50Us = percentile(all, 0.50);
    point.p99Us = percentile(all, 0.99);
    point.fullP99Us = percentile(full, 0.99);
    u64 total_ops = static_cast<u64>(connections) *
                    static_cast<u64>(ops);
    point.opsPerSecond =
        point.wallSeconds > 0
            ? static_cast<double>(total_ops) / point.wallSeconds
            : 0;
    point.shedResponses = server.shedResponses();
    server.stop();
    return point;
}

/**
 * Deterministic shed check, mirroring the backpressure one: with the
 * drain paused, fill a 4-deep queue with pipelined cold GETs — the
 * admission-pressure rule (queue 3/4 full) sheds exactly the last
 * one, which must answer Degraded with a nonzero shed count while
 * the other three stay full fidelity.
 */
bool
checkShedUnderPressure(ArchiveService &service,
                       const PreparedVideo &scratch)
{
    VappServerConfig config;
    config.workers = 2;
    config.queueCapacity = 4;
    config.cacheBytes = 0;
    config.shedThreshold = 1;
    VappServer server(service, config);
    if (!server.start())
        return false;
    server.setDrainPaused(true);

    // Four distinct cold keys (the bench may hold a single video, so
    // GOP numbers cannot be trusted to exist): identical cold GETs
    // would coalesce into one queue slot and never build pressure.
    const int burst = 4;
    for (int i = 0; i < burst; ++i)
        if (service.put("shed-probe-" + std::to_string(i), scratch,
                        {}) != ArchiveError::None) {
            server.stop();
            return false;
        }
    std::vector<VappClient> clients(burst);
    for (int i = 0; i < burst; ++i) {
        GetFramesRequest get;
        get.name = "shed-probe-" + std::to_string(i);
        get.conceal = true;
        if (!clients[i].connect("127.0.0.1", server.port()) ||
            !clients[i].send(Opcode::GetFrames,
                             serializeGetFramesRequest(get))) {
            server.stop();
            return false;
        }
    }
    double deadline = now() + 10;
    while (server.queueDepth() < static_cast<u64>(burst) &&
           now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    if (server.queueDepth() < static_cast<u64>(burst)) {
        server.stop();
        return false;
    }
    server.setDrainPaused(false);

    int ok = 0, degraded = 0;
    bool degraded_has_sheds = false;
    for (int i = 0; i < burst; ++i) {
        auto raw = clients[i].receive();
        if (!raw) {
            server.stop();
            return false;
        }
        GetFramesResponse response;
        if (!parseGetFramesResponse(raw->payload, response)) {
            server.stop();
            return false;
        }
        if (response.status == Status::Degraded) {
            ++degraded;
            degraded_has_sheds = response.streamsShed > 0 &&
                                 response.bytesShed > 0;
        } else if (response.status == Status::Ok) {
            ++ok;
        }
    }
    const u64 sheds = server.shedResponses();
    server.stop();
    return ok == burst - 1 && degraded == 1 &&
           degraded_has_sheds && sheds == 1;
}

// --- cold single-GOP GETs ----------------------------------------------

/** One video length's cold single-GOP GETs. */
struct ColdGopPoint
{
    int gops = 0;
    int gets = 0;
    double p50Us = 0;
    double framesPerGet = 0;
};

/**
 * Cold single-GOP GETs, one row per video length (1, 4 and 16 GOPs
 * of the encoder's default 48 frames, 64x64): @p gets GETs per row
 * over a server with the cache off, one client cycling through the
 * video's GOPs, so every GET misses and decodes one GOP's reference
 * closure. False when the server cannot start or a GET fails.
 */
bool
benchColdGop(int gets, std::vector<ColdGopPoint> &points)
{
    ArchiveService service(scratchPath() + ".cold_gop");
    std::remove(service.path().c_str());
    if (service.open() != ArchiveError::None)
        return false;
    const int lengths[] = {1, 4, 16};
    for (int gops : lengths) {
        SyntheticSpec spec = tinySpec(300 + static_cast<u64>(gops));
        spec.frames = 48 * gops;
        service.put(benchVideoName(static_cast<std::size_t>(gops)),
                    prepareVideo(generateSynthetic(spec),
                                 EncoderConfig{},
                                 EccAssignment::paperTable1()),
                    {});
    }
    VappServerConfig config;
    config.cacheBytes = 0;
    VappServer server(service, config);
    VappClient c;
    bool ok = server.start() && c.connect("127.0.0.1", server.port());
    auto &decoded = telemetry::globalRegistry().histogram(
        "codec.frames_decoded");
    for (int gops : lengths) {
        if (!ok)
            break;
        const u64 sum_before = decoded.sum();
        std::vector<double> us;
        for (int i = 0; i < gets && ok; ++i) {
            GetFramesRequest get;
            get.name = benchVideoName(static_cast<std::size_t>(gops));
            get.gop = static_cast<u32>(i % gops);
            const double t0 = now();
            auto r = c.getFrames(get);
            us.push_back((now() - t0) * 1e6);
            ok = r && r->status == Status::Ok;
        }
        std::sort(us.begin(), us.end());
        ColdGopPoint point;
        point.gops = gops;
        point.gets = gets;
        point.p50Us = percentile(us, 0.5);
        point.framesPerGet =
            static_cast<double>(decoded.sum() - sum_before) /
            static_cast<double>(std::max(gets, 1));
        points.push_back(point);
    }
    server.stop();
    std::remove(service.path().c_str());
    return ok;
}

// --- cluster mode (--shards N) -----------------------------------------

/** An in-process cluster: one archive + node + server per shard. */
struct ShardSet
{
    std::vector<std::unique_ptr<ArchiveService>> services;
    std::vector<std::unique_ptr<ClusterNode>> nodes;
    std::vector<std::unique_ptr<VappServer>> servers;
    std::vector<ClusterShard> shards;

    u32 replicas = 0;

    bool
    start(int count)
    {
        replicas = static_cast<u32>(std::min(2, count - 1));
        for (int i = 0; i < count; ++i) {
            std::string path = scratchPath() + ".shard" +
                               std::to_string(count) + "_" +
                               std::to_string(i);
            std::remove(path.c_str());
            services.push_back(
                std::make_unique<ArchiveService>(path));
            if (services.back()->open() != ArchiveError::None)
                return false;
            ClusterNodeConfig node;
            node.selfId = static_cast<u32>(i);
            node.replicas = replicas;
            nodes.push_back(std::make_unique<ClusterNode>(
                *services.back(), node));
            VappServerConfig config;
            config.cluster = nodes.back().get();
            servers.push_back(std::make_unique<VappServer>(
                *services.back(), config));
            if (!servers.back()->start())
                return false;
        }
        for (int i = 0; i < count; ++i)
            shards.push_back({static_cast<u32>(i), "127.0.0.1",
                              servers[static_cast<std::size_t>(i)]
                                  ->port()});
        for (auto &node : nodes)
            node->setTopology(shards, 1);
        return true;
    }

    /** Boot one more shard (id = current size) on a one-member
     * ring; the membership manager splices it in. */
    bool
    addOne()
    {
        const u32 id = static_cast<u32>(services.size());
        std::string path = scratchPath() + ".shard_join_" +
                           std::to_string(id);
        std::remove(path.c_str());
        services.push_back(std::make_unique<ArchiveService>(path));
        if (services.back()->open() != ArchiveError::None)
            return false;
        ClusterNodeConfig node;
        node.selfId = id;
        node.replicas = replicas;
        nodes.push_back(std::make_unique<ClusterNode>(
            *services.back(), node));
        VappServerConfig config;
        config.cluster = nodes.back().get();
        servers.push_back(std::make_unique<VappServer>(
            *services.back(), config));
        if (!servers.back()->start())
            return false;
        ClusterShard address = {id, "127.0.0.1",
                                servers.back()->port()};
        shards.push_back(address);
        nodes.back()->setTopology({address}, 1);
        return true;
    }

    std::vector<ManagedShard>
    managed(std::size_t count) const
    {
        std::vector<ManagedShard> out;
        for (std::size_t i = 0; i < count && i < nodes.size(); ++i)
            out.push_back({shards[i], nodes[i].get()});
        return out;
    }

    void
    stop()
    {
        for (auto &server : servers)
            if (server)
                server->stop();
        for (auto &service : services)
            if (service)
                std::remove(service->path().c_str());
    }
};

/** Mixed routed load: mostly GETs of stored videos cycling GOPs,
 * 1-in-8 a GET of a missing name — counts are schedule-fixed. */
void
clusterClientLoop(const std::vector<ClusterShard> &seeds, int client,
                  int ops, int videos, u32 gop_count,
                  ClientTally &tally)
{
    ClusterRouterConfig config;
    config.seeds = seeds;
    ClusterRouter router(config);
    for (int j = 0; j < ops; ++j) {
        GetFramesRequest get;
        if (j % 8 == 6) {
            get.name = "no-such-video";
            auto r = router.getFrames(get);
            if (!r)
                ++tally.lost;
            else if (r->status == Status::NotFound)
                ++tally.notFound;
            continue;
        }
        get.name = benchVideoName(
            static_cast<std::size_t>(client + j) %
            static_cast<std::size_t>(videos));
        get.gop = static_cast<u32>(j) % gop_count;
        double t0 = now();
        auto r = router.getFrames(get);
        double us = (now() - t0) * 1e6;
        if (!r)
            ++tally.lost;
        else if (r->status == Status::Ok ||
                 r->status == Status::Partial) {
            ++tally.getsOk;
            tally.getLatencyUs.push_back(us);
        }
    }
}

LoadPoint
benchClusterShardCount(const std::vector<ClusterShard> &seeds,
                       int connections, int ops, int videos,
                       u32 gop_count)
{
    std::vector<ClientTally> tallies(connections);
    std::vector<std::thread> threads;
    threads.reserve(connections);
    double t0 = now();
    for (int i = 0; i < connections; ++i)
        threads.emplace_back([&, i] {
            clusterClientLoop(seeds, i, ops, videos, gop_count,
                              tallies[i]);
        });
    for (std::thread &t : threads)
        t.join();
    return mergeTallies(connections, ops, now() - t0, tallies);
}

/** Routed GETs are byte-identical to a local read of the owner
 * shard's archive (the single-node contract, through the ring). */
bool
checkRoutedMatchesSingle(ShardSet &set, int videos)
{
    ClusterRouterConfig config;
    config.seeds = set.shards;
    ClusterRouter router(config);
    for (int i = 0; i < videos; ++i) {
        const std::string name = benchVideoName(i);
        const u32 owner = set.nodes[0]->ownerOf(name);
        ArchiveGetResult local = set.services[owner]->get(name);
        if (local.error != ArchiveError::None)
            return false;
        auto ranges = gopRanges(local.frameHeaders,
                                local.decoded.frames.size());
        for (std::size_t g = 0; g < ranges.size(); ++g) {
            GetFramesRequest get;
            get.name = name;
            get.gop = static_cast<u32>(g);
            auto r = router.getFrames(get);
            if (!r || r->status != Status::Ok)
                return false;
            Bytes expected = packFramesI420(
                local.decoded, ranges[g].firstFrame,
                ranges[g].frameCount);
            if (r->i420 != expected)
                return false;
        }
    }
    return true;
}

/** With the owner's precise record damaged, a routed GET must still
 * succeed by pulling the metadata replica back from a successor. */
bool
checkClusterMetaRepair(ShardSet &set)
{
    const std::string name = benchVideoName(0);
    const u32 owner = set.nodes[0]->ownerOf(name);
    if (!set.services[owner]->damageMetaForTest(name))
        return false;
    // A warm cache would mask the damaged record: force the read.
    set.servers[owner]->cache().clear();
    ClusterRouterConfig config;
    config.seeds = set.shards;
    ClusterRouter router(config);
    GetFramesRequest get;
    get.name = name;
    auto r = router.getFrames(get);
    if (!r || r->status != Status::Ok)
        return false;
    // The repair is durable: the owner reads clean again locally.
    return set.services[owner]->get(name).error ==
           ArchiveError::None;
}

/**
 * The budgeted scrub scheduler: after its learning sweep (per-video
 * costs unknown, may overshoot), every interval's corrected bits
 * must stay within the configured budget. Costs are measured first
 * with the same (BER, seed) the scheduler uses — the fixed seed
 * makes drift stationary, so predictions are exact.
 */
bool
checkScrubBudgetRespected(ShardSet &set)
{
    // Scrub the shard holding the most videos (ring placement may
    // leave small shards empty at bench scale).
    std::size_t shard = 0;
    for (std::size_t i = 1; i < set.services.size(); ++i)
        if (set.services[i]->videoCount() >
            set.services[shard]->videoCount())
            shard = i;
    ArchiveService &service = *set.services[shard];
    std::vector<std::string> names = service.videoNames();
    if (names.empty())
        return true;

    ScrubOptions options;
    options.ageRawBer = 1e-4;
    options.seed = 99;
    u64 total = 0, per_video_max = 0;
    for (const std::string &name : names) {
        ScrubReport report = service.scrubVideo(name, options);
        total += report.cells.bitsCorrected;
        per_video_max = std::max(per_video_max,
                                 report.cells.bitsCorrected);
    }

    ScrubSchedulerConfig config;
    config.ageRawBer = options.ageRawBer;
    config.seed = options.seed;
    config.correctionBudget =
        std::max<u64>(std::max<u64>(1, total / 2), per_video_max);
    ScrubScheduler scheduler(service, config);
    std::size_t guard = names.size() * 4 + 4;
    while (scheduler.videosScrubbed() < names.size() && guard-- > 0)
        scheduler.runInterval();
    for (int i = 0; i < 8; ++i) {
        const u64 before = scheduler.bitsCorrected();
        scheduler.runInterval();
        if (scheduler.bitsCorrected() - before >
            config.correctionBudget)
            return false;
    }
    return true;
}

struct ClusterResults
{
    /** One row per shard count (1 and N). */
    std::vector<std::pair<int, LoadPoint>> points;
    double speedup = 0;
    bool routedMatchesSingle = false;
    bool metaRepairOk = false;
    bool scrubBudgetRespected = false;
};

bool
runClusterSection(int shards, int ops, int videos,
                  const std::vector<PreparedVideo> &prepared,
                  ClusterResults &results)
{
    const int connections = 32;
    std::printf("\ncluster mode (%d shards, %d routed conns):\n",
                shards, connections);
    std::printf("%-8s %9s %11s %11s %11s %7s %9s %6s\n", "shards",
                "wall (s)", "ops/s", "p50 (us)", "p99 (us)", "gets",
                "notfound", "lost");
    for (int shard_count : {1, shards}) {
        ShardSet set;
        if (!set.start(shard_count)) {
            std::fprintf(stderr,
                         "error: cannot start %d-shard cluster\n",
                         shard_count);
            set.stop();
            return false;
        }
        // Placement-aware local puts (the wire PUT path is already
        // measured in the standard rows), then replicate metadata
        // exactly as a routed PUT would.
        for (int i = 0; i < videos; ++i) {
            const std::string name = benchVideoName(i);
            const u32 owner = set.nodes[0]->ownerOf(name);
            set.services[owner]->put(
                name, prepared[static_cast<std::size_t>(i)], {});
            set.nodes[owner]->replicateMeta(name);
        }
        // Warm every (video, GOP) so the load rows measure the
        // steady cache-hit serving state on every shard.
        u32 gop_count = 1;
        {
            ClusterRouterConfig config;
            config.seeds = set.shards;
            ClusterRouter router(config);
            for (int i = 0; i < videos; ++i) {
                GetFramesRequest get;
                get.name = benchVideoName(i);
                auto r = router.getFrames(get);
                if (!r || r->status != Status::Ok) {
                    set.stop();
                    return false;
                }
                gop_count = std::max<u32>(1, r->gopCount);
                for (u32 g = 1; g < r->gopCount; ++g) {
                    get.gop = g;
                    if (!router.getFrames(get)) {
                        set.stop();
                        return false;
                    }
                }
            }
        }
        LoadPoint point = benchClusterShardCount(
            set.shards, connections, ops, videos, gop_count);
        std::printf(
            "%-8d %9.3f %11.1f %11.1f %11.1f %7llu %9llu %6llu\n",
            shard_count, point.wallSeconds, point.opsPerSecond,
            point.getP50Us, point.getP99Us,
            static_cast<unsigned long long>(point.getsOk),
            static_cast<unsigned long long>(point.notFound),
            static_cast<unsigned long long>(point.responsesLost));
        results.points.emplace_back(shard_count, point);

        if (shard_count == shards) {
            results.routedMatchesSingle =
                checkRoutedMatchesSingle(set, videos);
            results.metaRepairOk = checkClusterMetaRepair(set);
            results.scrubBudgetRespected =
                checkScrubBudgetRespected(set);
        }
        set.stop();
    }
    const double single = results.points.front().second.opsPerSecond;
    const double multi = results.points.back().second.opsPerSecond;
    results.speedup = single > 0 ? multi / single : 0;
    std::printf("aggregate speedup vs single shard: %.2fx "
                "(soft, load-dependent)\n",
                results.speedup);
    std::printf("routed GET == owner-local read: %s\n",
                results.routedMatchesSingle ? "yes" : "NO (BUG)");
    std::printf("GET repairs damaged owner metadata: %s\n",
                results.metaRepairOk ? "yes" : "NO (BUG)");
    std::printf("scrub intervals stay under budget: %s\n",
                results.scrubBudgetRespected ? "yes" : "NO (BUG)");
    return true;
}

// --- resize mode (--shards N --resize) ---------------------------------

struct ResizeResults
{
    int shardsAfter = 0;
    int readers = 0;
    double transitionWallS = 0;
    u64 videosTotal = 0;
    u64 videosMoved = 0;
    u64 videosLost = 0;
    u64 readsOk = 0;
    u64 readGaps = 0;
    /** Hard flags the CI gate keys on. */
    bool noLostVideos = false;
    bool movedMatchesRingDiff = false;
    bool rebuildByteExact = false;
};

/**
 * Live resize under load: N shards serving concurrent routed reads
 * while a new shard joins and the migration engine moves records,
 * then a kill-and-rebuild of one shard. Hard outcomes: zero lost or
 * byte-mismatched videos, moved count equal to the ring diff, and a
 * byte-exact rebuild.
 */
bool
runResizeSection(int shards, int videos,
                 const std::vector<PreparedVideo> &prepared,
                 const std::vector<Video> &sources,
                 ResizeResults &results)
{
    results.shardsAfter = shards + 1;
    results.readers = 4;
    results.videosTotal = static_cast<u64>(videos);
    std::printf("\nresize mode (%d -> %d shards, %d readers):\n",
                shards, shards + 1, results.readers);

    ShardSet set;
    if (!set.start(shards)) {
        set.stop();
        return false;
    }
    for (int i = 0; i < videos; ++i) {
        const std::string name = benchVideoName(i);
        const u32 owner = set.nodes[0]->ownerOf(name);
        set.services[owner]->put(
            name, prepared[static_cast<std::size_t>(i)], {});
        set.nodes[owner]->replicateMeta(name);
    }

    // Reference bytes (GOP 0 of every video) pinned before any
    // membership change; every later read must reproduce them.
    std::vector<Bytes> refs(static_cast<std::size_t>(videos));
    {
        ClusterRouterConfig config;
        config.seeds = set.shards;
        ClusterRouter router(config);
        for (int i = 0; i < videos; ++i) {
            GetFramesRequest get;
            get.name = benchVideoName(i);
            auto r = router.getFrames(get);
            if (!r || r->status != Status::Ok) {
                set.stop();
                return false;
            }
            refs[static_cast<std::size_t>(i)] = std::move(r->i420);
        }
    }

    const std::vector<ClusterShard> seeds = set.shards;
    if (!set.addOne()) {
        set.stop();
        return false;
    }

    std::atomic<bool> stop{false};
    std::atomic<u64> reads_ok{0}, read_gaps{0}, mismatches{0};
    std::vector<std::thread> readers;
    for (int t = 0; t < results.readers; ++t)
        readers.emplace_back([&, t] {
            ClusterRouterConfig config;
            config.seeds = seeds;
            ClusterRouter router(config);
            std::size_t turn = static_cast<std::size_t>(t);
            while (!stop.load(std::memory_order_relaxed)) {
                const std::size_t i =
                    turn++ % static_cast<std::size_t>(videos);
                GetFramesRequest get;
                get.name = benchVideoName(i);
                auto r = router.getFrames(get);
                if (!r) {
                    read_gaps.fetch_add(
                        1, std::memory_order_relaxed);
                    continue;
                }
                if (r->status != Status::Ok)
                    continue;
                if (r->i420 == refs[i])
                    reads_ok.fetch_add(1,
                                       std::memory_order_relaxed);
                else
                    mismatches.fetch_add(
                        1, std::memory_order_relaxed);
            }
        });

    RebalanceConfig rebalance;
    rebalance.replicas = set.replicas;
    MembershipManager manager(
        set.managed(static_cast<std::size_t>(shards)), 1,
        rebalance);
    double t0 = now();
    MigrationReport report = manager.addShard(
        {set.shards[static_cast<std::size_t>(shards)],
         set.nodes[static_cast<std::size_t>(shards)].get()});
    results.transitionWallS = now() - t0;
    stop.store(true, std::memory_order_relaxed);
    for (std::thread &t : readers)
        t.join();

    results.videosMoved =
        report.movedRecords + report.skippedRecords;
    results.readsOk = reads_ok.load();
    results.readGaps = read_gaps.load();
    results.movedMatchesRingDiff =
        report.ok() && report.plannedMoves == report.predictedMoves &&
        results.videosMoved == report.plannedMoves;

    // Quiesced verification: every video present and byte-exact
    // through a fresh router over the grown ring.
    u64 lost = mismatches.load();
    {
        ClusterRouterConfig config;
        config.seeds = set.shards;
        ClusterRouter router(config);
        for (int i = 0; i < videos; ++i) {
            GetFramesRequest get;
            get.name = benchVideoName(i);
            auto r = router.getFrames(get);
            if (!r || r->status != Status::Ok ||
                r->i420 != refs[static_cast<std::size_t>(i)])
                ++lost;
        }
    }
    results.videosLost = lost;
    results.noLostVideos = lost == 0;

    // Kill-and-rebuild: lose one shard's archive outright, boot a
    // replacement under the same id, and re-populate it from the
    // surviving replicas + re-encoded origins.
    const u32 victim = set.nodes.back()->ownerOf(benchVideoName(0));
    set.servers[victim]->stop();
    set.servers[victim].reset();
    set.nodes[victim].reset();
    std::string lost_path = set.services[victim]->path();
    set.services[victim].reset();
    std::remove(lost_path.c_str());

    std::string fresh_path = scratchPath() + ".shard_rebuild";
    std::remove(fresh_path.c_str());
    set.services[victim] =
        std::make_unique<ArchiveService>(fresh_path);
    bool rebuild_ok =
        set.services[victim]->open() == ArchiveError::None;
    if (rebuild_ok) {
        ClusterNodeConfig node;
        node.selfId = victim;
        node.replicas = set.replicas;
        set.nodes[victim] = std::make_unique<ClusterNode>(
            *set.services[victim], node);
        VappServerConfig config;
        config.cluster = set.nodes[victim].get();
        set.servers[victim] = std::make_unique<VappServer>(
            *set.services[victim], config);
        rebuild_ok = set.servers[victim]->start();
    }
    if (rebuild_ok) {
        set.shards[victim] = {victim, "127.0.0.1",
                              set.servers[victim]->port()};
        set.nodes[victim]->setTopology({set.shards[victim]}, 1);
        RebuildReport rebuilt = manager.rebuildShard(
            {set.shards[victim], set.nodes[victim].get()},
            [&](const std::string &name, Video &video, Bytes &) {
                for (int i = 0; i < videos; ++i)
                    if (name == benchVideoName(i)) {
                        video =
                            sources[static_cast<std::size_t>(i)];
                        return true;
                    }
                return false;
            });
        rebuild_ok = rebuilt.ok();
        if (rebuild_ok) {
            ClusterRouterConfig config;
            config.seeds = set.shards;
            ClusterRouter router(config);
            for (int i = 0; i < videos && rebuild_ok; ++i) {
                GetFramesRequest get;
                get.name = benchVideoName(i);
                auto r = router.getFrames(get);
                rebuild_ok =
                    r && r->status == Status::Ok &&
                    r->i420 == refs[static_cast<std::size_t>(i)];
            }
        }
    }
    results.rebuildByteExact = rebuild_ok;
    set.stop();

    std::printf("%-8s %9s %8s %7s %6s %9s %9s\n", "shards",
                "wall (s)", "videos", "moved", "lost", "reads ok",
                "gaps");
    std::printf(
        "%-8d %9.3f %8llu %7llu %6llu %9llu %9llu\n",
        results.shardsAfter, results.transitionWallS,
        static_cast<unsigned long long>(results.videosTotal),
        static_cast<unsigned long long>(results.videosMoved),
        static_cast<unsigned long long>(results.videosLost),
        static_cast<unsigned long long>(results.readsOk),
        static_cast<unsigned long long>(results.readGaps));
    std::printf("no lost or mismatched videos: %s\n",
                results.noLostVideos ? "yes" : "NO (BUG)");
    std::printf("moved == ring diff prediction: %s\n",
                results.movedMatchesRingDiff ? "yes" : "NO (BUG)");
    std::printf("killed shard rebuilt byte-exact: %s\n",
                results.rebuildByteExact ? "yes" : "NO (BUG)");
    return true;
}

std::string
outputPath()
{
    if (const char *out = std::getenv("VIDEOAPP_BENCH_OUT"))
        return out;
    return "BENCH_server.json";
}

void
writeRows(std::FILE *f, const std::vector<LoadPoint> &points)
{
    for (std::size_t i = 0; i < points.size(); ++i) {
        const LoadPoint &p = points[i];
        std::fprintf(
            f,
            "    {\"threads\": %d, \"wall_s\": %.6f, "
            "\"ops_per_s\": %.3f, \"get_p50_us\": %.1f, "
            "\"get_p99_us\": %.1f, \"gets_ok\": %llu, "
            "\"puts_ok\": %llu, \"scrubs_ok\": %llu, "
            "\"not_found\": %llu, \"responses_lost\": %llu}%s\n",
            p.connections, p.wallSeconds, p.opsPerSecond, p.getP50Us,
            p.getP99Us, static_cast<unsigned long long>(p.getsOk),
            static_cast<unsigned long long>(p.putsOk),
            static_cast<unsigned long long>(p.scrubsOk),
            static_cast<unsigned long long>(p.notFound),
            static_cast<unsigned long long>(p.responsesLost),
            i + 1 < points.size() ? "," : "");
    }
}

bool
writeJson(const BenchConfig &config,
          const std::vector<LoadPoint> &points,
          const std::vector<LoadPoint> &skewed,
          const std::vector<ShedPoint> &shed,
          double shed_p99_speedup, int ops_per_client,
          bool all_accounted, bool wire_matches_local,
          bool cache_hit_skips_decode, bool backpressure_retry,
          bool coalescing_single_flight, bool shed_disabled_clean,
          bool shed_pressure_ok,
          const std::vector<ColdGopPoint> &cold_gop,
          const ClusterResults *cluster, const ResizeResults *resize)
{
    const std::string path = outputPath();
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr,
                     "error: cannot write bench results to '%s': %s\n"
                     "(set VIDEOAPP_BENCH_OUT to a writable path)\n",
                     path.c_str(), std::strerror(errno));
        return false;
    }
    std::fprintf(f, "{\n  \"bench\": \"perf_server\",\n");
    std::fprintf(f,
                 "  \"config\": {\"scale\": %.3f, \"runs\": %d, "
                 "\"videos\": %d, \"ops_per_client\": %d},\n",
                 config.scale, config.runs, config.videos,
                 ops_per_client);
    std::fprintf(f, "  \"threads\": [\n");
    writeRows(f, points);
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"skewed\": [\n");
    writeRows(f, skewed);
    std::fprintf(f, "  ],\n");
    // Shed rows are keyed by shed threshold in their "threads"
    // field (the row key the regression checker indexes by);
    // fidelity splits and latency are load-dependent and soft.
    std::fprintf(f, "  \"shed\": [\n");
    for (std::size_t i = 0; i < shed.size(); ++i) {
        const ShedPoint &p = shed[i];
        std::fprintf(
            f,
            "    {\"threads\": %d, \"conns\": 32, "
            "\"wall_s\": %.6f, \"ops_per_s\": %.3f, "
            "\"get_p50_us\": %.1f, \"get_p99_us\": %.1f, "
            "\"full_p99_us\": %.1f, \"answered\": %llu, "
            "\"full_fidelity\": %llu, \"degraded\": %llu, "
            "\"streams_shed\": %llu, \"responses_lost\": %llu}%s\n",
            p.threshold, p.wallSeconds, p.opsPerSecond, p.p50Us,
            p.p99Us, p.fullP99Us,
            static_cast<unsigned long long>(p.answered),
            static_cast<unsigned long long>(p.fullFidelity),
            static_cast<unsigned long long>(p.degraded),
            static_cast<unsigned long long>(p.streamsShed),
            static_cast<unsigned long long>(p.lost),
            i + 1 < shed.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"shed_p99_speedup_vs_noshed\": %.3f,\n",
                 shed_p99_speedup);
    std::fprintf(f, "  \"shed_disabled_never_degrades\": %s,\n",
                 shed_disabled_clean ? "true" : "false");
    std::fprintf(f, "  \"shed_under_pressure_degrades_tail\": %s,\n",
                 shed_pressure_ok ? "true" : "false");
    // Cold single-GOP rows are keyed by video length in GOPs in
    // their "threads" field; latency and frames decoded per GET are
    // soft.
    std::fprintf(f, "  \"cold_gop\": [\n");
    for (std::size_t i = 0; i < cold_gop.size(); ++i) {
        const ColdGopPoint &p = cold_gop[i];
        std::fprintf(f,
                     "    {\"threads\": %d, \"gets\": %d, "
                     "\"get_p50_us\": %.1f, \"frames_per_get\": %.2f}"
                     "%s\n",
                     p.gops, p.gets, p.p50Us, p.framesPerGet,
                     i + 1 < cold_gop.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    if (cluster != nullptr) {
        // Cluster rows are keyed by shard count in their "threads"
        // field (the row key the regression checker indexes by);
        // "conns" records the constant routed-client count.
        std::fprintf(f, "  \"cluster\": [\n");
        for (std::size_t i = 0; i < cluster->points.size(); ++i) {
            const auto &[shard_count, p] = cluster->points[i];
            std::fprintf(
                f,
                "    {\"threads\": %d, \"conns\": %d, "
                "\"wall_s\": %.6f, \"ops_per_s\": %.3f, "
                "\"get_p50_us\": %.1f, \"get_p99_us\": %.1f, "
                "\"gets_ok\": %llu, \"not_found\": %llu, "
                "\"responses_lost\": %llu}%s\n",
                shard_count, p.connections, p.wallSeconds,
                p.opsPerSecond, p.getP50Us, p.getP99Us,
                static_cast<unsigned long long>(p.getsOk),
                static_cast<unsigned long long>(p.notFound),
                static_cast<unsigned long long>(p.responsesLost),
                i + 1 < cluster->points.size() ? "," : "");
        }
        std::fprintf(f, "  ],\n");
        std::fprintf(f,
                     "  \"cluster_speedup_vs_single\": %.3f,\n",
                     cluster->speedup);
        std::fprintf(f,
                     "  \"cluster_routed_get_matches_single\": "
                     "%s,\n",
                     cluster->routedMatchesSingle ? "true"
                                                  : "false");
        std::fprintf(f, "  \"cluster_meta_repair_get_ok\": %s,\n",
                     cluster->metaRepairOk ? "true" : "false");
        std::fprintf(f,
                     "  \"cluster_scrub_budget_respected\": %s,\n",
                     cluster->scrubBudgetRespected ? "true"
                                                   : "false");
    }
    if (resize != nullptr) {
        // The resize row is keyed by the post-transition shard
        // count in its "threads" field (the regression checker's
        // row key); video totals are schedule-fixed and hard, the
        // concurrent read tallies drift with the runner.
        std::fprintf(
            f,
            "  \"resize\": [\n"
            "    {\"threads\": %d, \"conns\": %d, "
            "\"wall_s\": %.6f, \"videos_total\": %llu, "
            "\"videos_moved\": %llu, \"videos_lost\": %llu, "
            "\"reads_ok\": %llu, \"read_gaps\": %llu}\n  ],\n",
            resize->shardsAfter, resize->readers,
            resize->transitionWallS,
            static_cast<unsigned long long>(resize->videosTotal),
            static_cast<unsigned long long>(resize->videosMoved),
            static_cast<unsigned long long>(resize->videosLost),
            static_cast<unsigned long long>(resize->readsOk),
            static_cast<unsigned long long>(resize->readGaps));
        std::fprintf(f, "  \"resize_no_lost_videos\": %s,\n",
                     resize->noLostVideos ? "true" : "false");
        std::fprintf(f,
                     "  \"resize_moved_matches_ring_diff\": %s,\n",
                     resize->movedMatchesRingDiff ? "true"
                                                  : "false");
        std::fprintf(f, "  \"resize_rebuild_byte_exact\": %s,\n",
                     resize->rebuildByteExact ? "true" : "false");
    }
    std::fprintf(f, "  \"responses_all_accounted\": %s,\n",
                 all_accounted ? "true" : "false");
    std::fprintf(f, "  \"wire_matches_local\": %s,\n",
                 wire_matches_local ? "true" : "false");
    std::fprintf(f, "  \"cache_hit_skips_decode\": %s,\n",
                 cache_hit_skips_decode ? "true" : "false");
    std::fprintf(f, "  \"backpressure_returns_retry\": %s,\n",
                 backpressure_retry ? "true" : "false");
    std::fprintf(f, "  \"coalescing_single_flight\": %s,\n",
                 coalescing_single_flight ? "true" : "false");
    std::string telemetry =
        telemetry::globalRegistry().snapshotJson(2);
    std::fprintf(f, "  \"telemetry\": %s\n}\n", telemetry.c_str());
    if (std::fclose(f) != 0) {
        std::fprintf(stderr, "error: failed to flush '%s': %s\n",
                     path.c_str(), std::strerror(errno));
        return false;
    }
    return true;
}

bool
run(const BenchConfig &config, int shards, bool resize)
{
    telemetry::globalRegistry().resetAll();

    const int videos = std::max(1, config.videos);
    const int ops = std::max(4, config.runs * 4);
    auto suite = standardSuite(config.scale);
    std::vector<Video> sources;
    std::vector<PreparedVideo> prepared;
    std::vector<PutRequest> put_templates;
    for (int i = 0; i < videos; ++i) {
        sources.push_back(generateSynthetic(
            suite[static_cast<std::size_t>(i) % suite.size()]));
        prepared.push_back(prepareVideo(sources.back(),
                                        EncoderConfig{},
                                        EccAssignment::paperTable1()));
        PutRequest put;
        put.width = static_cast<u16>(sources.back().width());
        put.height = static_cast<u16>(sources.back().height());
        put.frameCount =
            static_cast<u32>(sources.back().frames.size());
        put.i420 = packFramesI420(sources.back(), 0,
                                  sources.back().frames.size());
        put_templates.push_back(std::move(put));
    }

    ArchiveService service(scratchPath());
    std::remove(service.path().c_str());
    if (service.open() != ArchiveError::None) {
        std::fprintf(stderr, "error: cannot open scratch archive\n");
        return false;
    }
    for (int i = 0; i < videos; ++i)
        service.put(benchVideoName(i), prepared[i], {});

    VappServerConfig server_config;
    server_config.workers = 4;
    server_config.queueCapacity = 256;
    VappServer server(service, server_config);
    if (!server.start()) {
        std::fprintf(stderr, "error: cannot start server: %s\n",
                     std::strerror(errno));
        return false;
    }
    const u16 port = server.port();

    // One warm pass discovers the GOP count and fills the cache so
    // the load rows measure the steady serving state.
    u32 gop_count = 1;
    {
        VappClient c;
        if (!c.connect("127.0.0.1", port))
            return false;
        for (int i = 0; i < videos; ++i) {
            GetFramesRequest get;
            get.name = benchVideoName(i);
            auto r = c.getFrames(get);
            if (!r || r->status != Status::Ok)
                return false;
            gop_count = std::max<u32>(1, r->gopCount);
        }
    }

    auto printRow = [](const LoadPoint &p) {
        std::printf(
            "%-8d %9.3f %11.1f %11.1f %11.1f %7llu %7llu %7llu "
            "%9llu %6llu\n",
            p.connections, p.wallSeconds, p.opsPerSecond, p.getP50Us,
            p.getP99Us, static_cast<unsigned long long>(p.getsOk),
            static_cast<unsigned long long>(p.putsOk),
            static_cast<unsigned long long>(p.scrubsOk),
            static_cast<unsigned long long>(p.notFound),
            static_cast<unsigned long long>(p.responsesLost));
    };
    std::printf("%-8s %9s %11s %11s %11s %7s %7s %7s %9s %6s\n",
                "conns", "wall (s)", "ops/s", "p50 (us)", "p99 (us)",
                "gets", "puts", "scrubs", "notfound", "lost");
    std::vector<LoadPoint> points;
    for (int n : {16, 64}) {
        points.push_back(benchOneConnectionCount(
            port, n, ops, videos, gop_count, put_templates));
        printRow(points.back());
    }

    std::printf("\nskewed hot-key load (90%% one GOP):\n");
    std::vector<LoadPoint> skewed;
    for (int n : {64, 256}) {
        skewed.push_back(benchSkewedConnectionCount(
            port, n, ops, videos, gop_count));
        printRow(skewed.back());
    }

    bool all_accounted = true;
    for (const LoadPoint &p : points)
        if (p.responsesLost != 0)
            all_accounted = false;
    for (const LoadPoint &p : skewed)
        if (p.responsesLost != 0)
            all_accounted = false;
    std::printf("\nevery request answered: %s\n",
                all_accounted ? "yes" : "NO (BUG)");

    bool wire_matches_local =
        checkWireMatchesLocal(service, port, videos);
    std::printf("wire frames == local service get: %s\n",
                wire_matches_local ? "yes" : "NO (BUG)");

    bool cache_hit = checkCacheHitSkipsDecode(server, port);
    std::printf("cache hit skips the read path: %s\n",
                cache_hit ? "yes" : "NO (BUG)");

    bool coalescing = checkSingleFlightCoalesces(server, port);
    std::printf("concurrent cold GETs decode once: %s\n",
                coalescing ? "yes" : "NO (BUG)");

    server.stop();

    bool backpressure = checkBackpressureReturnsRetry(service);
    std::printf("full queue answers Retry: %s\n",
                backpressure ? "yes" : "NO (BUG)");

    // Importance-aware shedding: the same overloaded GET load with
    // shedding off and on. Cache off + tiny queue = real admission
    // pressure; fidelity splits are load-dependent (soft in the
    // baseline), answered/lost are schedule-fixed (hard).
    std::printf("\nshed mode (cache off, 8-deep queue, 32 conns):\n");
    std::printf("%-10s %9s %11s %11s %11s %11s %9s %9s %7s %6s\n",
                "threshold", "wall (s)", "ops/s", "p50 (us)",
                "p99 (us)", "full p99", "full", "degraded", "shed",
                "lost");
    std::vector<ShedPoint> shed_points;
    // Longer than the standard rows: the fidelity split and the tail
    // percentiles need enough samples to mean anything.
    const int shed_ops = ops * 4;
    for (int threshold : {0, 1}) {
        shed_points.push_back(benchShedMode(
            service, threshold, 32, shed_ops, prepared[0],
            gop_count));
        const ShedPoint &p = shed_points.back();
        std::printf(
            "%-10d %9.3f %11.1f %11.1f %11.1f %11.1f %9llu %9llu "
            "%7llu %6llu\n",
            p.threshold, p.wallSeconds, p.opsPerSecond, p.p50Us,
            p.p99Us, p.fullP99Us,
            static_cast<unsigned long long>(p.fullFidelity),
            static_cast<unsigned long long>(p.degraded),
            static_cast<unsigned long long>(p.streamsShed),
            static_cast<unsigned long long>(p.lost));
    }
    // The shed trade: requests that keep full fidelity (all of the
    // high-importance content) should see a better tail than the
    // same load with shedding off.
    const double shed_p99_speedup =
        shed_points[1].fullP99Us > 0
            ? shed_points[0].p99Us / shed_points[1].fullP99Us
            : 0;
    std::printf("full-fidelity p99 speedup with shedding on: %.2fx "
                "(soft, load-dependent)\n",
                shed_p99_speedup);
    bool shed_disabled_clean = shed_points[0].degraded == 0 &&
                               shed_points[0].shedResponses == 0;
    std::printf("threshold 0 never degrades: %s\n",
                shed_disabled_clean ? "yes" : "NO (BUG)");
    bool shed_pressure_ok =
        checkShedUnderPressure(service, prepared[0]);
    std::printf("saturated queue sheds exactly the tail: %s\n",
                shed_pressure_ok ? "yes" : "NO (BUG)");

    std::remove(service.path().c_str());

    std::printf("\ncold single-GOP GET (cache off, 64x64, 48-frame "
                "GOPs):\n");
    std::printf("%-8s %7s %11s %11s\n", "gops", "gets", "p50 (us)",
                "frames/get");
    std::vector<ColdGopPoint> cold_gop;
    const bool cold_gop_ok = benchColdGop(ops * 2, cold_gop);
    for (const ColdGopPoint &p : cold_gop)
        std::printf("%-8d %7d %11.1f %11.2f\n", p.gops, p.gets,
                    p.p50Us, p.framesPerGet);
    if (!cold_gop_ok)
        std::printf("cold single-GOP GETs: FAILED (BUG)\n");

    ClusterResults cluster;
    bool cluster_ok = true;
    if (shards > 1) {
        const int cluster_ops = std::max(64, ops * 8);
        cluster_ok = runClusterSection(shards, cluster_ops, videos,
                                       prepared, cluster);
        if (cluster_ok)
            cluster_ok = cluster.routedMatchesSingle &&
                         cluster.metaRepairOk &&
                         cluster.scrubBudgetRespected;
    }

    ResizeResults resize_results;
    bool resize_ok = true;
    if (resize && shards > 1) {
        resize_ok = runResizeSection(shards, videos, prepared,
                                     sources, resize_results);
        if (resize_ok)
            resize_ok = resize_results.noLostVideos &&
                        resize_results.movedMatchesRingDiff &&
                        resize_results.rebuildByteExact;
    }

    if (!writeJson(config, points, skewed, shed_points,
                   shed_p99_speedup, ops, all_accounted,
                   wire_matches_local, cache_hit, backpressure,
                   coalescing, shed_disabled_clean, shed_pressure_ok,
                   cold_gop,
                   shards > 1 && !cluster.points.empty() ? &cluster
                                                         : nullptr,
                   resize && shards > 1 ? &resize_results
                                        : nullptr))
        return false;
    std::printf("wrote %s\n", outputPath().c_str());
    return all_accounted && wire_matches_local && cache_hit &&
           backpressure && coalescing && shed_disabled_clean &&
           shed_pressure_ok && cold_gop_ok && cluster_ok && resize_ok;
}

} // namespace
} // namespace videoapp

int
main(int argc, char **argv)
{
    using namespace videoapp;
    int shards = 1;
    bool resize = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
            shards = std::atoi(argv[++i]);
        } else if (std::strcmp(argv[i], "--resize") == 0) {
            resize = true;
        } else {
            std::fprintf(
                stderr,
                "usage: perf_server [--shards N] [--resize]\n");
            return 2;
        }
    }
    if (shards < 1) {
        std::fprintf(stderr, "error: --shards wants N >= 1\n");
        return 2;
    }
    if (resize && shards < 2) {
        std::fprintf(stderr,
                     "error: --resize wants --shards N >= 2\n");
        return 2;
    }
    BenchConfig config = BenchConfig::fromEnv();
    printBenchBanner(
        "perf: VAPP store server (loopback load)", config);
    return run(config, shards, resize) ? 0 : 1;
}
