/**
 * @file
 * vappbench: the repository benchmark.
 *
 *   vappbench --workload <cold_seek|playback_ingest|routed_mixed>
 *             --seed <n> --seconds <s> --trace <0|1>
 *
 * Starts the VAPP server (or a three-shard cluster) in-process on
 * loopback, loads an AES-CTR library, and drives one closed-loop
 * workload from this process. Every response is checked against the
 * load process's own reference data (media.h). The last line of
 * stdout is one JSON object: correct, attempted, failed and the
 * metrics — the end-to-end set with --trace 0, the per-layer set
 * (trace.h) with --trace 1. Human-readable detail goes to stderr,
 * spans to .bench_out/.
 *
 * Each load thread follows a seeded sequence of rounds (a pure
 * function of the seed) and stops at the first round boundary after
 * --seconds: the same seed always makes the same requests in the same
 * order, and only how far a run gets depends on the host's speed.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <latch>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "archive/archive_service.h"
#include "cluster/cluster_node.h"
#include "cluster/cluster_router.h"
#include "common/rng.h"
#include "common/parallel.h"
#include "common/telemetry.h"
#include "media.h"
#include "server/vapp_client.h"
#include "server/vapp_server.h"
#include "simd/dispatch.h"
#include "trace.h"

namespace vappbench {
namespace {

using namespace videoapp;

constexpr const char *kOutDir = ".bench_out";
/** Set-ups per run; setup_s is their median. */
constexpr int kSetupReps = 3;
constexpr int kReplicas = 2;

// --- request plans -----------------------------------------------------

struct Entry
{
    std::string name;
    int master = 0;
};

struct Op
{
    /** First op of a round: a thread stops here once the run's
     * --seconds have passed, so every run makes whole rounds. */
    bool round = false;
    bool put = false;
    /** GET: library entry and GOP. */
    int entry = -1;
    u32 gop = 0;
    /** GET at the 1e-3 design point with this injection seed. */
    bool aged = false;
    u64 seed = 0;
    /** PUT: ingest source and the fresh name it is stored under. */
    int clip = -1;
    std::string name;
    /** --trace 1 replays this request (when a GET, if it missed). */
    bool traced = false;
};

struct Plan
{
    std::vector<Entry> library;
    /** One op list per load thread: a seeded sequence of rounds,
     * longer than any run gets through. */
    std::vector<std::vector<Op>> threads;
    /** Index of the thread whose PUTs set ingest_frames_per_s. */
    int writer = 0;
    /** Threads whose GETs set get_rps (the others only write). */
    std::vector<int> readers;
    int shards = 1;
};

/**
 * Rounds to generate for @p seconds at @p per_second, the nominal
 * rate on a 4-vCPU host, with threefold headroom: a run ends on time,
 * not when its plan runs out.
 */
int
planRounds(int seconds, double per_second)
{
    return std::max(1, static_cast<int>(std::ceil(3.0 * seconds *
                                                  per_second)));
}

template <typename T>
void
shuffle(std::vector<T> &items, Rng &rng)
{
    for (std::size_t i = items.size(); i > 1; --i)
        std::swap(items[i - 1], items[rng.nextBelow(i)]);
}

Op
putOp(int index, bool traced)
{
    Op op;
    op.put = true;
    op.clip = index % kClips;
    char name[32];
    std::snprintf(name, sizeof name, "ingest-%05d", index);
    op.name = name;
    op.traced = traced;
    return op;
}

/**
 * cold_seek: four readers, each seeking at random over its own 24
 * names (no two in-flight reads share a video). A round reads 12 of
 * them — one each of 1, 2, 3, 5, 6 and 7 GOPs, four of 4 GOPs, two of
 * 8 GOPs — in seeded order, so the mix of video lengths is exact: p50
 * falls among the 4-GOP reads and p90 among the 8-GOP ones, away
 * from the steps between lengths. Every 8th read is aged at 1e-3.
 * Thread 0 also PUTs a clip after every 4th read.
 */
Plan
coldSeekPlan(u64 seed, int seconds)
{
    static const int kMix[] = {0, 1, 2, 3, 3, 3, 3, 4, 5, 6, 7, 7};
    constexpr int kThreads = 4;
    constexpr int kReadsPerPut = 4;
    Plan plan;
    plan.threads.resize(kThreads);
    plan.writer = 0;
    plan.readers = {0, 1, 2, 3};
    const int rounds = planRounds(seconds, 0.7);
    int puts = 0;
    for (int t = 0; t < kThreads; ++t) {
        // Two names per mix slot; rounds alternate between the copies.
        std::vector<int> own[2];
        for (auto &copy : own)
            for (int m : kMix) {
                char name[32];
                std::snprintf(name, sizeof name, "cold-%d-%02zu", t,
                              plan.library.size() % 24);
                copy.push_back(static_cast<int>(plan.library.size()));
                plan.library.push_back({name, m});
            }
        Rng rng(Rng::deriveSeed(seed, static_cast<u64>(t)));
        Rng sample(Rng::deriveSeed(seed, 100 + static_cast<u64>(t)));
        int reads = 0;
        for (int r = 0; r < rounds; ++r) {
            std::vector<int> order = own[r % 2];
            shuffle(order, rng);
            for (std::size_t k = 0; k < order.size(); ++k) {
                Op op;
                op.round = k == 0;
                op.entry = order[k];
                const int gops =
                    plan.library[static_cast<std::size_t>(op.entry)]
                        .master +
                    1;
                op.gop = static_cast<u32>(rng.nextBelow(gops));
                op.aged = reads % 8 == 7;
                op.seed = rng.next();
                op.traced = sample.nextBelow(3) == 0;
                plan.threads[t].push_back(op);
                if (t == plan.writer &&
                    reads % kReadsPerPut == kReadsPerPut - 1)
                    plan.threads[t].push_back(putOp(puts++, true));
                ++reads;
            }
        }
    }
    return plan;
}

/**
 * playback_ingest: three viewers play their own four videos (1-4
 * GOPs; the 30-GOP library fits the GOP cache) GOP 0..n-1 in seeded
 * order, one play per round, while a fourth thread PUTs clips back to
 * back.
 */
Plan
playbackPlan(u64 seed, int seconds)
{
    constexpr int kViewers = 3;
    Plan plan;
    plan.threads.resize(kViewers + 1);
    plan.writer = kViewers;
    const int passes = planRounds(seconds, 17.5);
    for (int v = 0; v < kViewers; ++v) {
        plan.readers.push_back(v);
        std::vector<int> own;
        for (int m = 0; m < 4; ++m) {
            char name[32];
            std::snprintf(name, sizeof name, "play-%d-%d", v, m);
            own.push_back(static_cast<int>(plan.library.size()));
            plan.library.push_back({name, m});
        }
        Rng rng(Rng::deriveSeed(seed, static_cast<u64>(v)));
        for (int p = 0; p < passes; ++p) {
            std::vector<int> order = own;
            shuffle(order, rng);
            for (int entry : order) {
                const int gops =
                    plan.library[static_cast<std::size_t>(entry)].master +
                    1;
                for (int g = 0; g < gops; ++g) {
                    Op op;
                    op.round = g == 0;
                    op.entry = entry;
                    op.gop = static_cast<u32>(g);
                    // Misses are few here (first plays): trace them all.
                    op.traced = true;
                    plan.threads[v].push_back(op);
                }
            }
        }
    }
    const int puts = planRounds(seconds, 6.5);
    for (int i = 0; i < puts; ++i) {
        Op op = putOp(i, i % 4 == 0);
        op.round = true;
        plan.threads[plan.writer].push_back(op);
    }
    return plan;
}

/**
 * routed_mixed: four load threads, each with its own ClusterRouter
 * over three shards. A round of one thread is C H H H H C H H H H H:
 * two cold seeks and nine hot replays of the thread's last exactly
 * read name; thread 0 ends each round with a PUT. Each thread owns 48
 * names, four per slot of a 12-cold mix (one each of 1, 2, 3 and 5-8
 * GOPs, five of 4 GOPs), and takes its colds from them one seeded mix
 * at a time, rotating copies; between two reads of a name the threads
 * insert about five times the three caches' capacity, so a cold seek
 * misses. Every 6th cold is aged. p50 is then a hot replay and p90
 * falls among the 4-GOP colds. (One router thread, the first design,
 * moved with the host's per-CPU steal: its spreads were twice
 * cold_seek's.)
 */
Plan
routedPlan(u64 seed, int seconds)
{
    static const int kMix[] = {0, 1, 2, 3, 3, 3, 3, 3, 4, 5, 6, 7};
    static const char kRound[] = "CHHHHCHHHHH";
    constexpr int kThreads = 4;
    constexpr int kCopies = 4;
    Plan plan;
    plan.shards = 3;
    plan.threads.resize(kThreads);
    plan.writer = 0;
    plan.readers = {0, 1, 2, 3};
    const int rounds = planRounds(seconds, 3.5);
    int puts = 0;
    for (int t = 0; t < kThreads; ++t) {
        std::vector<int> own[kCopies];
        for (auto &copy : own)
            for (int m : kMix) {
                char name[32];
                std::snprintf(name, sizeof name, "route-%d-%02zu", t,
                              plan.library.size() % 48);
                copy.push_back(static_cast<int>(plan.library.size()));
                plan.library.push_back({name, m});
            }
        Rng rng(Rng::deriveSeed(seed, static_cast<u64>(t)));
        Rng sample(Rng::deriveSeed(seed, 100 + static_cast<u64>(t)));
        std::vector<int> mix;
        int colds = 0;
        int last_exact = -1;
        for (int r = 0; r < rounds; ++r) {
            for (const char *k = kRound; *k; ++k) {
                Op op;
                op.round = k == kRound;
                if (*k == 'H') {
                    op.entry = last_exact;
                } else {
                    if (mix.empty()) {
                        mix = own[(colds / 12) % kCopies];
                        shuffle(mix, rng);
                    }
                    op.entry = mix.back();
                    mix.pop_back();
                    op.aged = colds++ % 6 == 5;
                    op.seed = rng.next();
                    if (!op.aged)
                        last_exact = op.entry;
                }
                const int gops =
                    plan.library[static_cast<std::size_t>(op.entry)]
                        .master +
                    1;
                op.gop = static_cast<u32>(rng.nextBelow(gops));
                op.traced = sample.nextBelow(2) == 0;
                plan.threads[t].push_back(op);
            }
            if (t == plan.writer)
                plan.threads[t].push_back(putOp(puts++, true));
        }
    }
    return plan;
}

// --- the system under test ---------------------------------------------

/** One server, or a ring of cluster shards, on loopback. */
struct Stack
{
    std::vector<std::unique_ptr<ArchiveService>> services;
    std::vector<std::unique_ptr<ClusterNode>> nodes;
    std::vector<std::unique_ptr<VappServer>> servers;
    std::vector<ClusterShard> shards;

    bool
    start(int count, const std::string &tag)
    {
        for (int i = 0; i < count; ++i) {
            // Never flushed: the archive lives in memory only.
            services.push_back(std::make_unique<ArchiveService>(
                std::string(kOutDir) + "/" + tag + "-" +
                std::to_string(i) + ".vapp"));
            if (services.back()->open() != ArchiveError::None)
                return false;
            VappServerConfig config;
            if (count > 1) {
                ClusterNodeConfig node;
                node.selfId = static_cast<u32>(i);
                node.replicas = kReplicas;
                nodes.push_back(std::make_unique<ClusterNode>(
                    *services.back(), node));
                config.cluster = nodes.back().get();
            }
            servers.push_back(std::make_unique<VappServer>(
                *services.back(), config));
            if (!servers.back()->start())
                return false;
            shards.push_back({static_cast<u32>(i), "127.0.0.1",
                              servers.back()->port()});
        }
        for (auto &node : nodes)
            node->setTopology(shards, 1);
        return true;
    }

    std::size_t
    ownerOf(const std::string &name) const
    {
        return nodes.empty() ? 0 : nodes.front()->ownerOf(name);
    }
};

/** A load thread's connection: direct, or through the router. */
struct Transport
{
    std::unique_ptr<VappClient> client;
    std::unique_ptr<ClusterRouter> router;

    bool
    connect(const Stack &stack)
    {
        if (stack.shards.size() > 1) {
            ClusterRouterConfig config;
            config.seeds = stack.shards;
            router = std::make_unique<ClusterRouter>(config);
            return router->refresh();
        }
        client = std::make_unique<VappClient>();
        return client->connect("127.0.0.1", stack.shards[0].port);
    }

    std::optional<GetFramesResponse>
    get(const GetFramesRequest &request)
    {
        return router ? router->getFrames(request)
                      : client->getFrames(request);
    }

    std::optional<PutResponse>
    put(const PutRequest &request)
    {
        return router ? router->put(request) : client->put(request);
    }
};

// --- set-up ------------------------------------------------------------

/** Run job(0..count-1) on four threads, in index order. */
void
runJobs(std::size_t count, const std::function<void(std::size_t)> &job)
{
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t)
        threads.emplace_back([&] {
            for (std::size_t i = next++; i < count; i = next++)
                job(i);
        });
    for (auto &thread : threads)
        thread.join();
}

struct World
{
    std::vector<Master> masters;
    std::vector<Clip> clips;
    Stack stack;
    std::vector<Transport> transports;
};

GetFramesRequest
getRequest(const std::string &name, u32 gop)
{
    GetFramesRequest request;
    request.name = name;
    request.gop = gop;
    request.key = benchKey();
    return request;
}

/**
 * Source generation, library encode + load, server start, and lazy
 * set-up: one exact read per connection warms the BCH tables and the
 * pool, then the GOP caches are emptied again.
 */
bool
setUp(const Plan &plan, const std::string &tag, World &world)
{
    std::vector<int> needed(kMasters, 0);
    for (const Entry &e : plan.library)
        needed[static_cast<std::size_t>(e.master)] = 1;
    world.masters.assign(kMasters, Master{});
    world.clips.assign(kClips, Clip{});
    std::vector<int> jobs;
    for (int m = kMasters - 1; m >= 0; --m)
        if (needed[static_cast<std::size_t>(m)])
            jobs.push_back(m);
    for (int c = 0; c < kClips; ++c)
        jobs.push_back(kMasters + c);
    runJobs(jobs.size(), [&](std::size_t i) {
        const int job = jobs[i];
        if (job < kMasters)
            world.masters[static_cast<std::size_t>(job)] =
                buildMaster(job);
        else
            world.clips[static_cast<std::size_t>(job - kMasters)] =
                buildClip(job - kMasters);
    });

    if (!world.stack.start(plan.shards, tag))
        return false;
    std::atomic<bool> loaded{true};
    runJobs(plan.library.size(), [&](std::size_t i) {
        const Entry &e = plan.library[i];
        ArchivePutOptions options;
        options.encryption = libraryEncryption(e.name);
        ArchiveService &service =
            *world.stack.services[world.stack.ownerOf(e.name)];
        if (service.put(e.name,
                        world.masters[static_cast<std::size_t>(e.master)]
                            .prepared,
                        options) != ArchiveError::None)
            loaded = false;
        if (!world.stack.nodes.empty())
            world.stack.nodes[world.stack.ownerOf(e.name)]->replicateMeta(
                e.name);
    });
    if (!loaded)
        return false;

    world.transports.resize(plan.threads.size());
    for (Transport &t : world.transports)
        if (!t.connect(world.stack))
            return false;
    // Every record uses the same Table 1 streams, so one read per
    // connection builds every BCH table and touches every thread.
    std::atomic<bool> warmed{true};
    runJobs(world.transports.size(), [&](std::size_t t) {
        auto r = world.transports[t].get(
            getRequest(plan.library[t % plan.library.size()].name, 0));
        if (!r || r->status != Status::Ok)
            warmed = false;
    });
    if (!warmed)
        return false;
    for (auto &server : world.stack.servers)
        server->cache().clear();
    return true;
}

// --- the timed region --------------------------------------------------

struct Tally
{
    /** Client-observed latencies (ms). */
    std::vector<double> getMs;
    std::vector<double> hitMs;
    std::vector<double> putMs;
    u64 attempted = 0;
    u64 failed = 0;
    u64 hits = 0;
    u64 putFrames = 0;
    u64 agedGets = 0;
    u64 agedCorrected = 0;
    double agedLossDb = 0.0;
    double psnrSum = 0.0;
    u64 psnrFrames = 0;
    /** Responses whose content or layout missed the reference. */
    u64 wrong = 0;
    double startMs = 0.0;
    double endMs = 0.0;
    std::vector<std::pair<std::string, int>> ingested;
    std::vector<u64> shardGets;
    // --trace 1
    SpanLog log;
    std::vector<GetCounts> replays;
};

struct Shared
{
    const Plan &plan;
    World &world;
    int seconds = 0;
    bool trace = false;
};

void
checkGet(const Shared &shared, const Op &op,
         const GetFramesResponse &r, Tally &tally)
{
    const Entry &e = shared.plan.library[static_cast<std::size_t>(op.entry)];
    const Master &m = shared.world.masters[static_cast<std::size_t>(e.master)];
    const GopSpan &g = m.layout[op.gop];
    if (r.width != kWidth || r.height != kHeight ||
        r.gopCount != m.layout.size() || r.firstFrame != g.firstFrame ||
        r.frameCount != g.frameCount ||
        r.i420.size() != g.frameCount * kFrameBytes) {
        ++tally.wrong;
        return;
    }
    double recon_sum = 0.0;
    for (u32 f = g.firstFrame; f < g.firstFrame + g.frameCount; ++f)
        recon_sum += m.reconPsnr[f];
    if (!op.aged) {
        // Exact reads are the encoder's reconstruction, byte for byte.
        if (r.i420 != m.reconGop[op.gop])
            ++tally.wrong;
        tally.psnrSum += recon_sum;
    } else {
        const double sum =
            sumLumaPsnr(r.i420, m.source, g.firstFrame, g.frameCount);
        tally.psnrSum += sum;
        tally.agedLossDb += (recon_sum - sum) / g.frameCount;
        ++tally.agedGets;
        tally.agedCorrected += r.blocksCorrected;
    }
    tally.psnrFrames += g.frameCount;
}

void
runThread(const Shared &shared, int index, std::latch &go, Tally &tally)
{
    const std::vector<Op> &ops =
        shared.plan.threads[static_cast<std::size_t>(index)];
    Transport &transport =
        shared.world.transports[static_cast<std::size_t>(index)];
    Stack &stack = shared.world.stack;
    tally.shardGets.assign(stack.services.size(), 0);
    std::map<std::string, VideoRecord> records;
    std::unique_ptr<ArchiveService> scratch;
    if (shared.trace) {
        scratch = std::make_unique<ArchiveService>(
            std::string(kOutDir) + "/scratch.vapp");
        scratch->open();
    }
    go.arrive_and_wait();
    tally.startMs = nowMs();
    const double deadline = tally.startMs + 1000.0 * shared.seconds;
    u64 op_id = static_cast<u64>(index) << 32;
    for (const Op &op : ops) {
        if (op.round && nowMs() >= deadline)
            break;
        ++op_id;
        ++tally.attempted;
        if (op.put) {
            const Clip &clip =
                shared.world.clips[static_cast<std::size_t>(op.clip)];
            PutRequest request;
            request.name = op.name;
            request.width = kWidth;
            request.height = kHeight;
            request.frameCount = kClipFrames;
            request.i420 = clip.i420;
            request.key = benchKey();
            request.cipherMode = static_cast<u8>(CipherMode::CTR);
            request.keyId = kKeyId;
            request.ivSeed = 7;
            const double t0 = nowMs();
            auto r = transport.put(request);
            const double t1 = nowMs();
            if (!r || r->status != Status::Ok || r->payloadBytes == 0 ||
                r->cellBytes == 0) {
                ++tally.failed;
                continue;
            }
            tally.putMs.push_back(t1 - t0);
            tally.putFrames += kClipFrames;
            tally.ingested.push_back({op.name, op.clip});
            if (shared.trace && op.traced)
                replayPut(clip.source, request, *scratch, op_id, t0, t1,
                          tally.log);
            continue;
        }
        const Entry &e =
            shared.plan.library[static_cast<std::size_t>(op.entry)];
        GetFramesRequest request = getRequest(e.name, op.gop);
        if (op.aged) {
            request.injectRawBer = kAgedRawBer;
            request.seed = op.seed;
        }
        const double t0 = nowMs();
        auto r = transport.get(request);
        const double t1 = nowMs();
        const bool served =
            r && (r->status == Status::Ok ||
                  (op.aged && r->status == Status::Partial));
        if (!served) {
            ++tally.failed;
            continue;
        }
        tally.getMs.push_back(t1 - t0);
        if (r->fromCache) {
            ++tally.hits;
            tally.hitMs.push_back(t1 - t0);
        }
        ++tally.shardGets[stack.ownerOf(e.name)];
        checkGet(shared, op, *r, tally);
        if (shared.trace && op.traced && !r->fromCache) {
            auto it = records.find(e.name);
            if (it == records.end())
                it = records
                         .emplace(e.name,
                                  recordFromPrepared(
                                      shared.world
                                          .masters[static_cast<std::size_t>(
                                              e.master)]
                                          .prepared,
                                      libraryEncryption(e.name)))
                         .first;
            tally.replays.push_back(replayGet(
                *stack.services[stack.ownerOf(e.name)], it->second,
                request, !op.aged, op_id, t0, t1, tally.log));
        }
    }
    tally.endMs = nowMs();
}

// --- statistics and output ---------------------------------------------

double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    // Nearest rank.
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    rank = std::clamp<std::size_t>(rank, 1, values.size());
    return values[rank - 1];
}

double
mean(const std::vector<double> &values)
{
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

void
printResult(bool correct, u64 attempted, u64 failed,
            const std::vector<Metric> &metrics)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        char value[64];
        std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
        out += (i ? ", \"" : "\"") + metrics[i].name +
               "\": {\"value\": " + value + ", \"unit\": \"" +
               metrics[i].unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
}

/** Sum of stored bits over every shard: cell images, the precise
 * metadata of each record, and replica metadata held for peers. */
u64
storedBits(const Stack &stack)
{
    u64 bits = 0;
    for (const auto &service : stack.services) {
        for (const ArchiveVideoStat &s : service->stat())
            bits += 8 * (s.cellBytes + service->exportMeta(s.name).size());
        for (const std::string &name : service->replicaNames())
            bits += 8 * service->replicaMeta(name).size();
    }
    return bits;
}

struct Args
{
    std::string workload;
    u64 seed = 1;
    int seconds = 15;
    bool trace = false;
};

bool
parseArgs(int argc, char **argv, Args &args)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char *value = argv[i + 1];
        if (key == "--workload")
            args.workload = value;
        else if (key == "--seed")
            args.seed = std::strtoull(value, nullptr, 10);
        else if (key == "--seconds")
            args.seconds = std::atoi(value);
        else if (key == "--trace")
            args.trace = std::atoi(value) != 0;
        else
            return false;
    }
    return (argc % 2) == 1 && args.seconds >= 1 &&
           (args.workload == "cold_seek" ||
            args.workload == "playback_ingest" ||
            args.workload == "routed_mixed");
}

/** Counts the program exports, read before and after the timed
 * region. */
struct Exported
{
    u64 evictions = 0;
    u64 forwards = 0;
    u64 metaPutUs = 0;
};

Exported
readExported(const Stack &stack)
{
    auto &registry = telemetry::globalRegistry();
    Exported e;
    for (const auto &server : stack.servers)
        e.evictions += server->cache().evictions();
    e.forwards = registry.counter("server.forwards").value();
    e.metaPutUs = registry.histogram("server.op.meta_put").sum();
    return e;
}

/** CPU time the host has withheld from this machine so far (steal,
 * in seconds summed over CPUs; 0 where /proc/stat is unreadable).
 * Printed beside the figures: slow runs on a shared host track it. */
double
stealSeconds()
{
    FILE *f = std::fopen("/proc/stat", "r");
    if (!f)
        return 0.0;
    unsigned long long t[8] = {};
    const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                              &t[0], &t[1], &t[2], &t[3], &t[4], &t[5],
                              &t[6], &t[7]);
    std::fclose(f);
    return n == 8 ? static_cast<double>(t[7]) /
                        static_cast<double>(sysconf(_SC_CLK_TCK))
                  : 0.0;
}

template <typename T>
void
append(std::vector<T> &to, const std::vector<T> &from)
{
    to.insert(to.end(), from.begin(), from.end());
}

/** Every thread's tally in one (spans stay with their thread). */
Tally
merge(const std::vector<Tally> &tallies)
{
    Tally all;
    all.startMs = tallies[0].startMs;
    all.shardGets.assign(tallies[0].shardGets.size(), 0);
    for (const Tally &x : tallies) {
        append(all.getMs, x.getMs);
        append(all.hitMs, x.hitMs);
        append(all.putMs, x.putMs);
        append(all.ingested, x.ingested);
        append(all.replays, x.replays);
        all.attempted += x.attempted;
        all.failed += x.failed;
        all.hits += x.hits;
        all.putFrames += x.putFrames;
        all.agedGets += x.agedGets;
        all.agedCorrected += x.agedCorrected;
        all.agedLossDb += x.agedLossDb;
        all.psnrSum += x.psnrSum;
        all.psnrFrames += x.psnrFrames;
        all.wrong += x.wrong;
        for (std::size_t s = 0; s < x.shardGets.size(); ++s)
            all.shardGets[s] += x.shardGets[s];
        all.startMs = std::min(all.startMs, x.startMs);
    }
    return all;
}

void
fail(bool &correct, const char *what)
{
    std::fprintf(stderr, "vappbench: check failed: %s\n", what);
    correct = false;
}

/** The output checks made after the timed region (README, "Output
 * checks"); false when any fails. */
bool
checkOutputs(const Plan &plan, World &world, const Tally &all,
             double psnr_db)
{
    bool correct = true;
    if (all.wrong > 0)
        fail(correct, "served GOP differs from the encoder's "
                      "reconstruction or layout");
    if (psnr_db < kPsnrFloorDb)
        fail(correct, "mean PSNR below the floor");
    if (all.agedGets > 0) {
        if (all.agedCorrected == 0)
            fail(correct, "reads at 1e-3 reported no corrected blocks");
        if (all.agedLossDb / static_cast<double>(all.agedGets) >
            kAgedLossBudgetDb)
            fail(correct, "reads at 1e-3 lost more than 0.3 dB");
    }
    for (const auto &[name, clip_index] : all.ingested) {
        const Clip &clip = world.clips[static_cast<std::size_t>(clip_index)];
        auto r = world.transports[0].get(getRequest(name, 0));
        if (!r || r->status != Status::Ok || r->width != kWidth ||
            r->height != kHeight || r->gopCount != 1 ||
            r->firstFrame != 0 || r->frameCount != kClipFrames ||
            r->i420.size() != kClipFrames * kFrameBytes ||
            sumLumaPsnr(r->i420, clip.source, 0, kClipFrames) /
                    kClipFrames <
                kPsnrFloorDb) {
            fail(correct, "ingested clip read back wrong");
            break;
        }
    }
    std::size_t videos = 0;
    for (const auto &service : world.stack.services) {
        std::map<std::string, u64> cells;
        for (const ArchiveVideoStat &s : service->stat())
            cells[s.name] = s.cellBytes;
        videos += cells.size();
        for (const Entry &e : plan.library) {
            auto it = cells.find(e.name);
            if (it != cells.end() &&
                it->second !=
                    expectedCellBytes(
                        world.masters[static_cast<std::size_t>(e.master)]
                            .prepared))
                fail(correct,
                     "stored cell bytes differ from Table 1 arithmetic");
        }
    }
    if (videos != plan.library.size() + all.ingested.size())
        fail(correct, "archive holds a different number of videos");
    return correct;
}

double
storedBitsPerPixel(const Plan &plan, const World &world, const Tally &all)
{
    u64 pixels = all.ingested.size() * kClipFrames * kLumaBytes;
    for (const Entry &e : plan.library)
        pixels += world.masters[static_cast<std::size_t>(e.master)]
                      .source.frames.size() *
                  kLumaBytes;
    return static_cast<double>(storedBits(world.stack)) /
           static_cast<double>(pixels);
}

/**
 * The per-layer metrics of a traced run; writes every span to
 * @p path and checks that each traced request's self times add up to
 * its client latency.
 */
std::vector<Metric>
layerMetrics(const std::vector<Tally> &tallies, const Tally &all,
             const Exported &delta, const std::string &path,
             bool &correct)
{
    std::map<std::string, std::vector<double>> self;
    std::vector<double> get_residual;
    FILE *out = std::fopen(path.c_str(), "w");
    double worst_gap = 0.0;
    std::size_t base = 0;
    for (const Tally &x : tallies) {
        std::map<u64, double> self_sum;
        std::map<u64, double> latency;
        for (std::size_t i = 0; i < x.log.spans.size(); ++i) {
            const Span &s = x.log.spans[i];
            if (s.parent < 0)
                latency[s.request] = s.endMs - s.startMs;
            if (s.parent < 0 && std::strcmp(s.name, "request.get") == 0)
                get_residual.push_back(s.selfMs);
            else
                self[s.name].push_back(s.selfMs);
            self_sum[s.request] += s.selfMs;
            if (out)
                std::fprintf(
                    out,
                    "{\"request\": %llu, \"id\": %zu, \"parent\": %lld, "
                    "\"name\": \"%s\", \"start_ms\": %.4f, "
                    "\"end_ms\": %.4f, \"self_ms\": %.4f}\n",
                    static_cast<unsigned long long>(s.request), base + i,
                    s.parent < 0 ? -1LL
                                 : static_cast<long long>(base) + s.parent,
                    s.name, s.startMs, s.endMs, s.selfMs);
        }
        base += x.log.spans.size();
        for (const auto &[request, ms] : latency)
            worst_gap =
                std::max(worst_gap, std::fabs(self_sum[request] - ms));
    }
    if (out)
        std::fclose(out);
    if (worst_gap > 1e-6)
        fail(correct, "traced self times do not add up to the latency");

    u64 blocks = 0, bytes = 0, frames = 0;
    for (const GetCounts &c : all.replays) {
        blocks += c.blocksRead;
        bytes += c.bytesDecrypted;
        frames += c.framesDecoded;
        if (!c.faithful)
            fail(correct, "replayed decode differs from ArchiveService::get");
    }
    const auto ratio = [](double n, double d) { return d > 0 ? n / d : 0.0; };
    const double misses = static_cast<double>(all.replays.size());
    const double gets = static_cast<double>(all.getMs.size());
    const double puts = static_cast<double>(all.putMs.size());
    const auto self_ms = [&](const char *name) { return mean(self[name]); };
    u64 max_shard = 0;
    for (u64 n : all.shardGets)
        max_shard = std::max(max_shard, n);
    std::fprintf(stderr,
                 "traced: %zu GET misses and %zu PUTs replayed, PUT "
                 "residual %.3f ms; spans in %s\n",
                 all.replays.size(), self["request.put"].size(),
                 self_ms("request.put"), path.c_str());
    return {
        {"server.cache_hit_ratio", ratio(all.hits, gets), "ratio"},
        {"server.hit_ms", percentile(all.hitMs, 0.5), "ms"},
        {"server.cache_evictions_per_get", ratio(delta.evictions, gets),
         "count"},
        {"server.pack_ms", self_ms("server.pack"), "ms"},
        {"server.residual_ms", mean(get_residual), "ms"},
        {"archive.get_ms", self_ms("archive.get"), "ms"},
        {"archive.put_ms", self_ms("archive.put"), "ms"},
        {"storage.cell_read_ms", self_ms("storage.cell_read"), "ms"},
        {"storage.blocks_read_per_get", ratio(blocks, misses), "count"},
        {"storage.blocks_corrected_per_aged_get",
         ratio(all.agedCorrected, all.agedGets), "count"},
        {"storage.inject_ms", self_ms("storage.inject"), "ms"},
        {"storage.cell_write_ms", self_ms("storage.cell_write"), "ms"},
        {"crypto.decrypt_ms", self_ms("crypto.decrypt"), "ms"},
        {"crypto.bytes_decrypted_per_get", ratio(bytes, misses), "count"},
        {"crypto.encrypt_ms", self_ms("crypto.encrypt"), "ms"},
        {"core.merge_ms", self_ms("core.merge"), "ms"},
        {"core.partition_ms", self_ms("core.partition"), "ms"},
        {"codec.decode_ms", self_ms("codec.decode"), "ms"},
        {"codec.frames_decoded_per_get", ratio(frames, misses), "count"},
        {"codec.encode_ms", self_ms("codec.encode"), "ms"},
        {"graph.importance_ms", self_ms("graph.importance"), "ms"},
        {"cluster.forwarded_per_op",
         ratio(delta.forwards, static_cast<double>(all.attempted)),
         "count"},
        {"cluster.replicate_ms", ratio(delta.metaPutUs / 1000.0, puts),
         "ms"},
        {"cluster.max_shard_get_share", ratio(max_shard, gets), "ratio"},
    };
}

void
printMetrics(const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        std::fprintf(stderr, "  %-40s %12.4f %s\n", m.name.c_str(),
                     m.value, m.unit.c_str());
}

int
run(const Args &args)
{
    std::filesystem::create_directories(kOutDir);
    const Plan plan = args.workload == "cold_seek"
                          ? coldSeekPlan(args.seed, args.seconds)
                      : args.workload == "playback_ingest"
                          ? playbackPlan(args.seed, args.seconds)
                          : routedPlan(args.seed, args.seconds);

    std::vector<double> setup_s;
    std::unique_ptr<World> world;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        world.reset();
        const double t0 = nowMs();
        world = std::make_unique<World>();
        if (!setUp(plan, args.workload + "-" + std::to_string(rep),
                   *world)) {
            std::fprintf(stderr, "vappbench: set-up failed\n");
            return 1;
        }
        setup_s.push_back((nowMs() - t0) / 1000.0);
    }
    std::sort(setup_s.begin(), setup_s.end());

    const Exported before = readExported(world->stack);
    const double steal0 = stealSeconds();
    std::vector<Tally> tallies(plan.threads.size());
    {
        Shared shared{plan, *world, args.seconds, args.trace};
        std::latch go(static_cast<std::ptrdiff_t>(tallies.size()));
        std::vector<std::thread> pool;
        for (std::size_t t = 0; t < tallies.size(); ++t)
            pool.emplace_back(runThread, std::cref(shared),
                              static_cast<int>(t), std::ref(go),
                              std::ref(tallies[t]));
        for (auto &thread : pool)
            thread.join();
    }
    const double steal_s = stealSeconds() - steal0;
    const Exported after = readExported(world->stack);
    const Exported delta{after.evictions - before.evictions,
                         after.forwards - before.forwards,
                         after.metaPutUs - before.metaPutUs};

    const Tally all = merge(tallies);
    double read_end = 0.0;
    for (int r : plan.readers)
        read_end = std::max(read_end,
                            tallies[static_cast<std::size_t>(r)].endMs);
    const Tally &writer = tallies[static_cast<std::size_t>(plan.writer)];
    const double read_s = (read_end - all.startMs) / 1000.0;
    const double psnr_db =
        all.psnrFrames ? all.psnrSum / static_cast<double>(all.psnrFrames)
                       : 0.0;
    bool correct = checkOutputs(plan, *world, all, psnr_db);

    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const std::vector<Metric> e2e = {
        {"setup_s", setup_s[setup_s.size() / 2], "s"},
        {"get_p50_ms", percentile(all.getMs, 0.50), "ms"},
        {"get_p90_ms", percentile(all.getMs, 0.90), "ms"},
        {"get_rps", static_cast<double>(all.getMs.size()) / read_s,
         "req/s"},
        {"put_p50_ms", percentile(all.putMs, 0.50), "ms"},
        {"ingest_frames_per_s",
         static_cast<double>(all.putFrames) /
             ((writer.endMs - writer.startMs) / 1000.0),
         "frames/s"},
        {"stored_bits_per_pixel", storedBitsPerPixel(plan, *world, all),
         "bits/px"},
        {"psnr_db", psnr_db, "dB"},
        {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0,
         "MB"},
    };

    std::fprintf(stderr,
                 "vappbench %s seed=%llu simd=%s pool=%d: %zu GETs (%llu "
                 "hits, %llu aged) and %zu PUTs in %.2f s; setup reps",
                 args.workload.c_str(),
                 static_cast<unsigned long long>(args.seed),
                 simd::simdLevelName(simd::simdActiveLevel()),
                 threadCount(), all.getMs.size(),
                 static_cast<unsigned long long>(all.hits),
                 static_cast<unsigned long long>(all.agedGets),
                 all.putMs.size(), read_s);
    for (double s : setup_s)
        std::fprintf(stderr, " %.3f", s);
    std::fprintf(stderr, "; thread seconds");
    for (const Tally &x : tallies)
        std::fprintf(stderr, " %.2f", (x.endMs - x.startMs) / 1000.0);
    std::fprintf(stderr, "; host steal %.2f cpu-s\n", steal_s);
    if (all.agedGets > 0)
        std::fprintf(stderr,
                     "  reads at 1e-3: %llu blocks corrected, mean loss "
                     "%.4f dB against the reconstruction\n",
                     static_cast<unsigned long long>(all.agedCorrected),
                     all.agedLossDb / static_cast<double>(all.agedGets));
    printMetrics(e2e);

    std::vector<Metric> layers;
    if (args.trace) {
        layers = layerMetrics(tallies, all, delta,
                              std::string(kOutDir) + "/trace-" +
                                  args.workload + "-seed" +
                                  std::to_string(args.seed) + ".jsonl",
                              correct);
        printMetrics(layers);
    }
    world.reset();
    printResult(correct, all.attempted, all.failed,
                args.trace ? layers : e2e);
    return 0;
}

} // namespace
} // namespace vappbench

int
main(int argc, char **argv)
{
    vappbench::Args args;
    if (!vappbench::parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: vappbench --workload "
                     "<cold_seek|playback_ingest|routed_mixed> --seed <n> "
                     "--seconds <s> --trace <0|1>\n");
        return 2;
    }
    return vappbench::run(args);
}
