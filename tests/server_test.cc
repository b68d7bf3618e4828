/**
 * @file
 * VAPP serving layer tests: the bounded priority queue's ordering,
 * backpressure and drain semantics; the decoded-GOP cache's budget,
 * keying and invalidation; wire-protocol round trips and hostile
 * input fuzzing (truncations, bad magic/version, oversized lengths,
 * CRC flips); and loopback server tests — wire responses must match
 * local ArchiveService reads byte for byte, cache hits must skip the
 * read path (observed via telemetry), a full queue must answer
 * Status::Retry, and a mixed concurrent load must lose no responses
 * (suite names contain "Server" so the TSan CI job picks them up).
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "archive/archive_service.h"
#include "common/telemetry.h"
#include "server/frame_cache.h"
#include "server/request_queue.h"
#include "server/vapp_client.h"
#include "server/vapp_server.h"
#include "video/synthetic.h"

#include "golden.h"

namespace videoapp {
namespace {

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "server_test_" + name + ".vapp";
}

PreparedVideo
makePrepared(u64 seed)
{
    Video source = generateSynthetic(tinySpec(seed));
    EncoderConfig config;
    config.gop.gopSize = 8;
    config.gop.bFrames = 2;
    return prepareVideo(source, config,
                        EccAssignment::paperTable1());
}

/** A replica precise-meta blob whose last stream claims trueBytes =
 * payloadBytes = cellLength = 2^63 (see archive_test.cc). */
Bytes
hugeStreamReplicaBlob(u64 seed)
{
    VideoRecord record =
        recordFromPrepared(makePrepared(seed), std::nullopt);
    record.policy.reset();
    Bytes blob = serializeRecordMeta(record);
    const std::size_t crc_at = blob.size() - 4;
    for (std::size_t field = 1; field <= 3; ++field) {
        u8 *size = blob.data() + crc_at - 8 * field;
        std::fill(size, size + 8, u8{0});
        size[0] = 0x80;
    }
    return blob;
}

u64
counterValue(const char *name)
{
    return telemetry::globalRegistry().counter(name).value();
}

// --- request queue ----------------------------------------------------

TEST(ServerQueue, ServeDrainsBeforeMaintain)
{
    RequestQueue<int> queue(8);
    ASSERT_TRUE(queue.tryPush(QueueClass::Maintain, 100));
    ASSERT_TRUE(queue.tryPush(QueueClass::Serve, 1));
    ASSERT_TRUE(queue.tryPush(QueueClass::Maintain, 101));
    ASSERT_TRUE(queue.tryPush(QueueClass::Serve, 2));

    // Serve jobs first (FIFO within the class), then Maintain.
    EXPECT_EQ(queue.pop(), 1);
    EXPECT_EQ(queue.pop(), 2);
    EXPECT_EQ(queue.pop(), 100);
    EXPECT_EQ(queue.pop(), 101);
    EXPECT_EQ(queue.size(), 0u);
}

TEST(ServerQueue, RejectsWhenFullAndCountsPerClass)
{
    RequestQueue<int> queue(2);
    EXPECT_TRUE(queue.tryPush(QueueClass::Serve, 1));
    EXPECT_TRUE(queue.tryPush(QueueClass::Maintain, 2));
    // Capacity spans both classes: the third job of either class is
    // refused without blocking.
    EXPECT_FALSE(queue.tryPush(QueueClass::Serve, 3));
    EXPECT_FALSE(queue.tryPush(QueueClass::Maintain, 4));
    EXPECT_FALSE(queue.tryPush(QueueClass::Maintain, 5));

    EXPECT_EQ(queue.rejected(QueueClass::Serve), 1u);
    EXPECT_EQ(queue.rejected(QueueClass::Maintain), 2u);
    EXPECT_EQ(queue.rejectedTotal(), 3u);
    EXPECT_EQ(queue.highWater(), 2u);

    // Draining frees capacity again.
    EXPECT_EQ(queue.pop(), 1);
    EXPECT_TRUE(queue.tryPush(QueueClass::Serve, 6));
}

TEST(ServerQueue, DrainsAfterCloseThenEnds)
{
    RequestQueue<int> queue(4);
    ASSERT_TRUE(queue.tryPush(QueueClass::Serve, 1));
    ASSERT_TRUE(queue.tryPush(QueueClass::Maintain, 2));
    queue.close();
    EXPECT_FALSE(queue.tryPush(QueueClass::Serve, 3));
    // Admitted jobs still come out; then pop() reports the end.
    EXPECT_EQ(queue.pop(), 1);
    EXPECT_EQ(queue.pop(), 2);
    EXPECT_EQ(queue.pop(), std::nullopt);
}

TEST(ServerQueue, DrainPauseGatesPopUntilResumed)
{
    RequestQueue<int> queue(4);
    queue.setDrainPaused(true);
    ASSERT_TRUE(queue.tryPush(QueueClass::Serve, 7));

    std::atomic<bool> popped{false};
    std::thread consumer([&] {
        auto job = queue.pop();
        EXPECT_EQ(job, 7);
        popped.store(true);
    });
    // The consumer must stay blocked while paused even though a job
    // is queued — that is what makes backpressure deterministic.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(popped.load());

    queue.setDrainPaused(false);
    consumer.join();
    EXPECT_TRUE(popped.load());
}

TEST(ServerQueue, CloseOverridesPause)
{
    RequestQueue<int> queue(4);
    queue.setDrainPaused(true);
    ASSERT_TRUE(queue.tryPush(QueueClass::Serve, 9));
    queue.close();
    // Shutdown always drains, pause notwithstanding.
    EXPECT_EQ(queue.pop(), 9);
    EXPECT_EQ(queue.pop(), std::nullopt);
}

TEST(ServerQueue, PopBatchDrainsInPriorityOrderUpToMax)
{
    RequestQueue<int> queue(8);
    ASSERT_TRUE(queue.tryPush(QueueClass::Maintain, 100));
    ASSERT_TRUE(queue.tryPush(QueueClass::Serve, 1));
    ASSERT_TRUE(queue.tryPush(QueueClass::Serve, 2));
    ASSERT_TRUE(queue.tryPush(QueueClass::Maintain, 101));

    // One lock acquisition takes Serve first, then Maintain, capped
    // at max.
    std::vector<int> batch = queue.popBatch(3);
    EXPECT_EQ(batch, (std::vector<int>{1, 2, 100}));
    EXPECT_EQ(queue.size(), 1u);
    batch = queue.popBatch(3);
    EXPECT_EQ(batch, (std::vector<int>{101}));

    // After close() an empty batch signals the end of the stream.
    queue.close();
    EXPECT_TRUE(queue.popBatch(4).empty());
}

// --- frame cache ------------------------------------------------------

DecodedGop
gopOfSize(std::size_t bytes, u8 fill = 0xAB)
{
    DecodedGop gop;
    gop.width = 64;
    gop.height = 64;
    gop.frameCount = 1;
    gop.gopCount = 1;
    gop.i420 = Bytes(bytes, fill);
    return gop;
}

/** A cached entry's payload is a serialized wire response. */
GetFramesResponse
parseCached(const CachedGopPtr &gop)
{
    GetFramesResponse response;
    EXPECT_TRUE(gop);
    if (gop)
        EXPECT_TRUE(parseGetFramesResponse(gop->payload, response));
    return response;
}

TEST(ServerCache, HitReturnsWhatWasPut)
{
    FrameCache cache(1u << 20);
    GopKey key{"v", 2, 0};
    cache.put(key, gopOfSize(1000, 0x11));

    CachedGopPtr hit = cache.get(key);
    ASSERT_TRUE(hit);
    GetFramesResponse response = parseCached(hit);
    EXPECT_EQ(response.i420, Bytes(1000, 0x11));
    // The entry is wire-ready: marked as a cache hit, CRC memoized.
    EXPECT_TRUE(response.fromCache);
    EXPECT_EQ(verifyPayload(hit->payload, hit->payloadCrc),
              WireError::None);
    EXPECT_EQ(cache.hits(), 1u);

    EXPECT_FALSE(cache.get(GopKey{"v", 3, 0}));
    EXPECT_EQ(cache.misses(), 1u);
}

TEST(ServerCache, BudgetBoundsBytesAndEvictsLru)
{
    // Budget for ~2 entries per shard; inserting far more must keep
    // the cache within budget by evicting, never by refusing.
    const std::size_t entry = 4096;
    const std::size_t charged =
        makeCachedGop(gopOfSize(entry))->chargedBytes();
    FrameCache cache(FrameCache::kShards * 2 * charged);
    for (u32 g = 0; g < 64; ++g)
        cache.put(GopKey{"v", g, 0}, gopOfSize(entry));

    EXPECT_GT(cache.evictions(), 0u);
    EXPECT_LE(cache.entries(), 2u * FrameCache::kShards);
    EXPECT_LE(cache.bytes(), FrameCache::kShards * 2 * charged);
    // Something must have survived, too.
    EXPECT_GT(cache.entries(), 0u);
}

TEST(ServerCache, ReplacingAKeyKeepsAccountsExact)
{
    FrameCache cache(1u << 20);
    GopKey key{"v", 0, 0};
    cache.put(key, gopOfSize(1000));
    cache.put(key, gopOfSize(3000, 0x22));
    EXPECT_EQ(cache.entries(), 1u);
    EXPECT_EQ(cache.bytes(),
              makeCachedGop(gopOfSize(3000, 0x22))->chargedBytes());
    CachedGopPtr hit = cache.get(key);
    ASSERT_TRUE(hit);
    EXPECT_EQ(parseCached(hit).i420, Bytes(3000, 0x22));
}

TEST(ServerCache, PinnedEntrySurvivesEviction)
{
    FrameCache cache(1u << 20);
    GopKey key{"v", 0, 0};
    cache.put(key, gopOfSize(500, 0x33));
    CachedGopPtr pin = cache.get(key);
    ASSERT_TRUE(pin);

    cache.clear();
    EXPECT_EQ(cache.entries(), 0u);
    // A response in flight keeps its bytes alive past eviction —
    // this is what lets the event loop write entries with zero
    // copies and no cache-wide lock.
    EXPECT_EQ(parseCached(pin).i420, Bytes(500, 0x33));
    EXPECT_EQ(verifyPayload(pin->payload, pin->payloadCrc),
              WireError::None);
}

TEST(ServerCache, OversizedEntriesAreSkipped)
{
    FrameCache cache(1024); // shard budget ~129 bytes
    cache.put(GopKey{"v", 0, 0}, gopOfSize(4096));
    EXPECT_EQ(cache.entries(), 0u);
    EXPECT_EQ(cache.bytes(), 0u);
}

TEST(ServerCache, KeyIdSeparatesReads)
{
    // The same GOP decoded under two keys must never alias: a client
    // without the key must not be served plaintext cached under it.
    FrameCache cache(1u << 20);
    cache.put(GopKey{"v", 0, 1}, gopOfSize(100, 0x01));
    cache.put(GopKey{"v", 0, 2}, gopOfSize(100, 0x02));

    CachedGopPtr k1 = cache.get(GopKey{"v", 0, 1});
    CachedGopPtr k2 = cache.get(GopKey{"v", 0, 2});
    ASSERT_TRUE(k1 && k2);
    EXPECT_EQ(parseCached(k1).i420[0], 0x01);
    EXPECT_EQ(parseCached(k2).i420[0], 0x02);
    EXPECT_FALSE(cache.get(GopKey{"v", 0, 0}));
}

TEST(ServerCache, EraseVideoAndClear)
{
    FrameCache cache(1u << 20);
    for (u32 g = 0; g < 4; ++g) {
        cache.put(GopKey{"a", g, 0}, gopOfSize(100));
        cache.put(GopKey{"b", g, 7}, gopOfSize(100));
    }
    ASSERT_EQ(cache.entries(), 8u);

    cache.eraseVideo("a"); // all GOPs, all key ids
    EXPECT_EQ(cache.entries(), 4u);
    EXPECT_FALSE(cache.get(GopKey{"a", 0, 0}));
    EXPECT_TRUE(cache.get(GopKey{"b", 0, 7}));

    cache.clear();
    EXPECT_EQ(cache.entries(), 0u);
    EXPECT_EQ(cache.bytes(), 0u);
}

// --- wire protocol ----------------------------------------------------

TEST(ServerWire, FrameRoundTrip)
{
    Bytes payload = {1, 2, 3, 4, 5};
    Bytes frame = encodeFrame(static_cast<u8>(Opcode::GetFrames),
                              0xDEADBEEF, payload);
    ASSERT_EQ(frame.size(), kWireHeaderBytes + payload.size() + 4);

    WireFrameHeader header;
    ASSERT_EQ(parseFrameHeader(frame.data(), frame.size(), header),
              WireError::None);
    EXPECT_EQ(header.kind, static_cast<u8>(Opcode::GetFrames));
    EXPECT_EQ(header.requestId, 0xDEADBEEFu);
    ASSERT_EQ(header.payloadLength, payload.size());

    Bytes body(frame.begin() + kWireHeaderBytes,
               frame.end() - 4);
    u32 crc = static_cast<u32>(frame[frame.size() - 4]) << 24 |
              static_cast<u32>(frame[frame.size() - 3]) << 16 |
              static_cast<u32>(frame[frame.size() - 2]) << 8 |
              static_cast<u32>(frame[frame.size() - 1]);
    EXPECT_EQ(body, payload);
    EXPECT_EQ(verifyPayload(body, crc), WireError::None);
}

TEST(ServerWire, RequestsRoundTrip)
{
    GetFramesRequest get;
    get.name = "clip";
    get.gop = 3;
    get.injectRawBer = 1e-3;
    get.seed = 99;
    get.conceal = true;
    get.key = {1, 2, 3};
    get.deadlineMs = 250;
    GetFramesRequest get2;
    ASSERT_TRUE(parseGetFramesRequest(
        serializeGetFramesRequest(get), get2));
    EXPECT_EQ(get2.name, get.name);
    EXPECT_EQ(get2.gop, get.gop);
    EXPECT_EQ(get2.injectRawBer, get.injectRawBer);
    EXPECT_EQ(get2.seed, get.seed);
    EXPECT_EQ(get2.conceal, get.conceal);
    EXPECT_EQ(get2.key, get.key);
    EXPECT_EQ(get2.deadlineMs, get.deadlineMs);

    PutRequest put;
    put.name = "clip";
    put.width = 32;
    put.height = 32;
    put.frameCount = 2;
    put.i420 = Bytes(32 * 32 * 3 / 2 * 2, 0x55);
    put.key = Bytes(16, 0x7E);
    PutRequest put2;
    put.cipherMode = 3;
    put.keyId = 9;
    put.ivSeed = 77;
    ASSERT_TRUE(parsePutRequest(serializePutRequest(put), put2));
    EXPECT_EQ(put2.name, put.name);
    EXPECT_EQ(put2.width, put.width);
    EXPECT_EQ(put2.height, put.height);
    EXPECT_EQ(put2.frameCount, put.frameCount);
    EXPECT_EQ(put2.i420, put.i420);
    EXPECT_EQ(put2.key, put.key);
    EXPECT_EQ(put2.cipherMode, put.cipherMode);
    EXPECT_EQ(put2.keyId, put.keyId);
    EXPECT_EQ(put2.ivSeed, put.ivSeed);

    ScrubRequest scrub;
    scrub.ageRawBer = 2e-4;
    scrub.seed = 5;
    ScrubRequest scrub2;
    ASSERT_TRUE(
        parseScrubRequest(serializeScrubRequest(scrub), scrub2));
    EXPECT_EQ(scrub2.ageRawBer, scrub.ageRawBer);
    EXPECT_EQ(scrub2.seed, scrub.seed);
}

TEST(ServerWire, MalformedRequestsRejected)
{
    PutRequest put;
    put.name = "v";
    put.width = 30; // not a multiple of 16
    put.height = 32;
    put.frameCount = 1;
    put.i420 = Bytes(30 * 32 * 3 / 2, 0);
    PutRequest out;
    EXPECT_FALSE(parsePutRequest(serializePutRequest(put), out));

    put.width = 32;
    put.i420 = Bytes(7, 0); // size disagrees with dims
    EXPECT_FALSE(parsePutRequest(serializePutRequest(put), out));

    GetFramesRequest get;
    get.name = "v";
    get.injectRawBer = 2.0; // not a probability
    GetFramesRequest gout;
    EXPECT_FALSE(parseGetFramesRequest(
        serializeGetFramesRequest(get), gout));
}

TEST(ServerWire, ResponsesRoundTrip)
{
    GetFramesResponse get;
    get.status = Status::Partial;
    get.width = 64;
    get.height = 64;
    get.firstFrame = 8;
    get.frameCount = 8;
    get.gopCount = 3;
    get.fromCache = true;
    get.blocksCorrected = 17;
    get.blocksUncorrectable = 2;
    get.i420 = Bytes(640, 0x3C);
    GetFramesResponse get2;
    ASSERT_TRUE(parseGetFramesResponse(
        serializeGetFramesResponse(get), get2));
    EXPECT_EQ(get2.status, get.status);
    EXPECT_EQ(get2.firstFrame, get.firstFrame);
    EXPECT_EQ(get2.frameCount, get.frameCount);
    EXPECT_EQ(get2.gopCount, get.gopCount);
    EXPECT_EQ(get2.fromCache, get.fromCache);
    EXPECT_EQ(get2.blocksCorrected, get.blocksCorrected);
    EXPECT_EQ(get2.blocksUncorrectable, get.blocksUncorrectable);
    EXPECT_EQ(get2.i420, get.i420);

    StatResponse stat;
    stat.status = Status::Ok;
    ArchiveVideoStat v;
    v.name = "clip";
    v.width = 64;
    v.height = 64;
    v.frames = 20;
    v.streamCount = 4;
    v.payloadBytes = 1234;
    v.cellBytes = 2345;
    v.encrypted = true;
    stat.videos.push_back(v);
    StatResponse stat2;
    ASSERT_TRUE(
        parseStatResponse(serializeStatResponse(stat), stat2));
    ASSERT_EQ(stat2.videos.size(), 1u);
    EXPECT_EQ(stat2.videos[0].name, "clip");
    EXPECT_EQ(stat2.videos[0].frames, 20u);
    EXPECT_EQ(stat2.videos[0].payloadBytes, 1234u);
    EXPECT_TRUE(stat2.videos[0].encrypted);

    ScrubResponse scrub;
    scrub.status = Status::Ok;
    scrub.videos = 2;
    scrub.streams = 8;
    scrub.blocksRead = 100;
    scrub.blocksRewritten = 3;
    scrub.bitsCorrected = 7;
    scrub.blocksUncorrectable = 1;
    scrub.streamsMiscorrected = 1;
    scrub.streamsDamaged = 1;
    ScrubResponse scrub2;
    ASSERT_TRUE(
        parseScrubResponse(serializeScrubResponse(scrub), scrub2));
    EXPECT_EQ(scrub2.blocksRead, 100u);
    EXPECT_EQ(scrub2.streamsMiscorrected, 1u);

    HealthResponse health;
    health.status = Status::Ok;
    health.queueDepth = 3;
    health.queueCapacity = 256;
    health.queueHighWater = 17;
    health.queueRejected = 4;
    health.cacheBytes = 1 << 20;
    health.cacheEntries = 9;
    health.videos = 2;
    HealthResponse health2;
    ASSERT_TRUE(parseHealthResponse(
        serializeHealthResponse(health), health2));
    EXPECT_EQ(health2.queueCapacity, 256u);
    EXPECT_EQ(health2.queueRejected, 4u);
    EXPECT_EQ(health2.cacheEntries, 9u);

    // A bare-status error payload parses under every typed parser.
    Bytes retry = serializeStatusOnly(Status::Retry);
    GetFramesResponse gerr;
    PutResponse perr;
    StatResponse serr;
    ScrubResponse scerr;
    HealthResponse herr;
    EXPECT_TRUE(parseGetFramesResponse(retry, gerr));
    EXPECT_TRUE(parsePutResponse(retry, perr));
    EXPECT_TRUE(parseStatResponse(retry, serr));
    EXPECT_TRUE(parseScrubResponse(retry, scerr));
    EXPECT_TRUE(parseHealthResponse(retry, herr));
    EXPECT_EQ(gerr.status, Status::Retry);
    EXPECT_EQ(herr.status, Status::Retry);
}

std::vector<FrameHeader>
headersOf(const std::vector<std::pair<u16, FrameType>> &frames)
{
    std::vector<FrameHeader> headers;
    for (auto [display, type] : frames) {
        FrameHeader h;
        h.displayIdx = display;
        h.type = type;
        headers.push_back(h);
    }
    return headers;
}

TEST(ServerWire, GopRangesFollowIFrames)
{
    // Encode order IPBB IPBB with I-frames at display 0 and 4.
    auto headers = headersOf({{0, FrameType::I},
                              {3, FrameType::P},
                              {1, FrameType::B},
                              {2, FrameType::B},
                              {4, FrameType::I},
                              {7, FrameType::P},
                              {5, FrameType::B},
                              {6, FrameType::B}});
    auto ranges = gopRanges(headers, 8);
    ASSERT_EQ(ranges.size(), 2u);
    EXPECT_EQ(ranges[0].firstFrame, 0u);
    EXPECT_EQ(ranges[0].frameCount, 4u);
    EXPECT_EQ(ranges[1].firstFrame, 4u);
    EXPECT_EQ(ranges[1].frameCount, 4u);

    // A leading non-I prefix folds into the first GOP.
    auto open = headersOf({{0, FrameType::P},
                           {1, FrameType::P},
                           {2, FrameType::I},
                           {3, FrameType::P}});
    auto open_ranges = gopRanges(open, 4);
    ASSERT_EQ(open_ranges.size(), 1u);
    EXPECT_EQ(open_ranges[0].firstFrame, 0u);
    EXPECT_EQ(open_ranges[0].frameCount, 4u);

    EXPECT_TRUE(gopRanges({}, 0).empty());
}

TEST(ServerWire, PackFramesI420Layout)
{
    Video video;
    video.frames.emplace_back(16, 16);
    video.frames.emplace_back(16, 16);
    video.frames[0].y().at(0, 0) = 11;
    video.frames[0].u().at(0, 0) = 22;
    video.frames[0].v().at(0, 0) = 33;
    video.frames[1].y().at(0, 0) = 44;

    Bytes packed = packFramesI420(video, 0, 2);
    const std::size_t frame_bytes = 16 * 16 * 3 / 2;
    ASSERT_EQ(packed.size(), 2 * frame_bytes);
    EXPECT_EQ(packed[0], 11);
    EXPECT_EQ(packed[16 * 16], 22);
    EXPECT_EQ(packed[16 * 16 + 8 * 8], 33);
    EXPECT_EQ(packed[frame_bytes], 44);

    Bytes second = packFramesI420(video, 1, 1);
    ASSERT_EQ(second.size(), frame_bytes);
    EXPECT_EQ(second[0], 44);
}

// --- wire fuzzing -----------------------------------------------------

TEST(ServerWireFuzz, EveryTruncationFailsCleanly)
{
    Bytes frame = encodeFrame(static_cast<u8>(Opcode::Stat), 7,
                              Bytes{9, 8, 7});
    for (std::size_t n = 0; n < kWireHeaderBytes; ++n) {
        WireFrameHeader header;
        EXPECT_EQ(parseFrameHeader(frame.data(), n, header),
                  WireError::ShortRead);
    }
}

TEST(ServerWireFuzz, BadMagicVersionKindAndOversized)
{
    Bytes good = encodeFrame(static_cast<u8>(Opcode::Health), 1,
                             Bytes{});
    WireFrameHeader header;

    Bytes bad = good;
    bad[0] ^= 0xFF; // magic
    EXPECT_EQ(parseFrameHeader(bad.data(), bad.size(), header),
              WireError::BadMagic);

    bad = good;
    bad[4] = 0x7F; // version hi byte: a far-future revision
    // Re-CRC so only the version is wrong.
    // (parseFrameHeader checks CRC first on purpose: a frame that
    // fails its checksum tells us nothing about its version.)
    EXPECT_NE(parseFrameHeader(bad.data(), bad.size(), header),
              WireError::None);

    bad = good;
    bad[7] = 0xEE; // kind byte outside both enums, CRC now stale
    EXPECT_NE(parseFrameHeader(bad.data(), bad.size(), header),
              WireError::None);
}

TEST(ServerWireFuzz, HeaderBitFlipsNeverParseAsValid)
{
    Bytes frame = encodeFrame(static_cast<u8>(Opcode::Put), 42,
                              Bytes(64, 0xA5));
    // Flip every bit of the header: the CRC (or a field check) must
    // catch every one — no flipped header may parse as valid.
    for (std::size_t byte = 0; byte < kWireHeaderBytes; ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            Bytes bad = frame;
            bad[byte] ^= static_cast<u8>(1 << bit);
            WireFrameHeader header;
            EXPECT_NE(
                parseFrameHeader(bad.data(), bad.size(), header),
                WireError::None)
                << "byte " << byte << " bit " << bit;
        }
    }
}

TEST(ServerWireFuzz, PayloadCrcFlipsDetected)
{
    Bytes payload(256, 0x5A);
    Bytes frame = encodeFrame(static_cast<u8>(Opcode::Put), 1,
                              payload);
    u32 crc = static_cast<u32>(frame[frame.size() - 4]) << 24 |
              static_cast<u32>(frame[frame.size() - 3]) << 16 |
              static_cast<u32>(frame[frame.size() - 2]) << 8 |
              static_cast<u32>(frame[frame.size() - 1]);
    EXPECT_EQ(verifyPayload(payload, crc), WireError::None);

    for (std::size_t i = 0; i < payload.size(); i += 37) {
        Bytes bad = payload;
        bad[i] ^= 0x01;
        EXPECT_EQ(verifyPayload(bad, crc), WireError::BadCrc);
    }
    EXPECT_EQ(verifyPayload(payload, crc ^ 1), WireError::BadCrc);
}

TEST(ServerWireFuzz, MigrationMessagesRoundTripAndRejectDamage)
{
    CellPullRequest pull;
    pull.name = "migrating/clip";
    CellPullResponse pulled;
    pulled.status = Status::Ok;
    pulled.record = Bytes(97, 0x3C);
    CellPushRequest push;
    push.name = "migrating/clip";
    push.record = Bytes(61, 0xD2);
    push.overwrite = true;
    CellPushResponse adopted;
    adopted.status = Status::Ok;
    adopted.adopted = true;

    CellPullRequest pull2;
    ASSERT_TRUE(
        parseCellPullRequest(serializeCellPullRequest(pull), pull2));
    EXPECT_EQ(pull2.name, pull.name);
    CellPullResponse pulled2;
    ASSERT_TRUE(parseCellPullResponse(
        serializeCellPullResponse(pulled), pulled2));
    EXPECT_EQ(pulled2.status, Status::Ok);
    EXPECT_EQ(pulled2.record, pulled.record);
    CellPushRequest push2;
    ASSERT_TRUE(
        parseCellPushRequest(serializeCellPushRequest(push), push2));
    EXPECT_EQ(push2.name, push.name);
    EXPECT_EQ(push2.record, push.record);
    EXPECT_TRUE(push2.overwrite);
    CellPushResponse adopted2;
    ASSERT_TRUE(parseCellPushResponse(
        serializeCellPushResponse(adopted), adopted2));
    EXPECT_TRUE(adopted2.adopted);

    // Every truncation of every migration payload fails cleanly.
    const Bytes payloads[] = {
        serializeCellPullRequest(pull),
        serializeCellPullResponse(pulled),
        serializeCellPushRequest(push),
    };
    for (const Bytes &payload : payloads) {
        for (std::size_t n = 0; n < payload.size(); ++n) {
            Bytes cut(payload.begin(), payload.begin() + n);
            CellPullRequest a;
            CellPullResponse b;
            CellPushRequest c;
            if (&payload == &payloads[0])
                EXPECT_FALSE(parseCellPullRequest(cut, a)) << n;
            if (&payload == &payloads[1])
                EXPECT_FALSE(parseCellPullResponse(cut, b)) << n;
            if (&payload == &payloads[2])
                EXPECT_FALSE(parseCellPushRequest(cut, c)) << n;
        }
    }

    // Random junk must never crash the migration parsers.
    Rng rng(4049);
    for (int trial = 0; trial < 200; ++trial) {
        Bytes junk(rng.nextBelow(160), 0);
        for (auto &b : junk)
            b = static_cast<u8>(rng.next());
        CellPullRequest a;
        CellPullResponse b;
        CellPushRequest c;
        CellPushResponse d;
        parseCellPullRequest(junk, a);
        parseCellPullResponse(junk, b);
        parseCellPushRequest(junk, c);
        parseCellPushResponse(junk, d);
    }
}

TEST(ServerWireFuzz, EpochStampedRequestTailsRoundTrip)
{
    // Default (unstamped) requests keep the pre-resize wire shape:
    // serialize -> parse yields epoch 0 and no replica grant.
    GetFramesRequest legacy;
    legacy.name = "clip";
    GetFramesRequest legacy2;
    ASSERT_TRUE(parseGetFramesRequest(
        serializeGetFramesRequest(legacy), legacy2));
    EXPECT_EQ(legacy2.ringEpoch, 0u);
    EXPECT_FALSE(legacy2.allowReplica);

    GetFramesRequest stamped;
    stamped.name = "clip";
    stamped.gop = 3;
    stamped.ringEpoch = 17;
    stamped.allowReplica = true;
    Bytes wire = serializeGetFramesRequest(stamped);
    GetFramesRequest stamped2;
    ASSERT_TRUE(parseGetFramesRequest(wire, stamped2));
    EXPECT_EQ(stamped2.ringEpoch, 17u);
    EXPECT_TRUE(stamped2.allowReplica);
    // A truncated epoch tail must not parse as a stamped request.
    for (std::size_t cut = 1; cut <= 8; ++cut) {
        Bytes shorter(wire.begin(), wire.end() - cut);
        GetFramesRequest out;
        if (parseGetFramesRequest(shorter, out))
            EXPECT_EQ(out.ringEpoch, 0u) << cut;
    }

    PutRequest put;
    put.name = "clip";
    put.width = 16;
    put.height = 16;
    put.frameCount = 1;
    put.i420 = Bytes(16 * 16 * 3 / 2, 0x30);
    put.ringEpoch = 23;
    PutRequest put2;
    ASSERT_TRUE(parsePutRequest(serializePutRequest(put), put2));
    EXPECT_EQ(put2.ringEpoch, 23u);
    PutRequest unstamped;
    unstamped.name = put.name;
    unstamped.width = put.width;
    unstamped.height = put.height;
    unstamped.frameCount = put.frameCount;
    unstamped.i420 = put.i420;
    PutRequest unstamped2;
    ASSERT_TRUE(
        parsePutRequest(serializePutRequest(unstamped), unstamped2));
    EXPECT_EQ(unstamped2.ringEpoch, 0u);
}

// --- incremental deframing --------------------------------------------

TEST(ServerDeframer, ByteAtATimeDeliveryReassembles)
{
    Bytes f1 = encodeFrame(static_cast<u8>(Opcode::Stat), 11,
                           Bytes{1, 2, 3});
    Bytes f2 = encodeFrame(static_cast<u8>(Opcode::Health), 12,
                           Bytes{});
    Bytes stream = f1;
    stream.insert(stream.end(), f2.begin(), f2.end());

    // The cruellest TCP segmentation: one byte per readiness event.
    FrameDeframer deframer;
    std::vector<FrameDeframer::Decoded> frames;
    for (u8 byte : stream) {
        deframer.feed(&byte, 1);
        FrameDeframer::Decoded out;
        while (deframer.next(out) == FrameDeframer::Result::Frame)
            frames.push_back(out);
        EXPECT_FALSE(deframer.fatal());
    }
    ASSERT_EQ(frames.size(), 2u);
    EXPECT_EQ(frames[0].header.requestId, 11u);
    EXPECT_EQ(frames[0].payload, (Bytes{1, 2, 3}));
    EXPECT_EQ(frames[1].header.requestId, 12u);
    EXPECT_TRUE(frames[1].payload.empty());
    EXPECT_EQ(deframer.buffered(), 0u);
}

TEST(ServerDeframer, MultipleFramesInOneFeed)
{
    Bytes f1 = encodeFrame(static_cast<u8>(Opcode::Stat), 1,
                           Bytes(200, 0x5A));
    Bytes f2 = encodeFrame(static_cast<u8>(Opcode::Stat), 2,
                           Bytes{7});
    Bytes stream = f1;
    stream.insert(stream.end(), f2.begin(), f2.end());
    // ... plus a torn prefix of a third frame.
    Bytes f3 = encodeFrame(static_cast<u8>(Opcode::Stat), 3,
                           Bytes{8, 9});
    stream.insert(stream.end(), f3.begin(), f3.begin() + 10);

    FrameDeframer deframer;
    deframer.feed(stream.data(), stream.size());
    FrameDeframer::Decoded out;
    ASSERT_EQ(deframer.next(out), FrameDeframer::Result::Frame);
    EXPECT_EQ(out.header.requestId, 1u);
    ASSERT_EQ(deframer.next(out), FrameDeframer::Result::Frame);
    EXPECT_EQ(out.header.requestId, 2u);
    EXPECT_EQ(deframer.next(out), FrameDeframer::Result::NeedMore);
    // Completing the torn frame releases it.
    deframer.feed(f3.data() + 10, f3.size() - 10);
    ASSERT_EQ(deframer.next(out), FrameDeframer::Result::Frame);
    EXPECT_EQ(out.header.requestId, 3u);
    EXPECT_EQ(out.payload, (Bytes{8, 9}));
}

TEST(ServerDeframer, PayloadCrcErrorIsRecoverable)
{
    Bytes bad = encodeFrame(static_cast<u8>(Opcode::Stat), 21,
                            Bytes{1, 2, 3});
    bad[bad.size() - 1] ^= 0xFF; // corrupt the payload CRC
    Bytes good = encodeFrame(static_cast<u8>(Opcode::Stat), 22,
                             Bytes{4});
    Bytes stream = bad;
    stream.insert(stream.end(), good.begin(), good.end());

    FrameDeframer deframer;
    deframer.feed(stream.data(), stream.size());
    FrameDeframer::Decoded out;
    // The corrupt frame reports an error but keeps the request id
    // (for the BadRequest echo) and consumes cleanly...
    ASSERT_EQ(deframer.next(out), FrameDeframer::Result::Error);
    EXPECT_FALSE(deframer.fatal());
    EXPECT_EQ(deframer.error(), WireError::BadCrc);
    EXPECT_EQ(out.header.requestId, 21u);
    // ... so the next frame on the stream still parses.
    ASSERT_EQ(deframer.next(out), FrameDeframer::Result::Frame);
    EXPECT_EQ(out.header.requestId, 22u);
}

TEST(ServerDeframer, HeaderDamageIsFatalAndLatches)
{
    FrameDeframer deframer;
    Bytes junk(40, 0xFF);
    deframer.feed(junk.data(), junk.size());
    FrameDeframer::Decoded out;
    ASSERT_EQ(deframer.next(out), FrameDeframer::Result::Error);
    EXPECT_TRUE(deframer.fatal());

    // Once framing is lost it stays lost: even valid bytes appended
    // later must never be interpreted as frames.
    Bytes good = encodeFrame(static_cast<u8>(Opcode::Health), 1,
                             Bytes{});
    deframer.feed(good.data(), good.size());
    EXPECT_EQ(deframer.next(out), FrameDeframer::Result::Error);
    EXPECT_TRUE(deframer.fatal());
}

// --- loopback server --------------------------------------------------

/** Archive + server + helpers shared by the loopback tests. */
class ServerLoopback : public ::testing::Test
{
  protected:
    void
    startServer(VappServerConfig config = {})
    {
        path_ = tempPath(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name());
        std::remove(path_.c_str());
        service_ = std::make_unique<ArchiveService>(path_);
        ASSERT_EQ(service_->open(true), ArchiveError::None);
        config.port = 0;
        server_ = std::make_unique<VappServer>(*service_, config);
        ASSERT_TRUE(server_->start());
    }

    void
    TearDown() override
    {
        if (server_)
            server_->stop();
        std::remove(path_.c_str());
    }

    VappClient
    client()
    {
        VappClient c;
        EXPECT_TRUE(c.connect("127.0.0.1", server_->port()));
        return c;
    }

    /** Raw client socket for hostile-bytes tests. */
    int
    rawConnect()
    {
        int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(server_->port());
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof addr) < 0) {
            ::close(fd);
            return -1;
        }
        return fd;
    }

    /** Send @p frame on raw socket @p fd and read back one whole
     * response frame — header, payload and CRC trailer — exactly as
     * the server wrote it (empty on a short read). */
    static Bytes
    rawExchange(int fd, const Bytes &frame)
    {
        if (::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL) !=
            static_cast<ssize_t>(frame.size()))
            return {};
        auto read_into = [fd](Bytes &out, std::size_t size) {
            std::size_t off = out.size();
            out.resize(off + size);
            while (off < out.size()) {
                ssize_t n =
                    ::recv(fd, out.data() + off, out.size() - off, 0);
                if (n <= 0)
                    return false;
                off += static_cast<std::size_t>(n);
            }
            return true;
        };
        Bytes response;
        WireFrameHeader header;
        if (!read_into(response, kWireHeaderBytes) ||
            parseFrameHeader(response.data(), response.size(),
                             header) != WireError::None ||
            !read_into(response, header.payloadLength + 4u))
            return {};
        return response;
    }

    std::string path_;
    std::unique_ptr<ArchiveService> service_;
    std::unique_ptr<VappServer> server_;
};

TEST_F(ServerLoopback, GetMatchesLocalServiceByteForByte)
{
    startServer();
    PreparedVideo prepared = makePrepared(71);
    ASSERT_EQ(service_->put("clip", prepared, {}),
              ArchiveError::None);

    // The local reference read (deterministic, exact).
    ArchiveGetResult local = service_->get("clip");
    ASSERT_EQ(local.error, ArchiveError::None);
    auto ranges = gopRanges(local.frameHeaders,
                            local.decoded.frames.size());
    ASSERT_GT(ranges.size(), 1u);

    VappClient c = client();
    for (u32 g = 0; g < ranges.size(); ++g) {
        GetFramesRequest request;
        request.name = "clip";
        request.gop = g;
        auto response = c.getFrames(request);
        ASSERT_TRUE(response.has_value());
        ASSERT_EQ(response->status, Status::Ok);
        EXPECT_EQ(response->gopCount, ranges.size());
        EXPECT_EQ(response->firstFrame, ranges[g].firstFrame);
        EXPECT_EQ(response->frameCount, ranges[g].frameCount);
        // The acceptance bar: wire frames are byte-identical to the
        // local ArchiveService read.
        EXPECT_EQ(response->i420,
                  packFramesI420(local.decoded,
                                 ranges[g].firstFrame,
                                 ranges[g].frameCount));
    }
}

TEST_F(ServerLoopback, CacheHitSkipsTheReadPath)
{
    startServer();
    PreparedVideo prepared = makePrepared(72);
    ASSERT_EQ(service_->put("clip", prepared, {}),
              ArchiveError::None);

    VappClient c = client();
    GetFramesRequest request;
    request.name = "clip";
    request.gop = 0;

    u64 gets_before = counterValue("archive.gets");
    u64 gop_reads_before = counterValue("server.get.gop_reads");
    auto miss = c.getFrames(request);
    ASSERT_TRUE(miss.has_value());
    ASSERT_EQ(miss->status, Status::Ok);
    EXPECT_FALSE(miss->fromCache);

    // The second read must come from the cache: identical bytes and
    // — the proof it skipped BCH/decrypt/decode — no archive read.
    u64 gets_after_miss = counterValue("archive.gets");
    auto hit = c.getFrames(request);
    ASSERT_TRUE(hit.has_value());
    ASSERT_EQ(hit->status, Status::Ok);
    EXPECT_TRUE(hit->fromCache);
    EXPECT_EQ(hit->i420, miss->i420);
    if (telemetry::kEnabled) {
        EXPECT_EQ(gets_after_miss, gets_before + 1);
        EXPECT_EQ(counterValue("archive.gets"), gets_after_miss);
    }

    // The fill rule: the lone GOP-0 miss decoded and cached GOP 0
    // only, so GOP 1 misses. With GOP 0 cached, that miss reads the
    // whole video once and caches every GOP, so GOP 2 is a hit with
    // no archive read.
    u64 fills_before = counterValue("server.get.video_fills");
    request.gop = 1;
    auto sibling = c.getFrames(request);
    ASSERT_TRUE(sibling.has_value());
    ASSERT_EQ(sibling->status, Status::Ok);
    EXPECT_FALSE(sibling->fromCache);
    u64 gets_after_sibling = counterValue("archive.gets");
    request.gop = 2;
    auto other = c.getFrames(request);
    ASSERT_TRUE(other.has_value());
    ASSERT_EQ(other->status, Status::Ok);
    EXPECT_TRUE(other->fromCache);
    if (telemetry::kEnabled) {
        EXPECT_EQ(counterValue("server.get.gop_reads"),
                  gop_reads_before + 1);
        EXPECT_EQ(gets_after_sibling, gets_after_miss + 1);
        EXPECT_EQ(counterValue("archive.gets"), gets_after_sibling);
        EXPECT_EQ(counterValue("server.get.video_fills"),
                  fills_before + 1);
    }
}

TEST_F(ServerLoopback, ReplicaGetOfAHugeStreamClaimServesDegraded)
{
    // A successor holding only a replica blob that claims a 2^63-byte
    // stream answers a replica-allowed GET with one concealed GOP
    // instead of aborting, and keeps serving.
    startServer();
    ASSERT_EQ(service_->putReplicaMeta("huge", hugeStreamReplicaBlob(57)),
              ArchiveError::None);
    VappClient c = client();
    GetFramesRequest request;
    request.name = "huge";
    request.gop = 1;
    request.allowReplica = true;
    auto degraded = c.getFrames(request);
    ASSERT_TRUE(degraded.has_value());
    EXPECT_EQ(degraded->status, Status::Degraded);
    EXPECT_EQ(degraded->gopCount, 3u);
    EXPECT_EQ(degraded->firstFrame, 8u);
    EXPECT_EQ(degraded->frameCount, 8u);
    EXPECT_EQ(degraded->i420.size(), 8u * 64 * 64 * 3 / 2);

    request.allowReplica = false;
    auto missing = c.getFrames(request);
    ASSERT_TRUE(missing.has_value());
    EXPECT_EQ(missing->status, Status::NotFound);
}

TEST_F(ServerLoopback, InjectedGetMatchesLocalBitExactly)
{
    startServer();
    PreparedVideo prepared = makePrepared(73);
    ASSERT_EQ(service_->put("clip", prepared, {}),
              ArchiveError::None);

    ArchiveGetOptions options;
    options.injectRawBer = 1e-3;
    options.seed = 2024;
    ArchiveGetResult local = service_->get("clip", options);
    ASSERT_EQ(local.error, ArchiveError::None);
    auto ranges = gopRanges(local.frameHeaders,
                            local.decoded.frames.size());

    VappClient c = client();
    GetFramesRequest request;
    request.name = "clip";
    request.gop = 0;
    request.injectRawBer = 1e-3;
    request.seed = 2024;
    auto response = c.getFrames(request);
    ASSERT_TRUE(response.has_value());
    ASSERT_TRUE(response->status == Status::Ok ||
                response->status == Status::Partial);
    // Same seed, same BER: the stochastic read reproduces bit for
    // bit over the wire, and is never served from cache.
    EXPECT_FALSE(response->fromCache);
    EXPECT_EQ(response->i420,
              packFramesI420(local.decoded, ranges[0].firstFrame,
                             ranges[0].frameCount));
    EXPECT_EQ(response->blocksCorrected,
              local.cells.blocksCorrected);
    EXPECT_EQ(response->blocksUncorrectable,
              local.cells.blocksUncorrectable);

    auto again = c.getFrames(request);
    ASSERT_TRUE(again.has_value());
    EXPECT_FALSE(again->fromCache);
}

TEST_F(ServerLoopback, NotFoundAndKeyRequiredMapToTheWire)
{
    startServer();
    PreparedVideo secret = makePrepared(74);
    ArchivePutOptions with_key;
    EncryptionConfig enc;
    enc.mode = CipherMode::CTR;
    enc.key = Bytes(32, 0x42);
    enc.keyId = 7;
    with_key.encryption = enc;
    ASSERT_EQ(service_->put("secret", secret, with_key),
              ArchiveError::None);

    VappClient c = client();
    GetFramesRequest request;
    request.name = "nope";
    auto missing = c.getFrames(request);
    ASSERT_TRUE(missing.has_value());
    EXPECT_EQ(missing->status, Status::NotFound);

    request.name = "secret";
    auto locked = c.getFrames(request);
    ASSERT_TRUE(locked.has_value());
    EXPECT_EQ(locked->status, Status::KeyRequired);

    request.key = enc.key;
    auto opened = c.getFrames(request);
    ASSERT_TRUE(opened.has_value());
    EXPECT_EQ(opened->status, Status::Ok);

    // A GOP index past the end is a miss too.
    request.gop = 1000;
    auto past = c.getFrames(request);
    ASSERT_TRUE(past.has_value());
    EXPECT_EQ(past->status, Status::NotFound);
}

TEST_F(ServerLoopback, RemotePutRoundTripsThroughTheArchive)
{
    startServer();
    Video source = generateSynthetic(tinySpec(75));

    VappClient c = client();
    PutRequest put;
    put.name = "pushed";
    put.width = static_cast<u16>(source.width());
    put.height = static_cast<u16>(source.height());
    put.frameCount = static_cast<u32>(source.frames.size());
    put.i420 = packFramesI420(source, 0, source.frames.size());
    auto stored = c.put(put);
    ASSERT_TRUE(stored.has_value());
    ASSERT_EQ(stored->status, Status::Ok);
    EXPECT_GT(stored->payloadBytes, 0u);
    EXPECT_GE(stored->cellBytes, stored->payloadBytes);

    // The server's own encode is deterministic: a wire get of the
    // pushed video matches a local read of what the server stored.
    ArchiveGetResult local = service_->get("pushed");
    ASSERT_EQ(local.error, ArchiveError::None);
    auto ranges = gopRanges(local.frameHeaders,
                            local.decoded.frames.size());
    GetFramesRequest request;
    request.name = "pushed";
    auto response = c.getFrames(request);
    ASSERT_TRUE(response.has_value());
    ASSERT_EQ(response->status, Status::Ok);
    EXPECT_EQ(response->i420,
              packFramesI420(local.decoded, ranges[0].firstFrame,
                             ranges[0].frameCount));

    auto listing = c.stat();
    ASSERT_TRUE(listing.has_value());
    ASSERT_EQ(listing->videos.size(), 1u);
    EXPECT_EQ(listing->videos[0].name, "pushed");
    EXPECT_EQ(listing->videos[0].cellBytes, stored->cellBytes);
}

TEST_F(ServerLoopback, HostileBytesGetCleanErrorsNeverCrashes)
{
    startServer();

    // Garbage that is not even a frame header: one BadRequest, then
    // the server hangs up (the stream cannot resync).
    int fd = rawConnect();
    ASSERT_GE(fd, 0);
    Bytes junk(64, 0xFF);
    ASSERT_EQ(::send(fd, junk.data(), junk.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(junk.size()));
    u8 buf[64];
    ssize_t got = ::recv(fd, buf, sizeof buf, 0);
    EXPECT_GT(got, 0); // the BadRequest answer
    // ... and then EOF.
    while (got > 0)
        got = ::recv(fd, buf, sizeof buf, 0);
    EXPECT_EQ(got, 0);
    ::close(fd);

    // A frame whose payload CRC lies: BadRequest, but the connection
    // survives (framing stayed intact) and keeps serving.
    fd = rawConnect();
    ASSERT_GE(fd, 0);
    Bytes frame = encodeFrame(static_cast<u8>(Opcode::Stat), 5,
                              Bytes{});
    frame[frame.size() - 1] ^= 0xFF;
    ASSERT_EQ(::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(frame.size()));
    // Read exactly one response frame: its kind must be BadRequest.
    u8 header[kWireHeaderBytes];
    std::size_t off = 0;
    while (off < sizeof header) {
        ssize_t n = ::recv(fd, header + off, sizeof header - off, 0);
        ASSERT_GT(n, 0);
        off += static_cast<std::size_t>(n);
    }
    WireFrameHeader parsed;
    ASSERT_EQ(parseFrameHeader(header, sizeof header, parsed),
              WireError::None);
    EXPECT_EQ(parsed.kind, static_cast<u8>(Status::BadRequest));
    EXPECT_EQ(parsed.requestId, 5u);

    // An unknown opcode on the same connection: also BadRequest,
    // also survivable — drain that response's payload first.
    std::vector<u8> drain(parsed.payloadLength + 4);
    off = 0;
    while (off < drain.size()) {
        ssize_t n =
            ::recv(fd, drain.data() + off, drain.size() - off, 0);
        ASSERT_GT(n, 0);
        off += static_cast<std::size_t>(n);
    }
    Bytes odd = encodeFrame(99, 6, Bytes{});
    ASSERT_EQ(::send(fd, odd.data(), odd.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(odd.size()));
    off = 0;
    while (off < sizeof header) {
        ssize_t n = ::recv(fd, header + off, sizeof header - off, 0);
        ASSERT_GT(n, 0);
        off += static_cast<std::size_t>(n);
    }
    ASSERT_EQ(parseFrameHeader(header, sizeof header, parsed),
              WireError::None);
    EXPECT_EQ(parsed.kind, static_cast<u8>(Status::BadRequest));
    EXPECT_EQ(parsed.requestId, 6u);
    ::close(fd);

    // The server is still perfectly healthy.
    VappClient c = client();
    auto health = c.health();
    ASSERT_TRUE(health.has_value());
    EXPECT_EQ(health->status, Status::Ok);
}

TEST_F(ServerLoopback, FullQueueAnswersRetry)
{
    VappServerConfig config;
    config.queueCapacity = 4;
    config.workers = 2;
    startServer(config);
    PreparedVideo prepared = makePrepared(76);
    ASSERT_EQ(service_->put("clip", prepared, {}),
              ArchiveError::None);

    // Freeze the workers so admissions pile up deterministically:
    // capacity jobs queue, the overflow must bounce with Retry. A
    // far-off deadline keeps these requests out of single-flight
    // coalescing (which would fold them into one queue slot) without
    // ever expiring.
    server_->setDrainPaused(true);
    const std::size_t total = 9; // capacity 4 + 5 overflow
    std::vector<std::unique_ptr<VappClient>> clients;
    GetFramesRequest request;
    request.name = "clip";
    request.deadlineMs = 60000;
    Bytes payload = serializeGetFramesRequest(request);
    for (std::size_t i = 0; i < total; ++i) {
        clients.push_back(std::make_unique<VappClient>());
        ASSERT_TRUE(
            clients.back()->connect("127.0.0.1", server_->port()));
        ASSERT_TRUE(
            clients.back()->send(Opcode::GetFrames, payload));
    }

    // Wait until every request was either admitted or rejected.
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::seconds(10);
    while (server_->queueDepth() + server_->queueRejected() <
               total &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_EQ(server_->queueDepth(), 4u);
    EXPECT_EQ(server_->queueRejected(), 5u);

    server_->setDrainPaused(false);
    std::size_t retries = 0, served = 0;
    for (auto &c : clients) {
        auto raw = c->receive();
        ASSERT_TRUE(raw.has_value());
        if (raw->kind == static_cast<u8>(Status::Retry))
            ++retries;
        else if (raw->kind == static_cast<u8>(Status::Ok))
            ++served;
    }
    // Exactly the overflow got the backpressure signal; every
    // admitted request got its real answer — nothing lost.
    EXPECT_EQ(retries, 5u);
    EXPECT_EQ(served, 4u);
}

TEST_F(ServerLoopback, DeadlineExpiredWhileQueuedIsShed)
{
    VappServerConfig config;
    config.workers = 1;
    startServer(config);
    PreparedVideo prepared = makePrepared(77);
    ASSERT_EQ(service_->put("clip", prepared, {}),
              ArchiveError::None);

    server_->setDrainPaused(true);
    VappClient c = client();
    GetFramesRequest request;
    request.name = "clip";
    request.deadlineMs = 1;
    ASSERT_TRUE(c.send(Opcode::GetFrames,
                       serializeGetFramesRequest(request)));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    server_->setDrainPaused(false);

    auto raw = c.receive();
    ASSERT_TRUE(raw.has_value());
    EXPECT_EQ(raw->kind, static_cast<u8>(Status::Deadline));

    // Without a deadline the same queue wait is fine.
    request.deadlineMs = 0;
    auto ok = c.getFrames(request);
    ASSERT_TRUE(ok.has_value());
    EXPECT_EQ(ok->status, Status::Ok);
}

TEST_F(ServerLoopback, HealthAnswersWhileSaturated)
{
    VappServerConfig config;
    config.queueCapacity = 2;
    startServer(config);
    PreparedVideo prepared = makePrepared(78);
    ASSERT_EQ(service_->put("clip", prepared, {}),
              ArchiveError::None);

    server_->setDrainPaused(true);
    GetFramesRequest request;
    request.name = "clip";
    // Bypass coalescing (see FullQueueAnswersRetry).
    request.deadlineMs = 60000;
    Bytes payload = serializeGetFramesRequest(request);
    VappClient pipelined = client();
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(pipelined.send(Opcode::GetFrames, payload));

    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::seconds(10);
    while (server_->queueDepth() + server_->queueRejected() < 4 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    // HEALTH bypasses the queue, so it answers even now.
    VappClient probe = client();
    auto health = probe.health();
    ASSERT_TRUE(health.has_value());
    EXPECT_EQ(health->status, Status::Ok);
    EXPECT_EQ(health->queueDepth, 2u);
    EXPECT_EQ(health->queueCapacity, 2u);
    EXPECT_GE(health->queueRejected, 2u);
    EXPECT_EQ(health->videos, 1u);

    server_->setDrainPaused(false);
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(pipelined.receive().has_value());
}

TEST_F(ServerLoopback, ScrubInvalidatesTheCache)
{
    startServer();
    PreparedVideo prepared = makePrepared(79);
    ASSERT_EQ(service_->put("clip", prepared, {}),
              ArchiveError::None);

    VappClient c = client();
    GetFramesRequest request;
    request.name = "clip";
    ASSERT_TRUE(c.getFrames(request).has_value());
    EXPECT_GT(server_->cache().entries(), 0u);

    ScrubRequest scrub;
    auto report = c.scrub(scrub);
    ASSERT_TRUE(report.has_value());
    EXPECT_EQ(report->status, Status::Ok);
    EXPECT_EQ(report->videos, 1u);
    EXPECT_EQ(server_->cache().entries(), 0u);

    auto fresh = c.getFrames(request);
    ASSERT_TRUE(fresh.has_value());
    EXPECT_FALSE(fresh->fromCache);
}

TEST_F(ServerLoopback, SingleFlightColdGetsCoalesce)
{
    VappServerConfig config;
    config.workers = 2;
    startServer(config);
    PreparedVideo prepared = makePrepared(80);
    ASSERT_EQ(service_->put("clip", prepared, {}),
              ArchiveError::None);

    // Freeze the workers, then land N identical cold GETs: the
    // first becomes the decode leader (one queue slot), the rest
    // attach as waiters — deterministically, because flight
    // registration happens at admission on the one event-loop
    // thread, not in the worker race.
    server_->setDrainPaused(true);
    const std::size_t total = 5;
    std::vector<std::unique_ptr<VappClient>> clients;
    GetFramesRequest request;
    request.name = "clip";
    Bytes payload = serializeGetFramesRequest(request);
    for (std::size_t i = 0; i < total; ++i) {
        clients.push_back(std::make_unique<VappClient>());
        ASSERT_TRUE(
            clients.back()->connect("127.0.0.1", server_->port()));
        ASSERT_TRUE(
            clients.back()->send(Opcode::GetFrames, payload));
    }
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::seconds(10);
    while (server_->coalescedGets() < total - 1 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_EQ(server_->coalescedGets(), total - 1);
    EXPECT_EQ(server_->queueDepth(), 1u);

    u64 gets_before = counterValue("archive.gets");
    server_->setDrainPaused(false);

    std::vector<GetFramesResponse> responses;
    std::size_t fresh = 0;
    for (auto &c : clients) {
        auto raw = c->receive();
        ASSERT_TRUE(raw.has_value());
        GetFramesResponse response;
        ASSERT_TRUE(
            parseGetFramesResponse(raw->payload, response));
        ASSERT_EQ(response.status, Status::Ok);
        if (!response.fromCache)
            ++fresh;
        responses.push_back(std::move(response));
    }
    // One decode served all five: the leader's fresh response plus
    // four byte-identical responses off the shared cache entry.
    EXPECT_EQ(fresh, 1u);
    for (std::size_t i = 1; i < responses.size(); ++i) {
        EXPECT_EQ(responses[i].i420, responses[0].i420);
        EXPECT_EQ(responses[i].firstFrame, responses[0].firstFrame);
        EXPECT_EQ(responses[i].frameCount,
                  responses[0].frameCount);
    }
    if (telemetry::kEnabled) {
        EXPECT_EQ(counterValue("archive.gets"), gets_before + 1);
        EXPECT_GE(counterValue("server.coalesced"), total - 1);
    }
}

TEST_F(ServerLoopback, CacheOffMissPacksOnlyTheGopsAskedFor)
{
    VappServerConfig config;
    config.cacheBytes = 0;
    config.workers = 2;
    startServer(config);
    SyntheticSpec spec = tinySpec(83);
    spec.frames = 32;
    EncoderConfig encoder;
    encoder.gop.gopSize = 4;
    encoder.gop.bFrames = 1;
    ASSERT_EQ(service_->put("clip",
                            prepareVideo(generateSynthetic(spec),
                                         encoder,
                                         EccAssignment::paperTable1()),
                            {}),
              ArchiveError::None);
    ArchiveGetResult local = service_->get("clip");
    ASSERT_EQ(local.error, ArchiveError::None);
    auto ranges = gopRanges(local.frameHeaders,
                            local.decoded.frames.size());
    ASSERT_EQ(ranges.size(), 8u);

    // A lone cold GET of GOP 0 leads a flight nobody joins: with no
    // cache to fill it packs its own GOP and no other.
    VappClient c = client();
    GetFramesRequest request;
    request.name = "clip";
    u64 packed_before = counterValue("server.gops_packed");
    auto lone = c.getFrames(request);
    ASSERT_TRUE(lone.has_value());
    ASSERT_EQ(lone->status, Status::Ok);
    EXPECT_FALSE(lone->fromCache);
    if (telemetry::kEnabled) {
        EXPECT_EQ(counterValue("server.gops_packed"),
                  packed_before + 1);
    }

    // Waiters for sibling GOPs 3, 5 and 5 again: one pack each for
    // the leader's GOP 0 and for GOPs 3 and 5, all answers exact.
    server_->setDrainPaused(true);
    const std::vector<u32> gops = {0, 3, 5, 5};
    std::vector<std::unique_ptr<VappClient>> clients;
    const u64 coalesced_before = server_->coalescedGets();
    for (u32 g : gops) {
        request.gop = g;
        clients.push_back(std::make_unique<VappClient>());
        ASSERT_TRUE(
            clients.back()->connect("127.0.0.1", server_->port()));
        ASSERT_TRUE(clients.back()->send(
            Opcode::GetFrames, serializeGetFramesRequest(request)));
        // Admission order fixes who leads: wait for each to land.
        auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(10);
        while (server_->queueDepth() +
                       (server_->coalescedGets() - coalesced_before) <
                   clients.size() &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(server_->coalescedGets() - coalesced_before,
              gops.size() - 1);
    packed_before = counterValue("server.gops_packed");
    server_->setDrainPaused(false);
    for (std::size_t i = 0; i < gops.size(); ++i) {
        auto raw = clients[i]->receive();
        ASSERT_TRUE(raw.has_value());
        GetFramesResponse response;
        ASSERT_TRUE(
            parseGetFramesResponse(std::move(raw->payload), response));
        ASSERT_EQ(response.status, Status::Ok);
        EXPECT_EQ(response.fromCache, i > 0);
        const GopRange &range = ranges[gops[i]];
        EXPECT_EQ(response.firstFrame, range.firstFrame);
        EXPECT_EQ(response.frameCount, range.frameCount);
        EXPECT_EQ(response.i420,
                  packFramesI420(local.decoded, range.firstFrame,
                                 range.frameCount));
    }
    if (telemetry::kEnabled) {
        EXPECT_EQ(counterValue("server.gops_packed"),
                  packed_before + 3);
    }
}

TEST_F(ServerLoopback, PartialWritesResumeViaEpollout)
{
    VappServerConfig config;
    config.sndbufBytes = 4096; // tiny: force EAGAIN mid-response
    startServer(config);
    PreparedVideo prepared = makePrepared(81);
    ASSERT_EQ(service_->put("clip", prepared, {}),
              ArchiveError::None);

    ArchiveGetResult local = service_->get("clip");
    ASSERT_EQ(local.error, ArchiveError::None);
    auto ranges = gopRanges(local.frameHeaders,
                            local.decoded.frames.size());
    ASSERT_FALSE(ranges.empty());

    // A client that reads nothing for a while: with tiny socket
    // buffers on both ends the ~48 KiB response cannot fit in
    // flight, so the server must park the write mid-frame and
    // continue it when EPOLLOUT reports the socket drained.
    u64 stalls_before = counterValue("server.write_stalls");
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    int rcvbuf = 4096;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf,
                 sizeof rcvbuf);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server_->port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof addr),
              0);

    GetFramesRequest request;
    request.name = "clip";
    Bytes frame =
        encodeFrame(static_cast<u8>(Opcode::GetFrames), 77,
                    serializeGetFramesRequest(request));
    ASSERT_EQ(::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(frame.size()));
    // Give the server time to decode and slam into the full socket.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));

    auto read_all = [fd](u8 *data, std::size_t size) {
        std::size_t off = 0;
        while (off < size) {
            ssize_t n = ::recv(fd, data + off, size - off, 0);
            if (n <= 0)
                return false;
            off += static_cast<std::size_t>(n);
        }
        return true;
    };
    u8 header[kWireHeaderBytes];
    ASSERT_TRUE(read_all(header, sizeof header));
    WireFrameHeader parsed;
    ASSERT_EQ(parseFrameHeader(header, sizeof header, parsed),
              WireError::None);
    EXPECT_EQ(parsed.kind, static_cast<u8>(Status::Ok));
    EXPECT_EQ(parsed.requestId, 77u);
    Bytes body(parsed.payloadLength);
    u8 crc_buf[4];
    ASSERT_TRUE(read_all(body.data(), body.size()));
    ASSERT_TRUE(read_all(crc_buf, sizeof crc_buf));
    ::close(fd);

    // The reassembled response survived the stall byte for byte.
    u32 crc = static_cast<u32>(crc_buf[0]) << 24 |
              static_cast<u32>(crc_buf[1]) << 16 |
              static_cast<u32>(crc_buf[2]) << 8 |
              static_cast<u32>(crc_buf[3]);
    EXPECT_EQ(verifyPayload(body, crc), WireError::None);
    GetFramesResponse response;
    ASSERT_TRUE(parseGetFramesResponse(body, response));
    EXPECT_EQ(response.status, Status::Ok);
    EXPECT_EQ(response.i420,
              packFramesI420(local.decoded, ranges[0].firstFrame,
                             ranges[0].frameCount));
    if (telemetry::kEnabled)
        EXPECT_GT(counterValue("server.write_stalls"),
                  stalls_before);
}

TEST_F(ServerLoopback, ServerShutdownYieldsTypedConnectionClosed)
{
    startServer();
    PreparedVideo prepared = makePrepared(82);
    ASSERT_EQ(service_->put("clip", prepared, {}),
              ArchiveError::None);

    VappClient c = client();
    GetFramesRequest request;
    request.name = "clip";
    auto first = c.getFrames(request);
    ASSERT_TRUE(first.has_value());

    // Kill the server between frames: the next call must surface a
    // typed ConnectionClosed — never a silent short read — so a
    // pipelined caller can tell "the server went away, reconnect
    // and retry" from "a response was torn mid-frame".
    server_->stop();
    auto second = c.getFrames(request);
    EXPECT_FALSE(second.has_value());
    EXPECT_EQ(c.lastError(), WireError::ConnectionClosed);
}

TEST_F(ServerLoopback, WireFramesMatchGoldenBytes)
{
    // Whole response frames for one fixed AES-CTR clip — a PUT, the
    // cold GET that decodes it and the cache hit after — pinned
    // byte for byte against fixtures captured from the bytewise CRC
    // and AES implementations, so faster kernels or a new packing
    // path cannot move a served byte.
    startServer();
    Video clip = goldenClip();
    PutRequest put;
    put.name = "golden";
    put.width = static_cast<u16>(clip.width());
    put.height = static_cast<u16>(clip.height());
    put.frameCount = static_cast<u32>(clip.frames.size());
    put.i420 = packFramesI420(clip, 0, clip.frames.size());
    put.key = Bytes(16, 0x3C);
    put.cipherMode = static_cast<u8>(CipherMode::CTR);
    put.keyId = 7;
    put.ivSeed = 11;
    GetFramesRequest get;
    get.name = "golden";
    get.key = put.key;

    int fd = rawConnect();
    ASSERT_GE(fd, 0);
    Bytes put_frame = rawExchange(
        fd, encodeFrame(static_cast<u8>(Opcode::Put), 1,
                        serializePutRequest(put)));
    Bytes miss_frame = rawExchange(
        fd, encodeFrame(static_cast<u8>(Opcode::GetFrames), 2,
                        serializeGetFramesRequest(get)));
    Bytes hit_frame = rawExchange(
        fd, encodeFrame(static_cast<u8>(Opcode::GetFrames), 3,
                        serializeGetFramesRequest(get)));
    ::close(fd);

    EXPECT_EQ(hexOf(put_frame), readGoldenHex("server_put_response"));
    EXPECT_EQ(hexOf(miss_frame),
              readGoldenHex("server_get_miss_response"));
    EXPECT_EQ(hexOf(hit_frame),
              readGoldenHex("server_get_hit_response"));
}

TEST_F(ServerLoopback, OverlongNameIsRefusedAndTheArchiveSurvives)
{
    // A name beyond the container directory's u16 length prefix is
    // refused at PUT: stored, it would have made the next flush
    // write an archive that parses to nothing.
    startServer();
    Video clip = goldenClip();
    PutRequest put;
    put.name = "kept";
    put.width = static_cast<u16>(clip.width());
    put.height = static_cast<u16>(clip.height());
    put.frameCount = static_cast<u32>(clip.frames.size());
    put.i420 = packFramesI420(clip, 0, clip.frames.size());
    VappClient c = client();
    auto kept = c.put(put);
    ASSERT_TRUE(kept.has_value());
    ASSERT_EQ(kept->status, Status::Ok);
    put.name.assign(kMaxArchiveNameBytes + 1, 'n');
    auto refused = c.put(put);
    ASSERT_TRUE(refused.has_value());
    EXPECT_EQ(refused->status, Status::BadRequest);

    server_->stop();
    ASSERT_EQ(service_->flush(), ArchiveError::None);
    ArchiveService reopened(path_);
    ASSERT_EQ(reopened.open(false), ArchiveError::None);
    EXPECT_EQ(reopened.videoNames(), std::vector<std::string>{"kept"});
}

// --- importance-aware load shedding -----------------------------------

/** Same loopback harness, separate suite name so the TSan job's
 * "Shed" regex picks these up. */
using ServerShed = ServerLoopback;

TEST_F(ServerShed, QueuePressureDegradesOnlyTheOverloadedTail)
{
    VappServerConfig config;
    config.queueCapacity = 4;
    config.workers = 2;
    config.shedThreshold = 1;
    startServer(config);
    for (u64 i = 0; i < 5; ++i)
        ASSERT_EQ(service_->put("clip" + std::to_string(i),
                                makePrepared(90 + i), {}),
                  ArchiveError::None);

    // Warm the cache for clip0 while the pool still drains.
    VappClient warm = client();
    GetFramesRequest request;
    request.gop = 0;
    request.conceal = true;
    request.name = "clip0";
    auto warmed = warm.getFrames(request);
    ASSERT_TRUE(warmed.has_value());
    ASSERT_EQ(warmed->status, Status::Ok);

    // Freeze the drain so admissions stack up. Distinct names keep
    // the requests out of single-flight coalescing (waiters do not
    // consume queue slots). Admission depths run 0,1,2,3 — only the
    // last one reaches 3/4 of capacity and is flagged for shedding.
    server_->setDrainPaused(true);
    std::vector<std::unique_ptr<VappClient>> clients;
    for (int i = 1; i <= 4; ++i) {
        request.name = "clip" + std::to_string(i);
        clients.push_back(std::make_unique<VappClient>());
        ASSERT_TRUE(
            clients.back()->connect("127.0.0.1", server_->port()));
        ASSERT_TRUE(clients.back()->send(
            Opcode::GetFrames, serializeGetFramesRequest(request)));
    }
    auto wait_deadline = std::chrono::steady_clock::now() +
                         std::chrono::seconds(10);
    while (server_->queueDepth() < 4 &&
           std::chrono::steady_clock::now() < wait_deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(server_->queueDepth(), 4u);

    // Cache hits stay full-fidelity even under pressure: the hit is
    // answered inline before the shed decision ever runs.
    request.name = "clip0";
    auto hit = warm.getFrames(request);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->status, Status::Ok);
    EXPECT_TRUE(hit->fromCache);

    server_->setDrainPaused(false);
    std::size_t ok = 0;
    int degraded_clip = -1;
    for (std::size_t i = 0; i < clients.size(); ++i) {
        auto raw = clients[i]->receive();
        ASSERT_TRUE(raw.has_value());
        GetFramesResponse response;
        ASSERT_TRUE(
            parseGetFramesResponse(raw->payload, response));
        if (response.status == Status::Degraded) {
            degraded_clip = static_cast<int>(i) + 1;
            // Fidelity loss is flagged and quantified.
            EXPECT_GT(response.streamsShed, 0u);
            EXPECT_GT(response.bytesShed, 0u);
            EXPECT_GT(response.shedDbEst, 0.0);
            EXPECT_FALSE(response.fromCache);
            EXPECT_FALSE(response.i420.empty());
        } else {
            EXPECT_EQ(response.status, Status::Ok);
            EXPECT_EQ(response.streamsShed, 0u);
            ++ok;
        }
    }
    EXPECT_EQ(ok, 3u);
    ASSERT_NE(degraded_clip, -1);
    EXPECT_EQ(server_->shedResponses(), 1u);

    // A degraded answer must never seed the cache: the next read of
    // that clip decodes fresh and comes back full-fidelity.
    VappClient again = client();
    request.name = "clip" + std::to_string(degraded_clip);
    auto full = again.getFrames(request);
    ASSERT_TRUE(full.has_value());
    EXPECT_EQ(full->status, Status::Ok);
    EXPECT_EQ(full->streamsShed, 0u);

    // HEALTH surfaces both the knob and the running count.
    auto health = again.health();
    ASSERT_TRUE(health.has_value());
    EXPECT_EQ(health->shedThreshold, 1u);
    EXPECT_EQ(health->shedResponses, 1u);
}

TEST_F(ServerShed, DeadlineRiskShedsInsteadOfMissing)
{
    VappServerConfig config;
    config.workers = 1;
    config.shedThreshold = 1;
    startServer(config);
    ASSERT_EQ(service_->put("clip", makePrepared(96), {}),
              ArchiveError::None);

    // Hold the job queued past half its deadline (but well short of
    // the whole deadline): the worker must choose degraded-on-time
    // over full-fidelity-late.
    server_->setDrainPaused(true);
    VappClient c = client();
    GetFramesRequest request;
    request.name = "clip";
    request.conceal = true;
    request.deadlineMs = 3000;
    ASSERT_TRUE(c.send(Opcode::GetFrames,
                       serializeGetFramesRequest(request)));
    std::this_thread::sleep_for(
        std::chrono::milliseconds(1600));
    server_->setDrainPaused(false);

    auto raw = c.receive();
    ASSERT_TRUE(raw.has_value());
    GetFramesResponse response;
    ASSERT_TRUE(parseGetFramesResponse(raw->payload, response));
    EXPECT_EQ(response.status, Status::Degraded);
    EXPECT_GT(response.streamsShed, 0u);

    // The same deadline with an idle queue is met at full fidelity.
    auto relaxed = c.getFrames(request);
    ASSERT_TRUE(relaxed.has_value());
    EXPECT_EQ(relaxed->status, Status::Ok);
    EXPECT_EQ(relaxed->streamsShed, 0u);
}

TEST_F(ServerShed, DisabledThresholdNeverDegrades)
{
    VappServerConfig config;
    config.queueCapacity = 4;
    config.workers = 2;
    startServer(config); // shedThreshold left 0
    for (u64 i = 0; i < 4; ++i)
        ASSERT_EQ(service_->put("clip" + std::to_string(i),
                                makePrepared(120 + i), {}),
                  ArchiveError::None);

    server_->setDrainPaused(true);
    std::vector<std::unique_ptr<VappClient>> clients;
    for (int i = 0; i < 4; ++i) {
        GetFramesRequest request;
        request.name = "clip" + std::to_string(i);
        clients.push_back(std::make_unique<VappClient>());
        ASSERT_TRUE(
            clients.back()->connect("127.0.0.1", server_->port()));
        ASSERT_TRUE(clients.back()->send(
            Opcode::GetFrames, serializeGetFramesRequest(request)));
    }
    auto wait_deadline = std::chrono::steady_clock::now() +
                         std::chrono::seconds(10);
    while (server_->queueDepth() < 4 &&
           std::chrono::steady_clock::now() < wait_deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    server_->setDrainPaused(false);

    for (auto &c : clients) {
        auto raw = c->receive();
        ASSERT_TRUE(raw.has_value());
        GetFramesResponse response;
        ASSERT_TRUE(
            parseGetFramesResponse(raw->payload, response));
        EXPECT_EQ(response.status, Status::Ok);
        EXPECT_EQ(response.streamsShed, 0u);
    }
    EXPECT_EQ(server_->shedResponses(), 0u);
}

// --- concurrency ------------------------------------------------------

TEST(ServerConcurrency, MixedLoopbackLoadLosesNothing)
{
    std::string path = tempPath("concurrency");
    std::remove(path.c_str());
    ArchiveService service(path);
    ASSERT_EQ(service.open(true), ArchiveError::None);

    VappServerConfig config;
    config.port = 0;
    config.workers = 4;
    VappServer server(service, config);
    ASSERT_TRUE(server.start());

    // N clients, each on its own connection: one put, then gets of
    // its own video interleaved with everyone's scrubs and stats.
    const int clients = 6;
    const int gets_per_client = 3;
    std::vector<Video> sources;
    for (int i = 0; i < clients; ++i)
        sources.push_back(generateSynthetic(
            tinySpec(300 + static_cast<u64>(i))));

    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int i = 0; i < clients; ++i) {
        threads.emplace_back([&, i] {
            VappClient c;
            if (!c.connect("127.0.0.1", server.port())) {
                ++failures;
                return;
            }
            const Video &source = sources[static_cast<size_t>(i)];
            PutRequest put;
            put.name = "clip" + std::to_string(i);
            put.width = static_cast<u16>(source.width());
            put.height = static_cast<u16>(source.height());
            put.frameCount =
                static_cast<u32>(source.frames.size());
            put.i420 =
                packFramesI420(source, 0, source.frames.size());
            auto stored = c.put(put);
            if (!stored || stored->status != Status::Ok) {
                ++failures;
                return;
            }
            for (int g = 0; g < gets_per_client; ++g) {
                GetFramesRequest request;
                request.name = put.name;
                auto response = c.getFrames(request);
                if (!response ||
                    response->status != Status::Ok) {
                    ++failures;
                    return;
                }
                if (i % 2 == 0) {
                    auto listing = c.stat();
                    if (!listing ||
                        listing->status != Status::Ok)
                        ++failures;
                } else {
                    ScrubRequest scrub;
                    auto report = c.scrub(scrub);
                    if (!report ||
                        report->status != Status::Ok)
                        ++failures;
                }
            }
        });
    }
    for (auto &t : threads)
        t.join();

    // Every request got its response and every video survived the
    // chaos with deterministic contents: a fresh read through the
    // service matches a fresh read over the wire.
    EXPECT_EQ(failures.load(), 0);
    ASSERT_EQ(service.videoCount(),
              static_cast<std::size_t>(clients));
    VappClient check;
    ASSERT_TRUE(check.connect("127.0.0.1", server.port()));
    for (int i = 0; i < clients; ++i) {
        std::string name = "clip" + std::to_string(i);
        ArchiveGetResult local = service.get(name);
        ASSERT_EQ(local.error, ArchiveError::None);
        auto ranges = gopRanges(local.frameHeaders,
                                local.decoded.frames.size());
        GetFramesRequest request;
        request.name = name;
        auto response = check.getFrames(request);
        ASSERT_TRUE(response.has_value());
        ASSERT_EQ(response->status, Status::Ok);
        EXPECT_EQ(response->i420,
                  packFramesI420(local.decoded,
                                 ranges[0].firstFrame,
                                 ranges[0].frameCount));
    }

    server.stop();
    std::remove(path.c_str());
}

} // namespace
} // namespace videoapp
