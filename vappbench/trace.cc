#include "trace.h"

#include <array>
#include <chrono>
#include <functional>

#include "common/parallel.h"
#include "common/rng.h"
#include "server/frame_cache.h"

namespace vappbench {

using namespace videoapp;

namespace {

/**
 * Spans for a parallel region: [start_ms, start_ms + wall_ms] is
 * split across @p names in proportion to each layer's summed thread
 * time, laid end to end under @p parent.
 */
template <std::size_t N>
void
splitRegion(SpanLog &log, u64 request, int parent,
            const std::array<const char *, N> &names,
            const std::array<double, N> &thread_ms, double start_ms,
            double wall_ms)
{
    double total = 0.0;
    for (double ms : thread_ms)
        total += ms;
    double at = start_ms;
    for (std::size_t k = 0; k < N; ++k) {
        const double share =
            total > 0.0 ? wall_ms * thread_ms[k] / total : 0.0;
        log.add(names[k], request, parent, at, at + share);
        at += share;
    }
}

bool
sameFrames(const Video &a, const Video &b)
{
    if (a.frames.size() != b.frames.size())
        return false;
    for (std::size_t f = 0; f < a.frames.size(); ++f)
        if (a.frames[f].y().data() != b.frames[f].y().data() ||
            a.frames[f].u().data() != b.frames[f].u().data() ||
            a.frames[f].v().data() != b.frames[f].v().data())
            return false;
    return true;
}

/** The server's encryption config for a PUT: same master-IV
 * derivation from (ivSeed, name) as VappServer::handlePut. */
EncryptionConfig
putEncryption(const PutRequest &request)
{
    EncryptionConfig enc;
    enc.mode = static_cast<CipherMode>(request.cipherMode);
    enc.key = request.key;
    enc.keyId = request.keyId;
    enc.encryptMinT = request.encryptMinT;
    Rng iv(Rng::deriveSeed(request.ivSeed,
                           std::hash<std::string>{}(request.name)));
    for (auto &b : enc.masterIv)
        b = static_cast<u8>(iv.next());
    return enc;
}

} // namespace

double
nowMs()
{
    static const auto origin = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - origin)
        .count();
}

int
SpanLog::add(const char *name, u64 request, int parent,
             double start_ms, double end_ms)
{
    Span span;
    span.name = name;
    span.request = request;
    span.parent = parent;
    span.startMs = start_ms;
    span.endMs = end_ms;
    spans.push_back(span);
    return static_cast<int>(spans.size() - 1);
}

void
SpanLog::settle(std::size_t first)
{
    for (std::size_t i = first; i < spans.size(); ++i)
        spans[i].selfMs = spans[i].endMs - spans[i].startMs;
    for (std::size_t i = first; i < spans.size(); ++i)
        if (spans[i].parent >= 0)
            spans[static_cast<std::size_t>(spans[i].parent)].selfMs -=
                spans[i].endMs - spans[i].startMs;
}

GetCounts
replayGet(const ArchiveService &service, const VideoRecord &record,
          const GetFramesRequest &request, bool cacheable,
          u64 request_id, double send_ms, double recv_ms, SpanLog &log)
{
    const std::size_t first = log.spans.size();
    const int root =
        log.add("request.get", request_id, -1, send_ms, recv_ms);
    GetCounts counts;

    ArchiveGetOptions options;
    options.injectRawBer = request.injectRawBer;
    options.seed = request.seed;
    options.conceal = request.conceal;
    options.key = request.key;
    double t0 = nowMs();
    ArchiveGetResult result = service.get(request.name, options);
    double t1 = nowMs();
    const int get = log.add("archive.get", request_id, root, t0, t1);

    // The archive's per-stream region: age, read + BCH-correct,
    // decrypt. Same child seeds as ArchiveService::get draws.
    const std::size_t n = record.streams.size();
    Rng master(options.seed);
    std::vector<u64> seeds(n);
    for (auto &seed : seeds)
        seed = master.next();
    std::unique_ptr<StreamCryptor> cryptor;
    if (record.crypto)
        cryptor = std::make_unique<StreamCryptor>(
            record.crypto->mode, options.key, record.crypto->masterIv);
    std::vector<Bytes> read(n);
    std::vector<CellReadStats> stats(n);
    std::vector<std::array<double, 3>> stream_ms(n);
    std::vector<u8> decrypted(n, 0);
    const double region_start = nowMs();
    parallelFor(n, [&](std::size_t i) {
        const StreamRecord &s = record.streams[i];
        const double a = nowMs();
        CellImage aged;
        if (options.injectRawBer > 0.0) {
            aged = s.image;
            Rng rng(seeds[i]);
            degradeCellImage(aged, options.injectRawBer, rng);
        }
        const double b = nowMs();
        Bytes payload = readCellImage(
            options.injectRawBer > 0.0 ? aged : s.image, &stats[i]);
        const double c = nowMs();
        const bool encrypted =
            cryptor && (!record.policy ||
                        record.policy->encrypts(s.schemeT));
        if (encrypted)
            payload = cryptor->decryptStream(
                static_cast<u32>(s.schemeT), payload,
                static_cast<std::size_t>(s.trueBytes));
        else
            payload.resize(static_cast<std::size_t>(s.trueBytes));
        const double d = nowMs();
        stream_ms[i] = {b - a, c - b, d - c};
        decrypted[i] = encrypted;
        read[i] = std::move(payload);
    });
    const double region_end = nowMs();
    std::array<double, 3> layer_ms{};
    StreamSet streams;
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t k = 0; k < 3; ++k)
            layer_ms[k] += stream_ms[i][k];
        counts.blocksRead += stats[i].blocksRead;
        if (decrypted[i])
            counts.bytesDecrypted += record.streams[i].trueBytes;
        streams.data[record.streams[i].schemeT] = std::move(read[i]);
        streams.bitLength[record.streams[i].schemeT] =
            record.streams[i].bitLength;
    }
    splitRegion<3>(log, request_id, get,
                   {"storage.inject", "storage.cell_read",
                    "crypto.decrypt"},
                   layer_ms, region_start, region_end - region_start);

    t0 = nowMs();
    EncodedVideo merged = mergeStreams(record.layout, streams);
    t1 = nowMs();
    log.add("core.merge", request_id, get, t0, t1);
    DecodeOptions decode;
    decode.concealErrors = options.conceal;
    Video decoded = decodeVideo(merged, decode);
    t0 = nowMs();
    log.add("codec.decode", request_id, get, t1, t0);
    counts.framesDecoded = decoded.frames.size();
    counts.faithful = sameFrames(decoded, result.decoded);

    // The server's GOP pack: every GOP when the read fills the
    // cache, only the requested one otherwise.
    t0 = nowMs();
    std::vector<GopRange> ranges =
        gopRanges(result.frameHeaders, result.decoded.frames.size());
    for (std::size_t g = 0; g < ranges.size(); ++g) {
        if (g != request.gop && !cacheable)
            continue;
        DecodedGop gop;
        gop.width = static_cast<u16>(result.decoded.width());
        gop.height = static_cast<u16>(result.decoded.height());
        gop.firstFrame = ranges[g].firstFrame;
        gop.frameCount = ranges[g].frameCount;
        gop.gopCount = static_cast<u32>(ranges.size());
        gop.blocksCorrected = result.cells.blocksCorrected;
        gop.i420 = packFramesI420(result.decoded, ranges[g].firstFrame,
                                  ranges[g].frameCount);
        if (cacheable)
            makeCachedGop(gop);
    }
    t1 = nowMs();
    log.add("server.pack", request_id, root, t0, t1);
    log.settle(first);
    return counts;
}

void
replayPut(const Video &source, const PutRequest &request,
          ArchiveService &scratch, u64 request_id, double send_ms,
          double recv_ms, SpanLog &log)
{
    const std::size_t first = log.spans.size();
    const int root =
        log.add("request.put", request_id, -1, send_ms, recv_ms);

    PreparedVideo prepared;
    prepared.assignment = EccAssignment::paperTable1();
    double t0 = nowMs();
    prepared.enc = encodeVideo(source, EncoderConfig{});
    double t1 = nowMs();
    log.add("codec.encode", request_id, root, t0, t1);
    prepared.importance =
        computeImportance(prepared.enc.side, prepared.enc.video);
    t0 = nowMs();
    log.add("graph.importance", request_id, root, t1, t0);
    assignPivots(prepared.enc.video, prepared.enc.side,
                 prepared.importance, prepared.assignment);
    prepared.streams = extractStreams(prepared.enc.video);
    t1 = nowMs();
    log.add("core.partition", request_id, root, t0, t1);

    ArchivePutOptions options;
    options.encryption = putEncryption(request);
    t0 = nowMs();
    scratch.put(request.name, prepared, options);
    t1 = nowMs();
    const int put = log.add("archive.put", request_id, root, t0, t1);
    scratch.remove(request.name);

    // The archive's per-stream region: encrypt, then BCH-encode.
    const EncryptionConfig &enc = *options.encryption;
    const StreamPolicy policy = policyFor(prepared.streams, enc);
    StreamCryptor cryptor(enc.mode, enc.key, enc.masterIv);
    std::vector<std::pair<int, const Bytes *>> work;
    for (const auto &[t, data] : prepared.streams.data)
        work.push_back({t, &data});
    std::vector<std::array<double, 2>> stream_ms(work.size());
    const double region_start = nowMs();
    parallelFor(work.size(), [&](std::size_t i) {
        const double a = nowMs();
        Bytes to_store = *work[i].second;
        if (policy.encrypts(work[i].first))
            to_store = cryptor.encryptStream(
                static_cast<u32>(work[i].first), to_store);
        const double b = nowMs();
        CellImage image =
            exportCellImage(to_store, EccScheme{work[i].first});
        const double c = nowMs();
        stream_ms[i] = {b - a, c - b};
    });
    const double region_end = nowMs();
    std::array<double, 2> layer_ms{};
    for (const auto &ms : stream_ms) {
        layer_ms[0] += ms[0];
        layer_ms[1] += ms[1];
    }
    splitRegion<2>(log, request_id, put,
                   {"crypto.encrypt", "storage.cell_write"}, layer_ms,
                   region_start, region_end - region_start);
    log.settle(first);
}

} // namespace vappbench
