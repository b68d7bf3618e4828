/**
 * @file
 * The traced replay: per-layer spans for one request at a time.
 *
 * After a sampled GET miss or PUT has come back from the server, the
 * load thread replays the same request through the public functions
 * the server calls, in the same order, timing each call as a span:
 *
 *   request.get  (client latency; self time = server.residual)
 *     archive.get     ArchiveService::get on the serving archive
 *       storage.inject    degradeCellImage      (aged reads only)
 *       storage.cell_read readCellImage
 *       crypto.decrypt    StreamCryptor::decryptStream
 *       core.merge        mergeStreams
 *       codec.decode      decodeVideo
 *     server.pack     gopRanges + packFramesI420 + makeCachedGop
 *
 *   request.put  (client latency; self time = server.residual)
 *     codec.encode      encodeVideo
 *     graph.importance  computeImportance
 *     core.partition    assignPivots + extractStreams
 *     archive.put     ArchiveService::put into a scratch archive
 *       crypto.encrypt    StreamCryptor::encryptStream
 *       storage.cell_write exportCellImage
 *
 * Children of archive.get / archive.put are the calls those
 * functions make internally, replayed once more on the same inputs
 * (the per-stream part on the pool, as the archive runs it, with the
 * region's wall time split across its layers in proportion to their
 * summed thread time). A span's self time is its duration minus its
 * children's durations, so for every traced request the self times
 * add up to the client latency exactly; the root's self time is the
 * residual (event loop, queue, wire, client parse, and whatever the
 * replay does not cover).
 */

#ifndef VAPPBENCH_TRACE_H_
#define VAPPBENCH_TRACE_H_

#include <string>
#include <vector>

#include "archive/archive_service.h"
#include "media.h"
#include "server/wire.h"

namespace vappbench {

struct Span
{
    const char *name = "";
    u64 request = 0;
    /** Index of the parent span in the same log (-1 = root). */
    int parent = -1;
    double startMs = 0.0;
    double endMs = 0.0;
    /** Duration minus the children's durations. */
    double selfMs = 0.0;
};

/** One load thread's spans (no locking; merged at the end). */
struct SpanLog
{
    std::vector<Span> spans;

    int add(const char *name, u64 request, int parent,
            double start_ms, double end_ms);
    /** Fill selfMs for spans [first, end). */
    void settle(std::size_t first);
};

/** Counts a traced GET miss replay observed. */
struct GetCounts
{
    u64 blocksRead = 0;
    u64 bytesDecrypted = 0;
    u64 framesDecoded = 0;
    /** The replayed decode matched ArchiveService::get's output. */
    bool faithful = true;
};

/**
 * Replay a GET miss of @p request against @p service, whose record
 * for the name is @p record (rebuilt by the load process with the
 * same encryption config). @p cacheable mirrors the server's choice
 * to pack and cache every GOP. Spans go to @p log under a root
 * covering [send_ms, recv_ms].
 */
GetCounts replayGet(const videoapp::ArchiveService &service,
                    const videoapp::VideoRecord &record,
                    const videoapp::GetFramesRequest &request,
                    bool cacheable, u64 request_id, double send_ms,
                    double recv_ms, SpanLog &log);

/**
 * Replay a PUT of @p source under @p request's name and key settings
 * into @p scratch (the name is removed again afterwards).
 */
void replayPut(const videoapp::Video &source,
               const videoapp::PutRequest &request,
               videoapp::ArchiveService &scratch, u64 request_id,
               double send_ms, double recv_ms, SpanLog &log);

/** Milliseconds on the steady clock since the process started. */
double nowMs();

} // namespace vappbench

#endif // VAPPBENCH_TRACE_H_
