#include "core/pipeline.h"

#include "common/parallel.h"
#include "common/telemetry.h"
#include "quality/psnr.h"
#include "simd/dispatch.h"

namespace videoapp {

u64
PreparedVideo::payloadBits() const
{
    u64 total = 0;
    for (const auto &[t, bits] : streams.bitLength)
        total += bits;
    return total;
}

u64
PreparedVideo::headerBits() const
{
    return enc.video.headerBits();
}

PreparedVideo
prepareVideo(const Video &source, const EncoderConfig &config,
             const EccAssignment &assignment)
{
    PreparedVideo prepared;
    simd::simdNoteStage("prepare");
    {
        VA_TELEM_SCOPE("pipeline.encode");
        prepared.enc = encodeVideo(source, config);
    }
    {
        VA_TELEM_SCOPE("pipeline.importance");
        prepared.importance =
            computeImportance(prepared.enc.side, prepared.enc.video);
    }
    prepared.assignment = assignment;
    {
        VA_TELEM_SCOPE("pipeline.assign_pivots");
        assignPivots(prepared.enc.video, prepared.enc.side,
                     prepared.importance, assignment);
    }
    {
        VA_TELEM_SCOPE("pipeline.extract_streams");
        prepared.streams = extractStreams(prepared.enc.video);
    }
    VA_TELEM_COUNT("pipeline.videos_prepared", 1);
    return prepared;
}

void
repartition(PreparedVideo &prepared, const EccAssignment &assignment)
{
    prepared.assignment = assignment;
    {
        VA_TELEM_SCOPE("pipeline.assign_pivots");
        assignPivots(prepared.enc.video, prepared.enc.side,
                     prepared.importance, assignment);
    }
    {
        VA_TELEM_SCOPE("pipeline.extract_streams");
        prepared.streams = extractStreams(prepared.enc.video);
    }
}

StreamPolicy
policyFor(const StreamSet &streams,
          const std::optional<EncryptionConfig> &encryption)
{
    std::vector<int> scheme_ts;
    scheme_ts.reserve(streams.data.size());
    for (const auto &[t, data] : streams.data)
        scheme_ts.push_back(t);
    StreamCipher cipher = StreamCipher::Plaintext;
    u32 key_id = 0;
    u8 min_t = 0;
    if (encryption) {
        cipher = streamCipherOf(encryption->mode);
        key_id = encryption->keyId;
        min_t = encryption->encryptMinT;
    }
    return buildStreamPolicy(scheme_ts, cipher, key_id, min_t);
}

StorageOutcome
storeAndRetrieve(const PreparedVideo &prepared,
                 const StorageChannel &channel, Rng &rng,
                 const std::optional<EncryptionConfig> &encryption)
{
    StorageOutcome outcome;
    simd::simdNoteStage("store_retrieve");

    const StreamPolicy policy =
        policyFor(prepared.streams, encryption);
    std::unique_ptr<StreamCryptor> cryptor;
    if (encryption) {
        cryptor = std::make_unique<StreamCryptor>(
            encryption->mode, encryption->key, encryption->masterIv);
    }

    // Store each reliability stream with its own scheme, in
    // parallel. Per-stream child generators are seeded from @p rng
    // in stream order before the loop and results merged in stream
    // order after it, so the outcome is identical at any thread
    // count (and to the sequential run with the same seed).
    struct StreamWork
    {
        int t = 0;
        const Bytes *data = nullptr;
        u64 seed = 0;
        Bytes read;
        u64 storedBits = 0;
    };
    std::vector<StreamWork> work;
    work.reserve(prepared.streams.data.size());
    for (const auto &[t, data] : prepared.streams.data) {
        StreamWork w;
        w.t = t;
        w.data = &data;
        w.seed = rng.next();
        work.push_back(std::move(w));
    }

    {
        VA_TELEM_SCOPE("pipeline.store_streams");
        parallelFor(work.size(), [&](std::size_t i) {
            StreamWork &w = work[i];
            EccScheme scheme{w.t};
            Rng stream_rng(w.seed);
            const bool encrypted =
                cryptor != nullptr && policy.encrypts(w.t);
            Bytes to_store = *w.data;
            if (encrypted)
                to_store = cryptor->encryptStream(
                    static_cast<u32>(w.t), to_store);

            Bytes read =
                channel.roundTrip(to_store, scheme, stream_rng);

            if (encrypted)
                read = cryptor->decryptStream(static_cast<u32>(w.t),
                                              read, w.data->size());
            // The selective-encryption saving is the plaintext
            // counter's share of the two (only meaningful when an
            // encryption config is present at all). Two call sites,
            // not a ternary name: VA_TELEM_COUNT caches the counter
            // in a per-callsite static.
            if (cryptor != nullptr && encrypted)
                VA_TELEM_COUNT("crypto.bytes_encrypted",
                               w.data->size());
            else if (cryptor != nullptr)
                VA_TELEM_COUNT("crypto.bytes_plaintext",
                               w.data->size());
            w.read = std::move(read);
            w.storedBits =
                to_store.size() * 8; // stored (padded) size
        });
    }
    VA_TELEM_COUNT("pipeline.streams_stored", work.size());

    StreamSet retrieved;
    StorageAccountant accountant(3);
    for (StreamWork &w : work) {
        retrieved.data[w.t] = std::move(w.read);
        retrieved.bitLength[w.t] =
            prepared.streams.bitLength.at(w.t);
        accountant.addStream(w.storedBits, EccScheme{w.t});
    }
    accountant.addPreciseBits(prepared.headerBits());

    outcome.decoded = decodeStreams(prepared.enc.video, retrieved);

    // Quality against the error-free reconstruction, averaged per
    // frame as the paper does.
    Video reference;
    reference.fps = outcome.decoded.fps;
    reference.frames = prepared.enc.reconFrames;
    {
        VA_TELEM_SCOPE("pipeline.quality_psnr");
        outcome.psnrVsReference =
            psnrVideo(reference, outcome.decoded);
    }

    u64 pixels = static_cast<u64>(prepared.enc.video.header.width) *
                 prepared.enc.video.header.height *
                 prepared.enc.video.header.frameCount;
    outcome.cellsPerPixel = accountant.cellsPerPixel(pixels);
    outcome.eccOverheadFraction = accountant.eccOverheadFraction();
    outcome.payloadBits = accountant.payloadBits();
    outcome.parityBits = accountant.parityBits();
    outcome.headerBits = prepared.headerBits();
    return outcome;
}

Video
decodeStreams(const EncodedVideo &layout, const StreamSet &streams,
              const DecodeOptions &options, GopRange range)
{
    EncodedVideo merged;
    simd::simdNoteStage("decode");
    {
        VA_TELEM_SCOPE("pipeline.merge_streams");
        merged = mergeStreams(layout, streams, range);
    }
    VA_TELEM_SCOPE("pipeline.decode");
    return decodeFrames(merged, range, options);
}

double
densityCellsPerPixel(const PreparedVideo &prepared, u64 pixel_count,
                     int bits_per_cell)
{
    StorageAccountant accountant(bits_per_cell);
    for (const auto &[t, data] : prepared.streams.data)
        accountant.addStream(data.size() * 8, EccScheme{t});
    accountant.addPreciseBits(prepared.headerBits());
    return accountant.cellsPerPixel(pixel_count);
}

} // namespace videoapp
