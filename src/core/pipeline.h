/**
 * @file
 * The end-to-end approximate video storage pipeline:
 *
 *   encode -> importance analysis -> pivots -> stream partitioning
 *   [-> encryption] -> MLC PCM storage with per-stream ECC
 *   [-> decryption] -> reassembly -> decode -> quality measurement
 *
 * This is the system of the paper's Figure 11 evaluation; the
 * prepare/store split lets Monte Carlo experiments reuse one
 * encoding across many storage trials (Section 6.4's 30 runs).
 */

#ifndef VIDEOAPP_CORE_PIPELINE_H_
#define VIDEOAPP_CORE_PIPELINE_H_

#include <memory>
#include <optional>

#include "codec/decoder.h"
#include "codec/encoder.h"
#include "core/ecc_assign.h"
#include "core/partition.h"
#include "crypto/stream_crypto.h"
#include "graph/importance.h"
#include "policy/stream_policy.h"
#include "storage/approx_store.h"

namespace videoapp {

/** Everything derived from the source once, reusable across trials. */
struct PreparedVideo
{
    EncodeResult enc;
    ImportanceMap importance;
    EccAssignment assignment;
    StreamSet streams;

    /** Total approximate payload bits across streams. */
    u64 payloadBits() const;
    /** Precise (header) bits, stored at the BCH-16 class. */
    u64 headerBits() const;
};

/**
 * Encode @p source and run the full VideoApp analysis under
 * @p assignment, producing partitioned streams ready for storage.
 */
PreparedVideo prepareVideo(const Video &source,
                           const EncoderConfig &config,
                           const EccAssignment &assignment);

/** Re-partition an already prepared video under a new assignment
 * (reuses the encoding and importance analysis). */
void repartition(PreparedVideo &prepared,
                 const EccAssignment &assignment);

/** Result of one storage round trip. */
struct StorageOutcome
{
    /** Average PSNR of the retrieved video against the error-free
     * decoded video (the paper's quality-loss reference). */
    double psnrVsReference = 0.0;
    /** Storage density: MLC cells per encoded pixel (Figure 11). */
    double cellsPerPixel = 0.0;
    /** Fraction of stored bits that are ECC parity. */
    double eccOverheadFraction = 0.0;
    u64 payloadBits = 0;
    u64 parityBits = 0;
    u64 headerBits = 0;
    /** The retrieved video (for further metrics). */
    Video decoded;
};

/** Optional encryption wrapping for the stored streams. */
struct EncryptionConfig
{
    CipherMode mode = CipherMode::CTR;
    Bytes key;
    AesBlock masterIv{};
    /** Key-management handle persisted by archives (not the key). */
    u32 keyId = 0;
    /** Selective encryption: only streams with scheme t >= this are
     * encrypted (ascending t is ascending importance). 0 encrypts
     * every stream — the byte-compatible default. */
    u8 encryptMinT = 0;
};

/**
 * The per-stream policy @p encryption implies for @p streams: the
 * single place the importance partition is turned into cipher and
 * shedding treatment. Every consumer (pipeline round trips, archive
 * put, the serving layer) derives its per-stream decisions from this
 * record rather than re-deriving them from the config.
 */
StreamPolicy policyFor(
    const StreamSet &streams,
    const std::optional<EncryptionConfig> &encryption);

/**
 * Store all streams through @p channel (each under its assigned
 * scheme; headers are precise by construction), retrieve, decode and
 * measure. @p encryption, when set, encrypts each stream before
 * storage and decrypts after retrieval (Section 5.3).
 *
 * Streams are stored concurrently on the parallelFor pool: @p rng is
 * consumed only to seed one child generator per stream (in stream
 * order, before the parallel region), so the outcome is bit-identical
 * at any thread count.
 */
StorageOutcome storeAndRetrieve(
    const PreparedVideo &prepared, const StorageChannel &channel,
    Rng &rng,
    const std::optional<EncryptionConfig> &encryption = std::nullopt);

/** Density accounting only (no simulation): cells per pixel for the
 * prepared video's assignment, on @p bits_per_cell MLC. */
double densityCellsPerPixel(const PreparedVideo &prepared,
                            u64 pixel_count, int bits_per_cell = 3);

/**
 * The read half of the pipeline as a standalone entry point:
 * reassemble @p streams against @p layout's pivot tables and decode
 * display frames @p range (every frame by default). Only the range's
 * reference closure is merged and decoded, so the result holds
 * exactly the range's frames, each bit-identical to the whole-video
 * decode. @p layout only contributes the precise parts (headers and
 * payload sizes) — exactly what an archive record persists, so a
 * restarted process can decode a stored video from its record alone.
 */
Video decodeStreams(const EncodedVideo &layout,
                    const StreamSet &streams,
                    const DecodeOptions &options = {},
                    GopRange range = kAllFrames);

/** Scheme of stream @p t as an EccScheme. */
inline EccScheme
schemeOfStream(int t)
{
    return EccScheme{t};
}

} // namespace videoapp

#endif // VIDEOAPP_CORE_PIPELINE_H_
