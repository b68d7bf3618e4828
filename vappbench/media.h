/**
 * @file
 * Inputs and reference data of the repository benchmark.
 *
 * Everything here is computed by the load process on its own: the
 * synthetic sources, the encoder's reconstruction of each library
 * master (the exact-read reference), the encoder's GOP layout, luma
 * PSNR and the stored-size arithmetic of Table 1. None of it reads
 * back through the archive, the server or src/quality, so the checks
 * built on it are independent of the storage path they judge.
 */

#ifndef VAPPBENCH_MEDIA_H_
#define VAPPBENCH_MEDIA_H_

#include <string>
#include <vector>

#include "core/pipeline.h"

namespace vappbench {

using videoapp::Bytes;
using videoapp::u32;
using videoapp::u64;
using videoapp::u8;

constexpr int kWidth = 160;
constexpr int kHeight = 96;
/** Frames per GOP at the encoder's default GopConfig. */
constexpr int kGopFrames = 48;
/** Frames of one ingested clip (one GOP, shorter than a full one). */
constexpr int kClipFrames = 24;
constexpr std::size_t kLumaBytes =
    static_cast<std::size_t>(kWidth) * kHeight;
constexpr std::size_t kFrameBytes = kLumaBytes * 3 / 2;
/** Library masters are 1..kMasters GOPs long (master m: m+1 GOPs). */
constexpr int kMasters = 8;
/** Distinct ingest sources, PUT round robin under fresh names. */
constexpr int kClips = 4;
/** Luma PSNR every exact read and every ingested clip must reach. */
constexpr double kPsnrFloorDb = 38.0;
/** Section 7's quality-loss budget at the 1e-3 design point. */
constexpr double kAgedLossBudgetDb = 0.3;
constexpr double kAgedRawBer = 1e-3;

/** One GOP as the encoder laid it out (display order). */
struct GopSpan
{
    u32 firstFrame = 0;
    u32 frameCount = 0;
};

/** An encoded library master and its reference data. */
struct Master
{
    videoapp::Video source;
    videoapp::PreparedVideo prepared;
    /** The encoder's GOP layout, from its own I-frame positions. */
    std::vector<GopSpan> layout;
    /** Reconstruction packed as I420, one blob per GOP. */
    std::vector<Bytes> reconGop;
    /** Luma PSNR of each reconstructed frame against its source. */
    std::vector<double> reconPsnr;
};

/** One ingest source: the raw frames a writer PUTs. */
struct Clip
{
    videoapp::Video source;
    Bytes i420;
};

/** Encode master @p index (index + 1 GOPs) under Table 1. */
Master buildMaster(int index);

/** Render ingest source @p index. */
Clip buildClip(int index);

/** Sum over the @p count frames packed in @p i420 of each frame's
 * luma PSNR against frame first + k of @p source. */
double sumLumaPsnr(const Bytes &i420, const videoapp::Video &source,
                   std::size_t first, std::size_t count);

/** The benchmark's AES-128 key (every record is AES-CTR). */
const Bytes &benchKey();
constexpr u32 kKeyId = 1;

/** The encryption config a library record named @p name is stored
 * under: AES-CTR, the bench key, a master IV unique to the name. */
videoapp::EncryptionConfig libraryEncryption(const std::string &name);

/**
 * Cell bytes Table 1 implies for @p prepared's streams, recomputed
 * from the payload sizes: each stream is cut into 512-bit blocks (the
 * last zero-padded), each block carries 10·t parity bits and is
 * packed to whole bytes; a t = 0 stream is stored verbatim. AES-CTR
 * keeps every stream's length.
 */
u64 expectedCellBytes(const videoapp::PreparedVideo &prepared);

} // namespace vappbench

#endif // VAPPBENCH_MEDIA_H_
