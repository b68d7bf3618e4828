#include "media.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "video/synthetic.h"

namespace vappbench {

using namespace videoapp;

namespace {

u64
fnv1a(const std::string &text)
{
    u64 h = 1469598103934665603ull;
    for (unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

/** The encoder's GOPs: one per I-frame, in display order. */
std::vector<GopSpan>
layoutOf(const EncodedVideo &video, std::size_t frames)
{
    std::vector<u32> starts;
    for (const FrameHeader &h : video.frameHeaders)
        if (h.type == FrameType::I)
            starts.push_back(h.displayIdx);
    std::sort(starts.begin(), starts.end());
    std::vector<GopSpan> spans;
    for (std::size_t g = 0; g < starts.size(); ++g) {
        const u32 end = g + 1 < starts.size()
                            ? starts[g + 1]
                            : static_cast<u32>(frames);
        spans.push_back({starts[g], end - starts[g]});
    }
    return spans;
}

/** Frames [first, first + count) of @p frames packed as I420. */
Bytes
packI420(const std::vector<Frame> &frames, std::size_t first,
         std::size_t count)
{
    Bytes out;
    out.reserve(count * kFrameBytes);
    for (std::size_t f = first; f < first + count; ++f)
        for (const Plane *plane :
             {&frames[f].y(), &frames[f].u(), &frames[f].v()})
            out.insert(out.end(), plane->data().begin(),
                       plane->data().end());
    return out;
}

/** Luma PSNR of two equal-size frames (100 dB when identical). */
double
lumaPsnr(const u8 *a, const u8 *b, std::size_t luma_bytes)
{
    u64 squared = 0;
    for (std::size_t i = 0; i < luma_bytes; ++i) {
        const int d = static_cast<int>(a[i]) - static_cast<int>(b[i]);
        squared += static_cast<u64>(d * d);
    }
    if (squared == 0)
        return 100.0;
    const double mse =
        static_cast<double>(squared) / static_cast<double>(luma_bytes);
    return 10.0 * std::log10(255.0 * 255.0 / mse);
}

} // namespace

Master
buildMaster(int index)
{
    SyntheticSpec spec;
    spec.name = "master-" + std::to_string(index);
    spec.width = kWidth;
    spec.height = kHeight;
    spec.frames = kGopFrames * (index + 1);
    spec.textureCells = 6 + index % 5;
    spec.panX = 0.25 * (index % 3);
    spec.panY = 0.125 * (index % 2);
    spec.sprites = 1 + index % 3;
    spec.noiseSigma = 1.0;
    spec.seed = 1000 + static_cast<u64>(index);

    Master master;
    master.source = generateSynthetic(spec);
    master.prepared = prepareVideo(master.source, EncoderConfig{},
                                   EccAssignment::paperTable1());
    const std::vector<Frame> &recon = master.prepared.enc.reconFrames;
    master.layout =
        layoutOf(master.prepared.enc.video, master.source.frames.size());
    for (const GopSpan &g : master.layout)
        master.reconGop.push_back(
            packI420(recon, g.firstFrame, g.frameCount));
    for (std::size_t f = 0; f < recon.size(); ++f)
        master.reconPsnr.push_back(
            lumaPsnr(recon[f].y().data().data(),
                     master.source.frames[f].y().data().data(),
                     kLumaBytes));
    return master;
}

Clip
buildClip(int index)
{
    SyntheticSpec spec;
    spec.name = "clip-" + std::to_string(index);
    spec.width = kWidth;
    spec.height = kHeight;
    spec.frames = kClipFrames;
    spec.textureCells = 8;
    spec.panX = 0.5;
    spec.sprites = 2;
    spec.noiseSigma = 1.0;
    spec.seed = 2000 + static_cast<u64>(index);

    Clip clip;
    clip.source = generateSynthetic(spec);
    clip.i420 = packI420(clip.source.frames, 0, clip.source.frames.size());
    return clip;
}

double
sumLumaPsnr(const Bytes &i420, const Video &source, std::size_t first,
            std::size_t count)
{
    double sum = 0.0;
    for (std::size_t f = 0; f < count; ++f)
        sum += lumaPsnr(i420.data() + f * kFrameBytes,
                        source.frames[first + f].y().data().data(),
                        kLumaBytes);
    return sum;
}

const Bytes &
benchKey()
{
    static const Bytes key = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae,
                              0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88,
                              0x09, 0xcf, 0x4f, 0x3c};
    return key;
}

EncryptionConfig
libraryEncryption(const std::string &name)
{
    EncryptionConfig enc;
    enc.mode = CipherMode::CTR;
    enc.key = benchKey();
    enc.keyId = kKeyId;
    Rng iv(Rng::deriveSeed(0x5eed, fnv1a(name)));
    for (auto &b : enc.masterIv)
        b = static_cast<u8>(iv.next());
    return enc;
}

u64
expectedCellBytes(const PreparedVideo &prepared)
{
    constexpr u64 kBlockBits = 512;
    u64 total = 0;
    for (const auto &[t, data] : prepared.streams.data) {
        const u64 bytes = data.size();
        if (t == 0) {
            total += bytes;
            continue;
        }
        const u64 blocks = (bytes * 8 + kBlockBits - 1) / kBlockBits;
        const u64 codeword_bits = kBlockBits + 10 * static_cast<u64>(t);
        total += blocks * ((codeword_bits + 7) / 8);
    }
    return total;
}

} // namespace vappbench
