/**
 * @file
 * Golden byte fixtures shared by the archive and server tests.
 *
 * A fixture is the hex of bytes the system stores or sends for one
 * fixed input, captured once and kept under tests/golden/. The input
 * clip is built from integer arithmetic alone, so the fixtures pin
 * the codec, cipher and wire layers without depending on libm.
 */

#ifndef VIDEOAPP_TESTS_GOLDEN_H_
#define VIDEOAPP_TESTS_GOLDEN_H_

#include <cctype>
#include <fstream>
#include <sstream>
#include <string>

#include "common/types.h"
#include "video/frame.h"

namespace videoapp {

/** Lower-case hex of @p bytes, two digits a byte. */
inline std::string
hexOf(const Bytes &bytes)
{
    static const char kDigits[] = "0123456789abcdef";
    std::string out;
    out.reserve(bytes.size() * 2);
    for (u8 b : bytes) {
        out.push_back(kDigits[b >> 4]);
        out.push_back(kDigits[b & 0xF]);
    }
    return out;
}

/** The hex in tests/golden/@p name.hex, whitespace dropped (empty
 * when the file is missing, which fails the comparison). */
inline std::string
readGoldenHex(const std::string &name)
{
    std::ifstream in(std::string(VIDEOAPP_GOLDEN_DIR) + "/" + name +
                     ".hex");
    std::stringstream text;
    text << in.rdbuf();
    std::string hex;
    for (char c : text.str())
        if (!std::isspace(static_cast<unsigned char>(c)))
            hex.push_back(c);
    return hex;
}

/** The fixtures' input: four 16x16 frames of a moving integer
 * pattern with flat, slowly shifting chroma. */
inline Video
goldenClip()
{
    Video video;
    for (int f = 0; f < 4; ++f) {
        Frame frame(16, 16);
        for (int y = 0; y < 16; ++y)
            for (int x = 0; x < 16; ++x)
                frame.y().at(x, y) = static_cast<u8>(
                    16 + 8 * ((x + f) & 15) + 4 * y +
                    5 * (((x + f) * y) % 7));
        for (int y = 0; y < 8; ++y)
            for (int x = 0; x < 8; ++x) {
                frame.u().at(x, y) = static_cast<u8>(112 + x + f);
                frame.v().at(x, y) = static_cast<u8>(140 - y + f);
            }
        video.frames.push_back(std::move(frame));
    }
    return video;
}

} // namespace videoapp

#endif // VIDEOAPP_TESTS_GOLDEN_H_
