#include "crypto/modes.h"

#include <cassert>
#include <cstring>
#include <map>

#include "common/bitstream.h"

namespace videoapp {

namespace {

AesBlock
loadBlock(const Bytes &data, std::size_t offset)
{
    AesBlock b{};
    std::size_t n = std::min(kAesBlockSize, data.size() - offset);
    std::memcpy(b.data(), data.data() + offset, n);
    return b;
}

void
storeBlock(Bytes &out, std::size_t offset, const AesBlock &b,
           std::size_t n)
{
    std::memcpy(out.data() + offset, b.data(), n);
}

void
xorInto(AesBlock &dst, const AesBlock &src)
{
    for (std::size_t i = 0; i < kAesBlockSize; ++i)
        dst[i] ^= src[i];
}

/** Increment the counter block big-endian, as SP 800-38A specifies. */
void
incrementCounter(AesBlock &ctr)
{
    for (int i = kAesBlockSize - 1; i >= 0; --i) {
        if (++ctr[i] != 0)
            break;
    }
}

/** OFB and CTR share the keystream-XOR structure. */
Bytes
keystreamXor(CipherMode mode, const Aes &aes, const AesBlock &iv,
             const Bytes &in)
{
    Bytes out(in.size());
    AesBlock feedback = iv;
    AesBlock counter = iv;
    for (std::size_t off = 0; off < in.size(); off += kAesBlockSize) {
        AesBlock ks;
        if (mode == CipherMode::OFB) {
            feedback = aes.encryptBlock(feedback);
            ks = feedback;
        } else {
            ks = aes.encryptBlock(counter);
            incrementCounter(counter);
        }
        std::size_t n = std::min(kAesBlockSize, in.size() - off);
        if (n == kAesBlockSize) {
            // Whole block: XOR as two 64-bit words.
            u64 data[2], key[2];
            std::memcpy(data, in.data() + off, sizeof data);
            std::memcpy(key, ks.data(), sizeof key);
            data[0] ^= key[0];
            data[1] ^= key[1];
            std::memcpy(out.data() + off, data, sizeof data);
        } else {
            for (std::size_t i = 0; i < n; ++i)
                out[off + i] = in[off + i] ^ ks[i];
        }
    }
    return out;
}

} // namespace

std::string
cipherModeName(CipherMode mode)
{
    switch (mode) {
      case CipherMode::ECB: return "ECB";
      case CipherMode::CBC: return "CBC";
      case CipherMode::OFB: return "OFB";
      case CipherMode::CTR: return "CTR";
      case CipherMode::CFB: return "CFB";
    }
    return "?";
}

Bytes
encrypt(CipherMode mode, const Aes &aes, const AesBlock &iv,
        const Bytes &plaintext)
{
    switch (mode) {
      case CipherMode::OFB:
      case CipherMode::CTR:
        return keystreamXor(mode, aes, iv, plaintext);
      case CipherMode::ECB: {
        assert(plaintext.size() % kAesBlockSize == 0);
        Bytes out(plaintext.size());
        for (std::size_t off = 0; off < plaintext.size();
             off += kAesBlockSize) {
            AesBlock c = aes.encryptBlock(loadBlock(plaintext, off));
            storeBlock(out, off, c, kAesBlockSize);
        }
        return out;
      }
      case CipherMode::CBC: {
        assert(plaintext.size() % kAesBlockSize == 0);
        Bytes out(plaintext.size());
        AesBlock prev = iv;
        for (std::size_t off = 0; off < plaintext.size();
             off += kAesBlockSize) {
            AesBlock p = loadBlock(plaintext, off);
            xorInto(p, prev);
            prev = aes.encryptBlock(p);
            storeBlock(out, off, prev, kAesBlockSize);
        }
        return out;
      }
      case CipherMode::CFB: {
        // Full-block CFB: C_i = P_i ^ E(C_{i-1}); stream-capable.
        Bytes out(plaintext.size());
        AesBlock feedback = iv;
        for (std::size_t off = 0; off < plaintext.size();
             off += kAesBlockSize) {
            AesBlock ks = aes.encryptBlock(feedback);
            std::size_t n =
                std::min(kAesBlockSize, plaintext.size() - off);
            for (std::size_t i = 0; i < n; ++i)
                out[off + i] = plaintext[off + i] ^ ks[i];
            feedback = loadBlock(out, off);
        }
        return out;
      }
    }
    return {};
}

Bytes
decrypt(CipherMode mode, const Aes &aes, const AesBlock &iv,
        const Bytes &ciphertext)
{
    switch (mode) {
      case CipherMode::OFB:
      case CipherMode::CTR:
        // Keystream modes are symmetric.
        return keystreamXor(mode, aes, iv, ciphertext);
      case CipherMode::ECB: {
        assert(ciphertext.size() % kAesBlockSize == 0);
        Bytes out(ciphertext.size());
        for (std::size_t off = 0; off < ciphertext.size();
             off += kAesBlockSize) {
            AesBlock p = aes.decryptBlock(loadBlock(ciphertext, off));
            storeBlock(out, off, p, kAesBlockSize);
        }
        return out;
      }
      case CipherMode::CBC: {
        assert(ciphertext.size() % kAesBlockSize == 0);
        Bytes out(ciphertext.size());
        AesBlock prev = iv;
        for (std::size_t off = 0; off < ciphertext.size();
             off += kAesBlockSize) {
            AesBlock c = loadBlock(ciphertext, off);
            AesBlock p = aes.decryptBlock(c);
            xorInto(p, prev);
            storeBlock(out, off, p, kAesBlockSize);
            prev = c;
        }
        return out;
      }
      case CipherMode::CFB: {
        Bytes out(ciphertext.size());
        AesBlock feedback = iv;
        for (std::size_t off = 0; off < ciphertext.size();
             off += kAesBlockSize) {
            AesBlock ks = aes.encryptBlock(feedback);
            std::size_t n =
                std::min(kAesBlockSize, ciphertext.size() - off);
            for (std::size_t i = 0; i < n; ++i)
                out[off + i] = ciphertext[off + i] ^ ks[i];
            feedback = loadBlock(ciphertext, off);
        }
        return out;
      }
    }
    return {};
}

FlipPropagation
analyzeFlipPropagation(CipherMode mode, const Aes &aes,
                       const AesBlock &iv, const Bytes &plaintext,
                       BitPos bit_pos)
{
    FlipPropagation result;
    Bytes cipher = encrypt(mode, aes, iv, plaintext);
    if (bit_pos >= cipher.size() * 8)
        return result;

    flipBit(cipher, bit_pos);
    Bytes damaged = decrypt(mode, aes, iv, cipher);

    assert(damaged.size() == plaintext.size());
    std::size_t changed_bits = 0;
    std::size_t changed_blocks = 0;
    bool block_dirty = false;
    bool only_that_bit = true;
    for (std::size_t i = 0; i < plaintext.size(); ++i) {
        if (i % kAesBlockSize == 0) {
            if (block_dirty)
                ++changed_blocks;
            block_dirty = false;
        }
        u8 diff = plaintext[i] ^ damaged[i];
        if (diff) {
            block_dirty = true;
            for (int b = 0; b < 8; ++b) {
                if (!((diff >> (7 - b)) & 1))
                    continue;
                ++changed_bits;
                if (i * 8 + static_cast<std::size_t>(b) != bit_pos)
                    only_that_bit = false;
            }
        }
    }
    if (block_dirty)
        ++changed_blocks;

    result.damagedBits = changed_bits;
    result.damagedBlocks = changed_blocks;
    result.confinedToFlippedBit = only_that_bit && changed_bits == 1;
    return result;
}

double
equalBlockLeakage(CipherMode mode, const Aes &aes, const AesBlock &iv,
                  const Bytes &plaintext)
{
    assert(plaintext.size() % kAesBlockSize == 0);
    Bytes cipher = encrypt(mode, aes, iv, plaintext);

    // Group plaintext blocks by value; for each group of equal
    // plaintext blocks, count how many produced equal ciphertext.
    std::map<std::array<u8, kAesBlockSize>,
             std::vector<std::array<u8, kAesBlockSize>>> groups;
    for (std::size_t off = 0; off < plaintext.size();
         off += kAesBlockSize) {
        groups[loadBlock(plaintext, off)].push_back(
            loadBlock(cipher, off));
    }

    std::size_t repeated_pairs = 0;
    std::size_t leaked_pairs = 0;
    for (auto &[plain, ciphers] : groups) {
        for (std::size_t i = 0; i < ciphers.size(); ++i) {
            for (std::size_t j = i + 1; j < ciphers.size(); ++j) {
                ++repeated_pairs;
                if (ciphers[i] == ciphers[j])
                    ++leaked_pairs;
            }
        }
    }
    if (repeated_pairs == 0)
        return 0.0;
    return static_cast<double>(leaked_pairs) / repeated_pairs;
}

} // namespace videoapp
