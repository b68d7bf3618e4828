/**
 * @file
 * AES block cipher core (FIPS-197), key sizes 128/192/256.
 *
 * This is the substitution-permutation network ("subperm" in the
 * paper's Figure 7) on which all the studied modes of operation are
 * built. The S-box is generated from its GF(2^8) definition, not
 * transcribed; encryption runs 32-bit T-table rounds derived from
 * it at first use (four lookups per column per round), and the
 * inverse cipher, used only by the ECB/CBC analysis, runs byte-wise
 * rounds with an xtime-chain InvMixColumns. Like any lookup-table
 * AES, the rounds index memory by secret-dependent bytes and so are
 * exposed to cache-timing side channels. Validated against the
 * FIPS-197 appendix vectors in tests/crypto_test.cc.
 */

#ifndef VIDEOAPP_CRYPTO_AES_H_
#define VIDEOAPP_CRYPTO_AES_H_

#include <array>
#include <cstddef>

#include "common/types.h"

namespace videoapp {

/** AES block size in bytes, fixed by the standard. */
inline constexpr std::size_t kAesBlockSize = 16;

using AesBlock = std::array<u8, kAesBlockSize>;

/**
 * An expanded-key AES instance for one secret key.
 */
class Aes
{
  public:
    /**
     * Expand @p key of length @p key_len bytes (16, 24, or 32).
     * Invalid lengths are treated as 16 bytes (zero padded), keeping
     * construction total; callers validate externally.
     */
    Aes(const u8 *key, std::size_t key_len);

    /** Convenience constructor from a byte vector. */
    explicit Aes(const Bytes &key) : Aes(key.data(), key.size()) {}

    /** Forward cipher: one 16-byte block. */
    AesBlock encryptBlock(const AesBlock &in) const;

    /** Inverse cipher: one 16-byte block. */
    AesBlock decryptBlock(const AesBlock &in) const;

    int rounds() const { return rounds_; }

  private:
    void expandKey(const u8 *key, std::size_t key_len);

    int rounds_ = 10;
    // Up to 15 round keys of 16 bytes for AES-256.
    std::array<u8, 16 * 15> roundKeys_{};
};

} // namespace videoapp

#endif // VIDEOAPP_CRYPTO_AES_H_
