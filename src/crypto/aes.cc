#include "crypto/aes.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace videoapp {

namespace {

/** Multiply by x in GF(2^8) with the AES reduction polynomial. */
u8
xtime(u8 a)
{
    return static_cast<u8>((a << 1) ^ ((a & 0x80) ? 0x1B : 0x00));
}

struct CipherTables
{
    std::array<u8, 256> sbox;
    std::array<u8, 256> inv;
    /**
     * T-tables: te[k][x] is S-box output sbox[x] multiplied through
     * MixColumns as the input byte of row k, i.e. the column word
     * the byte contributes (row 0 in the low byte). Row k's table is
     * row 0's rotated left by 8k bits, so one encryption round is
     * four lookups and XORs per column.
     */
    std::array<std::array<u32, 256>, 4> te;
};

/**
 * Generate the S-box from first principles: multiplicative inverse in
 * GF(2^8) followed by the FIPS-197 affine transformation. Generating
 * rather than transcribing the table removes a whole class of typo
 * bugs; the result is cross-checked against known vectors in tests.
 * The T-tables are derived from the generated S-box in the same pass.
 */
CipherTables
makeTables()
{
    CipherTables t{};
    // Build inverses via the 3-generator exponent/log trick.
    std::array<u8, 256> log{}, alog{};
    u8 x = 1;
    for (int i = 0; i < 255; ++i) {
        alog[i] = x;
        log[x] = static_cast<u8>(i);
        x = static_cast<u8>(x ^ xtime(x)); // multiply by 0x03
    }
    auto inverse = [&](u8 a) -> u8 {
        if (a == 0)
            return 0;
        return alog[(255 - log[a]) % 255];
    };
    for (int i = 0; i < 256; ++i) {
        u8 b = inverse(static_cast<u8>(i));
        u8 s = 0;
        for (int bit = 0; bit < 8; ++bit) {
            u8 v = static_cast<u8>(
                ((b >> bit) & 1) ^ ((b >> ((bit + 4) & 7)) & 1) ^
                ((b >> ((bit + 5) & 7)) & 1) ^
                ((b >> ((bit + 6) & 7)) & 1) ^
                ((b >> ((bit + 7) & 7)) & 1) ^ ((0x63 >> bit) & 1));
            s |= static_cast<u8>(v << bit);
        }
        t.sbox[i] = s;
        t.inv[s] = static_cast<u8>(i);
        // MixColumns column {02,01,01,03}: row 0 takes 2s, rows 1
        // and 2 take s, row 3 takes 3s.
        const u32 word = static_cast<u32>(xtime(s)) |
                         static_cast<u32>(s) << 8 |
                         static_cast<u32>(s) << 16 |
                         static_cast<u32>(xtime(s) ^ s) << 24;
        for (int k = 0; k < 4; ++k)
            t.te[k][i] = std::rotl(word, 8 * k);
    }
    return t;
}

const CipherTables &
tables()
{
    static const CipherTables t = makeTables();
    return t;
}

void
invSubBytes(AesBlock &st)
{
    for (auto &b : st)
        b = tables().inv[b];
}

// State layout: st[r + 4*c] = byte at row r, column c (FIPS order).
void
invShiftRows(AesBlock &st)
{
    AesBlock t = st;
    for (int r = 1; r < 4; ++r)
        for (int c = 0; c < 4; ++c)
            st[r + 4 * ((c + r) & 3)] = t[r + 4 * c];
}

void
invMixColumns(AesBlock &st)
{
    for (int c = 0; c < 4; ++c) {
        u8 *col = &st[4 * c];
        // a times {09,0b,0d,0e} from a's doublings: 9 = 8+1,
        // 11 = 8+2+1, 13 = 8+4+1, 14 = 8+4+2.
        u8 m9[4], m11[4], m13[4], m14[4];
        for (int r = 0; r < 4; ++r) {
            const u8 a = col[r];
            const u8 a2 = xtime(a);
            const u8 a4 = xtime(a2);
            const u8 a8 = xtime(a4);
            m9[r] = static_cast<u8>(a8 ^ a);
            m11[r] = static_cast<u8>(a8 ^ a2 ^ a);
            m13[r] = static_cast<u8>(a8 ^ a4 ^ a);
            m14[r] = static_cast<u8>(a8 ^ a4 ^ a2);
        }
        for (int r = 0; r < 4; ++r)
            col[r] = static_cast<u8>(m14[r] ^ m11[(r + 1) & 3] ^
                                     m13[(r + 2) & 3] ^
                                     m9[(r + 3) & 3]);
    }
}

void
addRoundKey(AesBlock &st, const u8 *rk)
{
    for (int i = 0; i < 16; ++i)
        st[i] ^= rk[i];
}

/** Column word of 4 state bytes, row 0 in the low byte. */
u32
loadColumn(const u8 *p)
{
    return static_cast<u32>(p[0]) | static_cast<u32>(p[1]) << 8 |
           static_cast<u32>(p[2]) << 16 | static_cast<u32>(p[3]) << 24;
}

void
storeColumn(u8 *p, u32 w)
{
    p[0] = static_cast<u8>(w);
    p[1] = static_cast<u8>(w >> 8);
    p[2] = static_cast<u8>(w >> 16);
    p[3] = static_cast<u8>(w >> 24);
}

} // namespace

Aes::Aes(const u8 *key, std::size_t key_len)
{
    expandKey(key, key_len);
}

void
Aes::expandKey(const u8 *key, std::size_t key_len)
{
    std::size_t nk; // key length in 32-bit words
    switch (key_len) {
      case 24:
        nk = 6;
        rounds_ = 12;
        break;
      case 32:
        nk = 8;
        rounds_ = 14;
        break;
      case 16:
      default:
        nk = 4;
        rounds_ = 10;
        break;
    }

    u8 padded[32] = {};
    std::memcpy(padded, key, std::min(key_len, sizeof(padded)));

    const std::size_t total_words =
        4 * (static_cast<std::size_t>(rounds_) + 1);
    // w[i] stored as 4 bytes at roundKeys_[4*i..4*i+3].
    std::memcpy(roundKeys_.data(), padded, 4 * nk);

    u8 rcon = 1;
    for (std::size_t i = nk; i < total_words; ++i) {
        u8 temp[4];
        std::memcpy(temp, &roundKeys_[4 * (i - 1)], 4);
        if (i % nk == 0) {
            // RotWord + SubWord + Rcon.
            u8 t0 = temp[0];
            temp[0] = static_cast<u8>(tables().sbox[temp[1]] ^ rcon);
            temp[1] = tables().sbox[temp[2]];
            temp[2] = tables().sbox[temp[3]];
            temp[3] = tables().sbox[t0];
            rcon = xtime(rcon);
        } else if (nk > 6 && i % nk == 4) {
            for (auto &b : temp)
                b = tables().sbox[b];
        }
        for (int b = 0; b < 4; ++b)
            roundKeys_[4 * i + b] =
                static_cast<u8>(roundKeys_[4 * (i - nk) + b] ^ temp[b]);
    }
}

AesBlock
Aes::encryptBlock(const AesBlock &in) const
{
    // Each round is SubBytes + ShiftRows + MixColumns + AddRoundKey
    // fused into T-table lookups: output column c takes row r from
    // input column c + r (ShiftRows), through te[r].
    const CipherTables &t = tables();
    const u8 *rk = roundKeys_.data();
    u32 s0 = loadColumn(&in[0]) ^ loadColumn(rk);
    u32 s1 = loadColumn(&in[4]) ^ loadColumn(rk + 4);
    u32 s2 = loadColumn(&in[8]) ^ loadColumn(rk + 8);
    u32 s3 = loadColumn(&in[12]) ^ loadColumn(rk + 12);
    auto column = [&t](u32 a, u32 b, u32 c, u32 d, const u8 *key) {
        return t.te[0][a & 0xFF] ^ t.te[1][(b >> 8) & 0xFF] ^
               t.te[2][(c >> 16) & 0xFF] ^ t.te[3][d >> 24] ^
               loadColumn(key);
    };
    for (int round = 1; round < rounds_; ++round) {
        rk += 16;
        const u32 t0 = column(s0, s1, s2, s3, rk);
        const u32 t1 = column(s1, s2, s3, s0, rk + 4);
        const u32 t2 = column(s2, s3, s0, s1, rk + 8);
        const u32 t3 = column(s3, s0, s1, s2, rk + 12);
        s0 = t0;
        s1 = t1;
        s2 = t2;
        s3 = t3;
    }
    // Last round: SubBytes + ShiftRows + AddRoundKey, no MixColumns.
    rk += 16;
    auto last = [&t](u32 a, u32 b, u32 c, u32 d, const u8 *key) {
        return (static_cast<u32>(t.sbox[a & 0xFF]) |
                static_cast<u32>(t.sbox[(b >> 8) & 0xFF]) << 8 |
                static_cast<u32>(t.sbox[(c >> 16) & 0xFF]) << 16 |
                static_cast<u32>(t.sbox[d >> 24]) << 24) ^
               loadColumn(key);
    };
    AesBlock out;
    storeColumn(&out[0], last(s0, s1, s2, s3, rk));
    storeColumn(&out[4], last(s1, s2, s3, s0, rk + 4));
    storeColumn(&out[8], last(s2, s3, s0, s1, rk + 8));
    storeColumn(&out[12], last(s3, s0, s1, s2, rk + 12));
    return out;
}

AesBlock
Aes::decryptBlock(const AesBlock &in) const
{
    AesBlock st = in;
    addRoundKey(st, &roundKeys_[16 * rounds_]);
    for (int round = rounds_ - 1; round >= 1; --round) {
        invShiftRows(st);
        invSubBytes(st);
        addRoundKey(st, &roundKeys_[16 * round]);
        invMixColumns(st);
    }
    invShiftRows(st);
    invSubBytes(st);
    addRoundKey(st, &roundKeys_[0]);
    return st;
}

} // namespace videoapp
