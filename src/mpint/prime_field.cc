/**
 * @file
 * PrimeField implementation.
 */

#include "mpint/prime_field.hh"

#include "base/error.hh"

#include <algorithm>
#include <stdexcept>

#include "mpint/op_observer.hh"

namespace ulecc
{

MpUint
nistPrimeValue(NistPrime which)
{
    // Paper Eq. 4.3 - 4.7.
    switch (which) {
      case NistPrime::P192:
        return MpUint::powerOfTwo(192).sub(MpUint::powerOfTwo(64))
            .sub(MpUint(1));
      case NistPrime::P224:
        return MpUint::powerOfTwo(224).sub(MpUint::powerOfTwo(96))
            .add(MpUint(1));
      case NistPrime::P256:
        return MpUint::powerOfTwo(256).sub(MpUint::powerOfTwo(224))
            .add(MpUint::powerOfTwo(192)).add(MpUint::powerOfTwo(96))
            .sub(MpUint(1));
      case NistPrime::P384:
        return MpUint::powerOfTwo(384).sub(MpUint::powerOfTwo(128))
            .sub(MpUint::powerOfTwo(96)).add(MpUint::powerOfTwo(32))
            .sub(MpUint(1));
      case NistPrime::P521:
        return MpUint::powerOfTwo(521).sub(MpUint(1));
      default:
        throw UleccError(Errc::InvalidInput,
                         "nistPrimeValue: not a NIST prime");
    }
}

namespace
{

std::vector<PrimeField::SolinasTerm>
solinasTermsFor(NistPrime kind)
{
    using T = PrimeField::SolinasTerm;
    switch (kind) {
      case NistPrime::P192: // 2^192 == 2^64 + 1
        return {T{+1, 64}, T{+1, 0}};
      case NistPrime::P224: // 2^224 == 2^96 - 1
        return {T{+1, 96}, T{-1, 0}};
      case NistPrime::P256: // 2^256 == 2^224 - 2^192 - 2^96 + 1
        return {T{+1, 224}, T{-1, 192}, T{-1, 96}, T{+1, 0}};
      case NistPrime::P384: // 2^384 == 2^128 + 2^96 - 2^32 + 1
        return {T{+1, 128}, T{+1, 96}, T{-1, 32}, T{+1, 0}};
      case NistPrime::P521: // 2^521 == 1
        return {T{+1, 0}};
      default:
        return {};
    }
}

NistPrime
detectKind(const MpUint &p)
{
    for (NistPrime k : {NistPrime::P192, NistPrime::P224, NistPrime::P256,
                        NistPrime::P384, NistPrime::P521}) {
        if (p == nistPrimeValue(k))
            return k;
    }
    return NistPrime::Generic;
}

/* Fixed-width word kernels for the NIST primes.  Values travel as
 * little-endian uint32_t arrays on the stack; the widest prime,
 * P-521, needs 17 words and its products 34. */

constexpr int kMaxWords = 17;

using u128 = unsigned __int128;

/**
 * t[0..2K) = a * b by operand scanning (paper Algorithm 2), in rows of
 * 64-bit limbs: a quarter of the 32-bit row count.
 */
template <int K>
void
mulWords(const uint32_t *a, const uint32_t *b, uint32_t *t)
{
    constexpr int H = (K + 1) / 2;
    uint64_t x[H], y[H], z[2 * H];
    packLimbs64(a, K, x);
    packLimbs64(b, K, y);
    for (int i = 0; i < 2 * H; ++i)
        z[i] = 0;
#pragma GCC unroll 9
    for (int i = 0; i < H; ++i) {
        uint64_t c = 0;
#pragma GCC unroll 9
        for (int j = 0; j < H; ++j) {
            u128 s = static_cast<u128>(x[j]) * y[i] + z[i + j] + c;
            z[i + j] = static_cast<uint64_t>(s);
            c = static_cast<uint64_t>(s >> 64);
        }
        z[i + H] = c;
    }
    unpackLimbs64(z, 2 * K, t);
}

/** True iff the k words at @p r are >= those at @p p. */
inline bool
geqWords(const uint32_t *r, const uint32_t *p, int k)
{
    for (int i = k - 1; i >= 0; --i) {
        if (r[i] != p[i])
            return r[i] > p[i];
    }
    return true;
}

/** r -= p over k words; returns the borrow out. */
inline uint32_t
subWords(uint32_t *r, const uint32_t *p, int k)
{
    uint64_t borrow = 0;
    for (int i = 0; i < k; ++i) {
        uint64_t d = static_cast<uint64_t>(r[i]) - p[i] - borrow;
        r[i] = static_cast<uint32_t>(d);
        borrow = (d >> 32) & 1;
    }
    return static_cast<uint32_t>(borrow);
}

/** r += p over k words; returns the carry out. */
inline uint32_t
addWords(uint32_t *r, const uint32_t *p, int k)
{
    uint64_t c = 0;
    for (int i = 0; i < k; ++i) {
        c += static_cast<uint64_t>(r[i]) + p[i];
        r[i] = static_cast<uint32_t>(c);
        c >>= 32;
    }
    return static_cast<uint32_t>(c);
}

/**
 * One carry pass over signed column sums: r[0..k) takes the low
 * words, the signed carry out of the top column is returned.
 */
int64_t
carryColumns(const int64_t *col, int k, uint32_t *r)
{
    int64_t acc = 0;
    for (int j = 0; j < k; ++j) {
        acc += col[j];
        r[j] = static_cast<uint32_t>(acc);
        acc >>= 32; // arithmetic: the sums may be negative
    }
    return acc;
}

/**
 * Brings r[0..k) + top * 2^(32k) into [0, p) by adding p while the
 * value is negative and subtracting it while the value is >= p.  The
 * column sums leave |top| at most a few units and p > 2^(32k-1), so
 * both loops run a bounded handful of times.
 */
void
normalize(uint32_t *r, int64_t top, const uint32_t *p, int k)
{
    while (top < 0)
        top += addWords(r, p, k);
    while (top > 0 || geqWords(r, p, k))
        top -= subWords(r, p, k);
}

/**
 * Paper Algorithm 4 over words.  On the 64-bit chunks c5..c0 of the
 * 384-bit input, s1 = (c2,c1,c0), s2 = (0,c3,c3), s3 = (c4,c4,0) and
 * s4 = (c5,c5,c5); T = s1 + s2 + s3 + s4, then subtract p until
 * T < p.  Chunk cj is the words c[2j], c[2j+1].
 */
void
reduceP192Words(const uint32_t *c, const uint32_t *p, uint32_t *r)
{
    int64_t col[6];
    col[0] = int64_t(c[0]) + c[6] + c[10];
    col[1] = int64_t(c[1]) + c[7] + c[11];
    col[2] = int64_t(c[2]) + c[6] + c[8] + c[10];
    col[3] = int64_t(c[3]) + c[7] + c[9] + c[11];
    col[4] = int64_t(c[4]) + c[8] + c[10];
    col[5] = int64_t(c[5]) + c[9] + c[11];
    normalize(r, carryColumns(col, 6, r), p, 6);
}

/** FIPS 186-4 D.2.2: T + S1 + S2 - D1 - D2 of c[0..14). */
void
reduceP224Words(const uint32_t *c, const uint32_t *p, uint32_t *r)
{
    int64_t col[7];
    col[0] = int64_t(c[0]) - c[7] - c[11];
    col[1] = int64_t(c[1]) - c[8] - c[12];
    col[2] = int64_t(c[2]) - c[9] - c[13];
    col[3] = int64_t(c[3]) + c[7] + c[11] - c[10];
    col[4] = int64_t(c[4]) + c[8] + c[12] - c[11];
    col[5] = int64_t(c[5]) + c[9] + c[13] - c[12];
    col[6] = int64_t(c[6]) + c[10] - c[13];
    normalize(r, carryColumns(col, 7, r), p, 7);
}

/** FIPS 186-4 D.2.3: T + 2S1 + 2S2 + S3 + S4 - D1 - D2 - D3 - D4. */
void
reduceP256Words(const uint32_t *c, const uint32_t *p, uint32_t *r)
{
    int64_t col[8];
    col[0] = int64_t(c[0]) + c[8] + c[9] - c[11] - c[12] - c[13] - c[14];
    col[1] = int64_t(c[1]) + c[9] + c[10] - c[12] - c[13] - c[14] - c[15];
    col[2] = int64_t(c[2]) + c[10] + c[11] - c[13] - c[14] - c[15];
    col[3] = int64_t(c[3]) + 2 * int64_t(c[11]) + 2 * int64_t(c[12])
        + c[13] - c[15] - c[8] - c[9];
    col[4] = int64_t(c[4]) + 2 * int64_t(c[12]) + 2 * int64_t(c[13])
        + c[14] - c[9] - c[10];
    col[5] = int64_t(c[5]) + 2 * int64_t(c[13]) + 2 * int64_t(c[14])
        + c[15] - c[10] - c[11];
    col[6] = int64_t(c[6]) + 3 * int64_t(c[14]) + 2 * int64_t(c[15])
        + c[13] - c[8] - c[9];
    col[7] = int64_t(c[7]) + 3 * int64_t(c[15]) + c[8] - c[10] - c[11]
        - c[12] - c[13];
    normalize(r, carryColumns(col, 8, r), p, 8);
}

/** FIPS 186-4 D.2.4: T + 2S1 + S2 + S3 + S4 + S5 + S6 - D1 - D2 - D3. */
void
reduceP384Words(const uint32_t *c, const uint32_t *p, uint32_t *r)
{
    int64_t col[12];
    col[0] = int64_t(c[0]) + c[12] + c[21] + c[20] - c[23];
    col[1] = int64_t(c[1]) + c[13] + c[22] + c[23] - c[12] - c[20];
    col[2] = int64_t(c[2]) + c[14] + c[23] - c[13] - c[21];
    col[3] = int64_t(c[3]) + c[15] + c[12] + c[20] + c[21] - c[14]
        - c[22] - c[23];
    col[4] = int64_t(c[4]) + 2 * int64_t(c[21]) + c[16] + c[13] + c[12]
        + c[20] + c[22] - c[15] - 2 * int64_t(c[23]);
    col[5] = int64_t(c[5]) + 2 * int64_t(c[22]) + c[17] + c[14] + c[13]
        + c[21] + c[23] - c[16];
    col[6] = int64_t(c[6]) + 2 * int64_t(c[23]) + c[18] + c[15] + c[14]
        + c[22] - c[17];
    col[7] = int64_t(c[7]) + c[19] + c[16] + c[15] + c[23] - c[18];
    col[8] = int64_t(c[8]) + c[20] + c[17] + c[16] - c[19];
    col[9] = int64_t(c[9]) + c[21] + c[18] + c[17] - c[20];
    col[10] = int64_t(c[10]) + c[22] + c[19] + c[18] - c[21];
    col[11] = int64_t(c[11]) + c[23] + c[20] + c[19] - c[22];
    normalize(r, carryColumns(col, 12, r), p, 12);
}

/**
 * P-521 = 2^521 - 1: r = (c mod 2^521) + (c >> 521).  A product of
 * reduced operands needs that one shift-add; wider inputs (up to 34
 * words) fold again, then r == p is the one value left to clear.
 */
void
reduceP521Words(const uint32_t *c, uint32_t *r)
{
    uint64_t acc = 0;
    for (int j = 0; j < 17; ++j) {
        uint32_t lo = j < 16 ? c[j] : (c[16] & 0x1ff);
        uint32_t hi = (c[16 + j] >> 9) | (c[17 + j] << 23);
        acc += static_cast<uint64_t>(lo) + hi;
        r[j] = static_cast<uint32_t>(acc);
        acc >>= 32;
    }
    // Bits from 544 up: the carry plus the last partial word of c.
    uint64_t above = acc + (c[33] >> 9);
    for (;;) {
        uint64_t h = (r[16] >> 9) | (above << 23);
        if (!h)
            break;
        r[16] &= 0x1ff;
        for (int j = 0; j < 17 && h; ++j) {
            h += r[j];
            r[j] = static_cast<uint32_t>(h);
            h >>= 32;
        }
        above = h;
    }
    bool isP = r[16] == 0x1ff;
    for (int j = 0; j < 16 && isP; ++j)
        isP = r[j] == 0xffffffffu;
    if (isP)
        std::fill(r, r + 17, 0u);
}

constexpr int kMaxLimbs64 = (kFieldElemWords + 1) / 2;

/** w >>= s over n 64-bit limbs, 0 < s < 64. */
inline void
shiftRight64(uint64_t *w, int s, int n)
{
    for (int i = 0; i + 1 < n; ++i)
        w[i] = (w[i] >> s) | (w[i + 1] << (64 - s));
    w[n - 1] >>= s;
}

/**
 * x = x / 2^s mod p, 0 < s < 64, for x < p: adds the multiple
 * m = x * n0 mod 2^s of p that clears the low s bits (n0 = -p^-1 mod
 * 2^64), then shifts.  x + m*p < 2^s * p, so the result stays < p.
 */
inline void
halveMod(uint64_t *x, int s, const uint64_t *p, uint64_t n0, int n)
{
    uint64_t m = (x[0] * n0) & ((uint64_t(1) << s) - 1);
    uint64_t t[kMaxLimbs64 + 1];
    uint64_t c = 0;
    for (int i = 0; i < n; ++i) {
        u128 acc = static_cast<u128>(m) * p[i] + x[i] + c;
        t[i] = static_cast<uint64_t>(acc);
        c = static_cast<uint64_t>(acc >> 64);
    }
    t[n] = c;
    for (int i = 0; i < n; ++i)
        x[i] = (t[i] >> s) | (t[i + 1] << (64 - s));
}

/** a -= b over n limbs; returns the borrow out. */
inline uint64_t
sub64(uint64_t *a, const uint64_t *b, int n)
{
    uint64_t borrow = 0;
    for (int i = 0; i < n; ++i) {
        u128 d = static_cast<u128>(a[i]) - b[i] - borrow;
        a[i] = static_cast<uint64_t>(d);
        borrow = static_cast<uint64_t>(d >> 64) & 1;
    }
    return borrow;
}

/** a += b over n limbs (the carry out is dropped). */
inline void
add64(uint64_t *a, const uint64_t *b, int n)
{
    uint64_t c = 0;
    for (int i = 0; i < n; ++i) {
        u128 s = static_cast<u128>(a[i]) + b[i] + c;
        a[i] = static_cast<uint64_t>(s);
        c = static_cast<uint64_t>(s >> 64);
    }
}

inline bool
geq64(const uint64_t *a, const uint64_t *b, int n)
{
    for (int i = n - 1; i >= 0; --i) {
        if (a[i] != b[i])
            return a[i] > b[i];
    }
    return true;
}

inline bool
isWord64(const uint64_t *a, uint64_t v, int n)
{
    uint64_t acc = a[0] ^ v;
    for (int i = 1; i < n; ++i)
        acc |= a[i];
    return acc == 0;
}

/**
 * Binary inversion (Guide to ECC, Algorithm 2.22) on n 64-bit limbs:
 * u and v run from (a, p) down to 1 while a*x1 == u and a*x2 == v
 * (mod p).  A run of s trailing zeros of u (v) is shifted out at once
 * and x1 (x2) divided by 2^s mod p in one step.  The inverse is
 * unique, so the result is the MpUint algorithm's.  Returns false
 * when a is not invertible.
 */
bool
invLimbs(const uint64_t *a, const uint64_t *p, uint64_t n0, int n,
         uint64_t *out)
{
    uint64_t u[kMaxLimbs64], v[kMaxLimbs64];
    uint64_t x1[kMaxLimbs64], x2[kMaxLimbs64];
    for (int i = 0; i < n; ++i) {
        u[i] = a[i];
        v[i] = p[i];
        x1[i] = 0;
        x2[i] = 0;
    }
    x1[0] = 1;
    auto strip = [&](uint64_t *w, uint64_t *x) {
        while (!(w[0] & 1)) {
            int s = w[0] ? __builtin_ctzll(w[0]) : 63;
            shiftRight64(w, s, n);
            halveMod(x, s, p, n0, n);
        }
    };
    while (!isWord64(u, 1, n) && !isWord64(v, 1, n)) {
        if (isWord64(u, 0, n) || isWord64(v, 0, n))
            return false;
        strip(u, x1);
        strip(v, x2);
        if (geq64(u, v, n)) {
            sub64(u, v, n);
            if (sub64(x1, x2, n))
                add64(x1, p, n);
        } else {
            sub64(v, u, n);
            if (sub64(x2, x1, n))
                add64(x2, p, n);
        }
    }
    const uint64_t *x = isWord64(u, 1, n) ? x1 : x2;
    for (int i = 0; i < n; ++i)
        out[i] = x[i];
    return true;
}

} // namespace

PrimeField::PrimeField(const MpUint &p)
    : p_(p),
      bits_(p.bitLength()),
      words_((p.bitLength() + 31) / 32),
      kind_(detectKind(p)),
      terms_(solinasTermsFor(kind_))
{
    if (!p_.isOdd())
        throw UleccError(Errc::InvalidInput,
                         "PrimeField: modulus must be odd");
    if (words_ > kFieldElemWords)
        throw UleccError(Errc::InvalidInput,
                         "PrimeField: modulus wider than "
                         + std::to_string(kFieldElemWords) + " words");
    for (int i = 0; i < kFieldElemWords; ++i)
        pw_[i] = p_.limb(i);
    // n0' = -p^-1 mod 2^32 via Newton iteration on the low word.
    uint32_t p0 = p_.limb(0);
    uint32_t inv = p0; // correct to 3 bits
    for (int i = 0; i < 4; ++i)
        inv *= 2u - p0 * inv;
    n0prime_ = static_cast<uint32_t>(0u - inv);
    // R = 2^(32*words).
    MpUint r = MpUint::powerOfTwo(32 * words_);
    rModP_ = r.mod(p_);
    r2ModP_ = rModP_.mul(rModP_).mod(p_);
    mask_ = MpUint::powerOfTwo(bits_).sub(MpUint(1));
}

PrimeField::PrimeField(NistPrime which)
    : PrimeField(nistPrimeValue(which))
{
}

FieldElem
PrimeField::elemOf(const MpUint &v) const
{
    FieldElem e;
    for (int i = 0; i < words_; ++i)
        e.w[i] = v.limbU(i);
    return e;
}

FieldElem
PrimeField::load(const MpUint &a) const
{
    return inRange(a) ? elemOf(a) : elemOf(reduce(a));
}

FieldElem
PrimeField::mulGeneric(const FieldElem &a, const FieldElem &b) const
{
    // Two CIOS passes: (a*b*R^-1) * R^2 * R^-1 = a*b, with no division.
    return elemOf(montMulCios(montMulCios(store(a), store(b)), r2ModP_));
}

FieldElem
PrimeField::add(const FieldElem &a, const FieldElem &b) const
{
    notifyFieldOp(FieldOp::Add, bits_, false);
    FieldElem r;
    uint64_t c = 0;
    for (int i = 0; i < words_; ++i) {
        c += static_cast<uint64_t>(a.w[i]) + b.w[i];
        r.w[i] = static_cast<uint32_t>(c);
        c >>= 32;
    }
    if (c || geqWords(r.w, pw_, words_))
        subWords(r.w, pw_, words_);
    return r;
}

FieldElem
PrimeField::sub(const FieldElem &a, const FieldElem &b) const
{
    notifyFieldOp(FieldOp::Sub, bits_, false);
    FieldElem r;
    uint64_t borrow = 0;
    for (int i = 0; i < words_; ++i) {
        uint64_t d = static_cast<uint64_t>(a.w[i]) - b.w[i] - borrow;
        r.w[i] = static_cast<uint32_t>(d);
        borrow = (d >> 32) & 1;
    }
    if (borrow)
        addWords(r.w, pw_, words_);
    return r;
}

FieldElem
PrimeField::neg(const FieldElem &a) const
{
    notifyFieldOp(FieldOp::Sub, bits_, false);
    if (isZero(a))
        return a;
    FieldElem r;
    for (int i = 0; i < words_; ++i)
        r.w[i] = pw_[i];
    subWords(r.w, a.w, words_);
    return r;
}

FieldElem
PrimeField::mul(const FieldElem &a, const FieldElem &b) const
{
    notifyFieldOp(FieldOp::Mul, bits_, false);
    uint32_t t[2 * kMaxWords];
    switch (kind_) {
      case NistPrime::P192: mulWords<6>(a.w, b.w, t); break;
      case NistPrime::P224: mulWords<7>(a.w, b.w, t); break;
      case NistPrime::P256: mulWords<8>(a.w, b.w, t); break;
      case NistPrime::P384: mulWords<12>(a.w, b.w, t); break;
      case NistPrime::P521: mulWords<17>(a.w, b.w, t); break;
      default:
        return mulGeneric(a, b);
    }
    FieldElem r;
    reduceWords(t, r.w);
    return r;
}

FieldElem
PrimeField::sqr(const FieldElem &a) const
{
    notifyFieldOp(FieldOp::Sqr, bits_, false);
    // The 64-bit-row multiply beats a doubled-cross-product squaring
    // at every width of the study, so a square is a product.
    uint32_t t[2 * kMaxWords];
    switch (kind_) {
      case NistPrime::P192: mulWords<6>(a.w, a.w, t); break;
      case NistPrime::P224: mulWords<7>(a.w, a.w, t); break;
      case NistPrime::P256: mulWords<8>(a.w, a.w, t); break;
      case NistPrime::P384: mulWords<12>(a.w, a.w, t); break;
      case NistPrime::P521: mulWords<17>(a.w, a.w, t); break;
      default:
        return mulGeneric(a, a);
    }
    FieldElem r;
    reduceWords(t, r.w);
    return r;
}

FieldElem
PrimeField::inv(const FieldElem &a) const
{
    notifyFieldOp(FieldOp::Inv, bits_, false);
    if (isZero(a))
        throw UleccError(Errc::InvalidInput,
                         "PrimeField::inv: inverse of zero");
    const int n = (words_ + 1) / 2;
    uint64_t x[kMaxLimbs64], p[kMaxLimbs64], r[kMaxLimbs64];
    packLimbs64(a.w, words_, x);
    packLimbs64(pw_, words_, p);
    // n0 = -p^-1 mod 2^64 by Newton iteration (3, 6, ..., 96 bits).
    uint64_t pinv = p[0];
    for (int i = 0; i < 5; ++i)
        pinv *= 2 - p[0] * pinv;
    if (!invLimbs(x, p, 0 - pinv, n, r))
        throw UleccError(Errc::InvalidInput,
                         "PrimeField::inv: not invertible");
    FieldElem e;
    unpackLimbs64(r, words_, e.w);
    return e;
}

MpUint
PrimeField::add(const MpUint &a, const MpUint &b) const
{
    return store(add(load(a), load(b)));
}

MpUint
PrimeField::sub(const MpUint &a, const MpUint &b) const
{
    return store(sub(load(a), load(b)));
}

MpUint
PrimeField::neg(const MpUint &a) const
{
    return store(neg(load(a)));
}

MpUint
PrimeField::mul(const MpUint &a, const MpUint &b) const
{
    return store(mul(load(a), load(b)));
}

MpUint
PrimeField::mulProductScan(const MpUint &a, const MpUint &b) const
{
    notifyFieldOp(FieldOp::Mul, bits_, false);
    return reduce(a.mulProductScan(b));
}

MpUint
PrimeField::sqr(const MpUint &a) const
{
    return store(sqr(load(a)));
}

MpUint
PrimeField::inv(const MpUint &a) const
{
    return store(inv(load(a)));
}

MpUint
PrimeField::invFermat(const MpUint &a) const
{
    notifyFieldOp(FieldOp::Inv, bits_, false);
    return pow(a, p_.sub(MpUint(2)));
}

MpUint
PrimeField::pow(const MpUint &a, const MpUint &e) const
{
    // Left-to-right binary exponentiation in the Montgomery domain.
    if (e.isZero())
        return MpUint(1);
    MpUint base = toMont(a.mod(p_));
    MpUint acc = base;
    for (int i = e.bitLength() - 2; i >= 0; --i) {
        acc = montMulCios(acc, acc);
        if (e.bit(i))
            acc = montMulCios(acc, base);
    }
    return fromMont(acc);
}

MpUint
PrimeField::reduce(const MpUint &wide) const
{
    if (kind_ == NistPrime::Generic)
        return reduceGeneric(wide);
    if (wide.size() > 2 * words_)
        return reduceSolinas(wide);
    uint32_t t[2 * kMaxWords] = {};
    for (int i = 0; i < wide.size(); ++i)
        t[i] = wide.limbU(i);
    uint32_t r[kMaxWords];
    reduceWords(t, r);
    return MpUint::fromLimbs(r, words_);
}

void
PrimeField::reduceWords(const uint32_t *t, uint32_t *r) const
{
    switch (kind_) {
      case NistPrime::P192: reduceP192Words(t, pw_, r); break;
      case NistPrime::P224: reduceP224Words(t, pw_, r); break;
      case NistPrime::P256: reduceP256Words(t, pw_, r); break;
      case NistPrime::P384: reduceP384Words(t, pw_, r); break;
      case NistPrime::P521: reduceP521Words(t, r); break;
      default:
        throw UleccError(Errc::Internal,
                         "PrimeField::reduceWords: not a NIST prime");
    }
}

MpUint
PrimeField::reduceGeneric(const MpUint &wide) const
{
    return wide.mod(p_);
}

MpUint
PrimeField::reduceSolinas(const MpUint &wide) const
{
    // Fold the bits above position `bits_` back down using the identity
    // 2^bits == sum_j sign_j * 2^shift_j (mod p).  Positive and negative
    // contributions accumulate separately; the difference is normalised
    // into [0, p) at the end.
    MpUint pos = wide;
    MpUint neg;
    for (int iter = 0; ; ++iter) {
        if (iter >= 16)
            throw UleccError(Errc::Internal,
                             "PrimeField::reduceSolinas: no convergence");
        bool high = false;
        if (pos.bitLength() > bits_) {
            high = true;
            MpUint h = pos.shiftRight(bits_);
            pos = pos.bitAnd(mask_);
            for (const auto &t : terms_) {
                MpUint c = h.shiftLeft(t.shift);
                if (t.sign > 0)
                    pos = pos.add(c);
                else
                    neg = neg.add(c);
            }
        }
        if (neg.bitLength() > bits_) {
            high = true;
            MpUint h = neg.shiftRight(bits_);
            neg = neg.bitAnd(mask_);
            for (const auto &t : terms_) {
                MpUint c = h.shiftLeft(t.shift);
                if (t.sign > 0)
                    neg = neg.add(c);
                else
                    pos = pos.add(c);
            }
        }
        if (!high)
            break;
    }
    // pos, neg < 2^bits < 2p.
    while (pos < neg)
        pos = pos.add(p_);
    MpUint r = pos.sub(neg);
    while (r >= p_)
        r = r.sub(p_);
    return r;
}

MpUint
PrimeField::reduceP192Literal(const MpUint &wide) const
{
    if (kind_ != NistPrime::P192)
        throw UleccError(Errc::InvalidInput,
                         "PrimeField::reduceP192Literal: not P-192");
    uint32_t t[12];
    for (int i = 0; i < 12; ++i)
        t[i] = wide.limbU(i);
    uint32_t r[6];
    reduceP192Words(t, pw_, r);
    return MpUint::fromLimbs(r, 6);
}

MpUint
PrimeField::toMont(const MpUint &a) const
{
    return montMulCios(a, r2ModP_);
}

MpUint
PrimeField::fromMont(const MpUint &a) const
{
    return montMulCios(a, MpUint(1));
}

MpUint
PrimeField::montMulCios(const MpUint &a, const MpUint &b) const
{
    // Paper Algorithm 5 (Koc et al. CIOS), word width w = 32.
    const int k = words_;
    uint32_t t[MpUint::maxLimbs + 2] = {0};
    for (int i = 0; i < k; ++i) {
        // Multiplication sweep: t += a * b[i].
        uint64_t c = 0;
        uint64_t bi = b.limbU(i);
        for (int j = 0; j < k; ++j) {
            uint64_t s = static_cast<uint64_t>(a.limbU(j)) * bi + t[j] + c;
            t[j] = static_cast<uint32_t>(s);
            c = s >> 32;
        }
        uint64_t s = static_cast<uint64_t>(t[k]) + c;
        t[k] = static_cast<uint32_t>(s);
        t[k + 1] = static_cast<uint32_t>(s >> 32);
        // Reduction sweep: fold with m = t[0] * n0' mod 2^32.
        uint32_t m = t[0] * n0prime_;
        s = static_cast<uint64_t>(t[0])
            + static_cast<uint64_t>(m) * p_.limbU(0);
        c = s >> 32;
        for (int j = 1; j < k; ++j) {
            s = static_cast<uint64_t>(t[j])
                + static_cast<uint64_t>(m) * p_.limbU(j) + c;
            t[j - 1] = static_cast<uint32_t>(s);
            c = s >> 32;
        }
        s = static_cast<uint64_t>(t[k]) + c;
        t[k - 1] = static_cast<uint32_t>(s);
        t[k] = t[k + 1] + static_cast<uint32_t>(s >> 32);
    }
    MpUint r;
    for (int i = 0; i <= k; ++i)
        r.setLimb(i, t[i]);
    if (r >= p_)
        r = r.sub(p_);
    return r;
}

MpUint
PrimeField::montMulFips(const MpUint &a, const MpUint &b) const
{
    // Finely Integrated Product Scanning Montgomery multiplication:
    // column-wise accumulation interleaving a*b and m*n partial
    // products (the form the MADDU/ADDAU/SHA extensions accelerate).
    const int k = words_;
    uint32_t m[MpUint::maxLimbs] = {0};
    uint32_t x[MpUint::maxLimbs + 1] = {0};
    uint64_t uv = 0;
    uint32_t t = 0;
    auto acc = [&](uint32_t p, uint32_t q) {
        uint64_t prod = static_cast<uint64_t>(p) * q;
        uint64_t prev = uv;
        uv += prod;
        if (uv < prev)
            ++t;
    };
    auto shift = [&]() {
        uv = (uv >> 32) | (static_cast<uint64_t>(t) << 32);
        t = 0;
    };
    for (int i = 0; i < k; ++i) {
        for (int j = 0; j < i; ++j) {
            acc(a.limbU(j), b.limbU(i - j));
            acc(m[j], p_.limbU(i - j));
        }
        acc(a.limbU(i), b.limbU(0));
        m[i] = static_cast<uint32_t>(uv) * n0prime_;
        acc(m[i], p_.limbU(0));
        shift();
    }
    for (int i = k; i < 2 * k; ++i) {
        for (int j = i - k + 1; j < k; ++j) {
            acc(a.limbU(j), b.limbU(i - j));
            acc(m[j], p_.limbU(i - j));
        }
        x[i - k] = static_cast<uint32_t>(uv);
        shift();
    }
    x[k] = static_cast<uint32_t>(uv);
    MpUint r;
    for (int i = 0; i <= k; ++i)
        r.setLimb(i, x[i]);
    if (r >= p_)
        r = r.sub(p_);
    return r;
}

bool
PrimeField::sqrt(const MpUint &a, MpUint &root) const
{
    MpUint v = a.mod(p_);
    if (v.isZero()) {
        root = MpUint();
        return true;
    }
    MpUint candidate;
    if (p_.bits(0, 2) == 3) {
        // p == 3 (mod 4): root = a^((p+1)/4).
        candidate = pow(v, p_.add(MpUint(1)).shiftRight(2));
    } else {
        // Tonelli-Shanks.  Write p-1 = q * 2^s with q odd.
        MpUint q = p_.sub(MpUint(1));
        int s = 0;
        while (!q.isOdd()) {
            q = q.shiftRight(1);
            ++s;
        }
        // Find a quadratic non-residue z.
        MpUint half = p_.sub(MpUint(1)).shiftRight(1);
        MpUint z(2);
        while (pow(z, half) == MpUint(1))
            z = z.add(MpUint(1));
        MpUint c = pow(z, q);
        MpUint x = pow(v, q.add(MpUint(1)).shiftRight(1));
        MpUint tt = pow(v, q);
        int mexp = s;
        const MpUint one(1);
        while (tt != one) {
            // Find least i with t^(2^i) == 1.
            int i = 0;
            MpUint t2 = tt;
            while (t2 != one && i < mexp) {
                t2 = t2.mul(t2).mod(p_);
                ++i;
            }
            if (i == mexp)
                return false; // non-residue
            MpUint b = c;
            for (int j = 0; j < mexp - i - 1; ++j)
                b = b.mul(b).mod(p_);
            x = x.mul(b).mod(p_);
            c = b.mul(b).mod(p_);
            tt = tt.mul(c).mod(p_);
            mexp = i;
        }
        candidate = x;
    }
    if (candidate.mul(candidate).mod(p_) != v)
        return false;
    root = candidate;
    return true;
}

} // namespace ulecc
