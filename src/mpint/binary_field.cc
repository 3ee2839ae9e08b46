/**
 * @file
 * BinaryField implementation.
 */

#include "mpint/binary_field.hh"

#include "base/error.hh"

#include <algorithm>
#include <array>
#include <cassert>
#include <stdexcept>

#include "mpint/op_observer.hh"

namespace ulecc
{

MpUint
nistBinaryPoly(NistBinary which)
{
    // Paper Eq. 4.8 - 4.12.
    auto poly = [](std::initializer_list<int> exps) {
        MpUint f;
        for (int e : exps)
            f.setBit(e);
        return f;
    };
    switch (which) {
      case NistBinary::B163:
        return poly({163, 7, 6, 3, 0});
      case NistBinary::B233:
        return poly({233, 74, 0});
      case NistBinary::B283:
        return poly({283, 12, 7, 5, 0});
      case NistBinary::B409:
        return poly({409, 87, 0});
      case NistBinary::B571:
        return poly({571, 10, 5, 2, 0});
      default:
        throw UleccError(Errc::InvalidInput,
                         "nistBinaryPoly: not a NIST field");
    }
}

uint64_t
clmul32(uint32_t a, uint32_t b)
{
    // 4-bit windowed software carry-less multiply.
    uint64_t tbl[16];
    tbl[0] = 0;
    tbl[1] = a;
    for (int i = 2; i < 16; i += 2) {
        tbl[i] = tbl[i / 2] << 1;
        tbl[i + 1] = tbl[i] ^ a;
    }
    uint64_t r = 0;
    for (int i = 28; i >= 0; i -= 4)
        r = (r << 4) ^ tbl[(b >> i) & 0xF];
    // Correct the bits shifted out of the 64-bit window: for window
    // shifts the top window bits of each table entry can exceed bit 63
    // only when a has bits >= 61 set and early windows of b are used;
    // handle by folding the high part explicitly.
    // (With a < 2^32 each tbl entry < 2^36; after j remaining 4-bit
    // shifts the entry for b-window i lands at bit offset 4*(i/4);
    // maximum bit = 35 + 28 = 63, so no overflow occurs.)
    return r;
}

namespace
{

NistBinary
detectBinaryKind(const MpUint &f)
{
    for (NistBinary k : {NistBinary::B163, NistBinary::B233,
                         NistBinary::B283, NistBinary::B409,
                         NistBinary::B571}) {
        if (f == nistBinaryPoly(k))
            return k;
    }
    return NistBinary::Generic;
}

/** 8-bit -> 16-bit zero-interleaving table for fast squaring. */
const std::array<uint16_t, 256> &
squareSpreadTable()
{
    static const std::array<uint16_t, 256> table = [] {
        std::array<uint16_t, 256> t{};
        for (int v = 0; v < 256; ++v) {
            uint16_t s = 0;
            for (int b = 0; b < 8; ++b) {
                if (v & (1 << b))
                    s |= 1u << (2 * b);
            }
            t[v] = s;
        }
        return t;
    }();
    return table;
}

/**
 * XORs the word t, standing at word i, into c shifted down by the
 * compile-time distance D >= 32 bits (bit 32i - D): one term of the
 * fold x^(32i) = x^(32i - m) * x^m == sum over e of x^(32i - (m - e)).
 */
template <int D>
inline void
foldDown(uint32_t *c, int i, uint32_t t)
{
    static_assert(D >= 32, "a fold must land below its source word");
    constexpr int q = D / 32, r = D % 32;
    if constexpr (r == 0) {
        c[i - q] ^= t;
    } else {
        c[i - q - 1] ^= t << (32 - r);
        c[i - q] ^= t >> r;
    }
}

/** XORs t into c at the compile-time bit position P. */
template <int P>
inline void
xorAt(uint32_t *c, uint32_t t)
{
    c[P / 32] ^= t << (P % 32);
    if constexpr (P % 32 != 0)
        c[P / 32 + 1] ^= t >> (32 - P % 32);
}

/**
 * Word-level fast reduction of the n words at c modulo the NIST
 * polynomial x^M + x^E... + 1 (paper Algorithm 7; Guide to ECC
 * Algorithms 2.41-2.45): whole words above the boundary word fold
 * top-down through every term, each landing strictly below its
 * source, then the boundary word's bits >= M fold once -- for the
 * NIST polynomials they land below bit M, so no second pass.
 */
template <int M, int... E>
void
reduceNistWords(uint32_t *c, int n)
{
    constexpr int bw = M / 32, sh = M % 32;
    static_assert(sh != 0 && ((E + 32 - sh <= M) && ...),
                  "boundary fold must land below x^M");
    for (int i = n - 1; i > bw; --i) {
        uint32_t t = c[i];
        c[i] = 0;
        foldDown<M>(c, i, t);
        (foldDown<M - E>(c, i, t), ...);
    }
    uint32_t t = c[bw] >> sh;
    c[bw] &= (1u << sh) - 1;
    xorAt<0>(c, t);
    (xorAt<E>(c, t), ...);
}

/**
 * The word-level fold for any polynomial x^m + sum x^e + 1 (terms e in
 * mid): each word above the boundary distributes through the terms,
 * repeated while folding re-sets bits >= m.
 */
void
reduceAnyWords(uint32_t *c, int top_words, int m,
               const std::vector<int> &mid)
{
    int boundary_word = m / 32;
    auto fold_word = [&](uint32_t t, int bitpos) {
        // XOR t into bit position bitpos.
        int w = bitpos / 32, s = bitpos % 32;
        c[w] ^= t << s;
        if (s)
            c[w + 1] ^= t >> (32 - s);
    };

    bool again = true;
    while (again) {
        again = false;
        for (int i = top_words - 1; i > boundary_word; --i) {
            uint32_t t = c[i];
            if (!t)
                continue;
            c[i] = 0;
            int base = i * 32 - m;
            fold_word(t, base);
            for (int e : mid)
                fold_word(t, base + e);
        }
        // Partial boundary word: bits m .. 32*(boundary_word+1)-1.
        int sh = m % 32;
        uint32_t t = (sh == 0) ? c[boundary_word]
                               : (c[boundary_word] >> sh);
        if (t) {
            if (sh == 0)
                c[boundary_word] = 0;
            else
                c[boundary_word] &= (1u << sh) - 1;
            fold_word(t, 0);
            for (int e : mid)
                fold_word(t, e);
            // Folding may have re-set bits >= m when e + width(t)
            // crosses the boundary; re-check.
            for (int i = top_words - 1; i >= boundary_word; --i) {
                uint32_t hi = (i > boundary_word)
                    ? c[i]
                    : (sh ? (c[i] >> sh) : c[i]);
                if (hi) {
                    again = true;
                    break;
                }
            }
        }
    }
}

/**
 * Paper Algorithm 6 on K-word operands, out[0..2K) = a * b: the
 * left-to-right comb with windows of width w = 4 over fixed arrays of
 * 64-bit limbs (a 32-bit word pair each, so half the rows and columns
 * of a word-by-word comb).  Precompute Bu = u(x) * b(x) for all 16
 * window values (H + 1 limbs each), then scan the multiplier a
 * window-column at a time, XORing Bu into C{i} and shifting C left by
 * w in place between columns.
 */
template <int K>
void
combWords(const uint32_t *a32, const uint32_t *b32, uint32_t *out)
{
    constexpr int w = 4, H = (K + 1) / 2;
    uint64_t a[H], b[H];
    packLimbs64(a32, K, a);
    packLimbs64(b32, K, b);
    uint64_t bu[1 << w][H + 1];
    for (int i = 0; i < H; ++i) {
        bu[0][i] = 0;
        bu[1][i] = b[i];
    }
    bu[0][H] = bu[1][H] = 0;
    for (int u = 2; u < (1 << w); u += 2) {
        uint64_t carry = 0;
        for (int i = 0; i <= H; ++i) {
            uint64_t v = bu[u / 2][i];
            bu[u][i] = (v << 1) | carry;
            bu[u + 1][i] = bu[u][i] ^ bu[1][i];
            carry = v >> 63;
        }
    }
    // Unrolled over the limbs: the rolled loops round-trip every XOR
    // through memory at -O2.
    uint64_t c[2 * H] = {};
    for (int j = (64 / w) - 1; j >= 0; --j) {
#pragma GCC unroll 16
        for (int i = 0; i < H; ++i) {
            const uint64_t *row = bu[(a[i] >> (w * j)) & 0xf];
#pragma GCC unroll 16
            for (int l = 0; l <= H; ++l)
                c[i + l] ^= row[l];
        }
        if (j != 0) {
#pragma GCC unroll 32
            for (int i = 2 * H - 1; i > 0; --i)
                c[i] = (c[i] << w) | (c[i - 1] >> (64 - w));
            c[0] <<= w;
        }
    }
    unpackLimbs64(c, 2 * K, out);
}

} // namespace

BinaryField::BinaryField(const MpUint &f)
    : f_(f),
      m_(f.bitLength() - 1),
      words_((f.bitLength() + 30) / 32),
      kind_(detectBinaryKind(f))
{
    if (m_ < 2)
        throw UleccError(Errc::InvalidInput,
                         "BinaryField: degree too small");
    if (f.bit(0) != 1)
        throw UleccError(Errc::InvalidInput,
                         "BinaryField: reduction polynomial needs +1 term");
    if (words_ > kFieldElemWords)
        throw UleccError(Errc::InvalidInput,
                         "BinaryField: degree above "
                         + std::to_string(32 * kFieldElemWords));
    for (int i = m_ - 1; i >= 1; --i) {
        if (f.bit(i))
            mid_.push_back(i);
    }
}

BinaryField::BinaryField(NistBinary which)
    : BinaryField(nistBinaryPoly(which))
{
}

FieldElem
BinaryField::elemOf(const MpUint &v) const
{
    FieldElem e;
    for (int i = 0; i < words_; ++i)
        e.w[i] = v.limbU(i);
    return e;
}

FieldElem
BinaryField::load(const MpUint &a) const
{
    return inRange(a) ? elemOf(a) : elemOf(reduce(a));
}

FieldElem
BinaryField::add(const FieldElem &a, const FieldElem &b) const
{
    notifyFieldOp(FieldOp::Add, m_, true);
    FieldElem r;
    for (int i = 0; i < words_; ++i)
        r.w[i] = a.w[i] ^ b.w[i];
    return r;
}

FieldElem
BinaryField::mul(const FieldElem &a, const FieldElem &b) const
{
    notifyFieldOp(FieldOp::Mul, m_, true);
    uint32_t c[2 * kFieldElemWords];
    combInto(a.w, b.w, c);
    FieldElem r;
    reduceWords(c, 2 * words_, r.w);
    return r;
}

FieldElem
BinaryField::sqr(const FieldElem &a) const
{
    // Zero-interleave each byte via the 256-entry spread table
    // (Section 4.2.3), then fold.
    notifyFieldOp(FieldOp::Sqr, m_, true);
    const auto &tbl = squareSpreadTable();
    uint32_t c[2 * kFieldElemWords];
    for (int i = 0; i < words_; ++i) {
        uint32_t v = a.w[i];
        c[2 * i] = tbl[v & 0xFF]
            | (static_cast<uint32_t>(tbl[(v >> 8) & 0xFF]) << 16);
        c[2 * i + 1] = tbl[(v >> 16) & 0xFF]
            | (static_cast<uint32_t>(tbl[(v >> 24) & 0xFF]) << 16);
    }
    FieldElem r;
    reduceWords(c, 2 * words_, r.w);
    return r;
}

FieldElem
BinaryField::inv(const FieldElem &a) const
{
    // Polynomial extended Euclidean algorithm (Guide to ECC, Algorithm
    // 2.48) on words: a*g1 == u and a*g2 == v (mod f) while u and v
    // fall to 1; u ^= v << j cancels u's top term.
    notifyFieldOp(FieldOp::Inv, m_, true);
    if (isZero(a))
        throw UleccError(Errc::InvalidInput,
                         "BinaryField: inverse of zero");
    constexpr int W = kFieldElemWords + 1; // f itself may need one more
    const int n = m_ / 32 + 1;             // words of f
    uint32_t ua[W] = {}, va[W] = {}, g1a[W] = {}, g2a[W] = {};
    for (int i = 0; i < words_; ++i)
        ua[i] = a.w[i];
    for (int i = 0; i < n; ++i)
        va[i] = f_.limbU(i);
    g1a[0] = 1;
    uint32_t *u = ua, *v = va, *g1 = g1a, *g2 = g2a;
    auto degree = [](const uint32_t *x, int words) {
        for (int i = words - 1; i >= 0; --i) {
            if (x[i])
                return 32 * i + 31 - __builtin_clz(x[i]);
        }
        return -1;
    };
    // x ^= y << j over the n words of a polynomial of degree < 32n.
    auto xorShifted = [n](uint32_t *x, const uint32_t *y, int j) {
        const int q = j / 32, r = j % 32;
        for (int i = 0; i + q < n; ++i) {
            x[i + q] ^= y[i] << r;
            if (r && i + q + 1 < n)
                x[i + q + 1] ^= y[i] >> (32 - r);
        }
    };
    int du = degree(u, n), dv = m_;
    while (du != 0) {
        if (du < 0)
            throw UleccError(Errc::Internal,
                             "BinaryField::inv: element not invertible "
                             "(reducible polynomial?)");
        int j = du - dv;
        if (j < 0) {
            std::swap(u, v);
            std::swap(g1, g2);
            std::swap(du, dv);
            j = -j;
        }
        xorShifted(u, v, j);
        xorShifted(g1, g2, j);
        du = degree(u, du / 32 + 1);
    }
    // deg(g1) <= m - deg(v) throughout, so g1 fits n words but may
    // still need one fold.
    FieldElem r;
    reduceWords(g1, n, r.w);
    return r;
}

MpUint
BinaryField::add(const MpUint &a, const MpUint &b) const
{
    return store(add(load(a), load(b)));
}

MpUint
BinaryField::mul(const MpUint &a, const MpUint &b) const
{
    if (a.size() > words_ || b.size() > words_)
        throw UleccError(Errc::InvalidInput,
                         "BinaryField::mul: operand wider than "
                         + std::to_string(words_) + " words");
    return store(mul(load(a), load(b)));
}

MpUint
BinaryField::mulClmul(const MpUint &a, const MpUint &b) const
{
    notifyFieldOp(FieldOp::Mul, m_, true);
    return reduce(polyMulClmul(a, b));
}

MpUint
BinaryField::sqr(const MpUint &a) const
{
    return store(sqr(load(a)));
}

MpUint
BinaryField::inv(const MpUint &a) const
{
    return store(inv(load(a)));
}

MpUint
BinaryField::invFermat(const MpUint &a) const
{
    // a^(2^m - 2) = a^(2 * (2^(m-1) - 1)): simple square-and-multiply
    // chain of (m-1) squarings and (m-2) multiplications.
    notifyFieldOp(FieldOp::Inv, m_, true);
    if (a.isZero())
        throw UleccError(Errc::InvalidInput,
                         "BinaryField: inverse of zero");
    MpUint x = reduce(a);
    MpUint acc = x;
    for (int i = 0; i < m_ - 2; ++i) {
        acc = reduce(polySqr(acc));
        acc = reduce(polyMulClmul(acc, x));
    }
    return reduce(polySqr(acc));
}

MpUint
BinaryField::invItohTsujii(const MpUint &a) const
{
    // Compute b = a^(2^(m-1) - 1), then inv = b^2.  Maintain
    // t = a^(2^n - 1); scanning the bits of e = m-1 from the top:
    //   always:   t <- t^(2^n) * t        (n doubles)
    //   bit set:  t <- t^2 * a            (n += 1)
    notifyFieldOp(FieldOp::Inv, m_, true);
    if (a.isZero())
        throw UleccError(Errc::InvalidInput,
                         "BinaryField: inverse of zero");
    MpUint x = reduce(a);
    const int e = m_ - 1;
    int top = 31;
    while (top > 0 && !((e >> top) & 1))
        --top;
    MpUint t = x;
    int n = 1;
    for (int i = top - 1; i >= 0; --i) {
        MpUint u = t;
        for (int s = 0; s < n; ++s)
            u = reduce(polySqr(u));
        t = reduce(polyMulClmul(u, t));
        n *= 2;
        if ((e >> i) & 1) {
            t = reduce(polyMulClmul(reduce(polySqr(t)), x));
            n += 1;
        }
    }
    assert(n == e);
    return reduce(polySqr(t));
}

int
BinaryField::itohTsujiiMulCount(int m)
{
    int e = m - 1;
    int floor_log = 0;
    while ((1 << (floor_log + 1)) <= e)
        ++floor_log;
    return floor_log + __builtin_popcount(e) - 1;
}

MpUint
BinaryField::reduce(const MpUint &wide) const
{
    // One spare word: folding into the top boundary word of a
    // 1279-bit field spills into the next.
    uint32_t c[MpUint::maxLimbs + 1] = {0};
    for (int i = 0; i < wide.size(); ++i)
        c[i] = wide.limbU(i);
    uint32_t r[kFieldElemWords];
    reduceWords(c, wide.size(), r);
    MpUint out = MpUint::fromLimbs(r, words_);
    assert(out.bitLength() <= m_);
    return out;
}

void
BinaryField::reduceWords(uint32_t *c, int n, uint32_t *r) const
{
    // Exponents as in nistBinaryPoly (paper Eq. 4.8 - 4.12).
    switch (kind_) {
      case NistBinary::B163: reduceNistWords<163, 7, 6, 3>(c, n); break;
      case NistBinary::B233: reduceNistWords<233, 74>(c, n); break;
      case NistBinary::B283: reduceNistWords<283, 12, 7, 5>(c, n); break;
      case NistBinary::B409: reduceNistWords<409, 87>(c, n); break;
      case NistBinary::B571: reduceNistWords<571, 10, 5, 2>(c, n); break;
      default: reduceAnyWords(c, n, m_, mid_); break;
    }
    std::copy(c, c + words_, r);
}

MpUint
BinaryField::reduceGeneric(const MpUint &wide) const
{
    MpUint r = wide;
    while (r.bitLength() > m_) {
        int j = r.bitLength() - f_.bitLength();
        r = r.bitXor(f_.shiftLeft(j));
    }
    return r;
}

int
BinaryField::trace(const MpUint &a) const
{
    MpUint t = reduce(a);
    MpUint acc = t;
    for (int i = 1; i < m_; ++i) {
        t = reduce(polySqr(t));
        acc = acc.bitXor(t);
    }
    assert(acc.isZero() || acc == MpUint(1));
    return acc.isZero() ? 0 : 1;
}

MpUint
BinaryField::halfTrace(const MpUint &a) const
{
    assert((m_ % 2) == 1 && "half-trace requires odd m");
    MpUint t = reduce(a);
    MpUint acc = t;
    for (int i = 1; i <= (m_ - 1) / 2; ++i) {
        t = reduce(polySqr(reduce(polySqr(t))));
        acc = acc.bitXor(t);
    }
    return acc;
}

MpUint
BinaryField::polyMulComb(const MpUint &a, const MpUint &b) const
{
    const int k = words_;
    if (a.size() > k || b.size() > k)
        throw UleccError(Errc::InvalidInput,
                         "BinaryField::polyMulComb: operand wider than "
                         + std::to_string(k) + " words");
    uint32_t aw[kFieldElemWords], bw[kFieldElemWords];
    for (int i = 0; i < k; ++i) {
        aw[i] = a.limbU(i);
        bw[i] = b.limbU(i);
    }
    uint32_t c[2 * kFieldElemWords];
    combInto(aw, bw, c);
    return MpUint::fromLimbs(c, 2 * k);
}

void
BinaryField::combInto(const uint32_t *a, const uint32_t *b,
                      uint32_t *c) const
{
    switch (words_) {
      case 6: return combWords<6>(a, b, c);   // B-163
      case 8: return combWords<8>(a, b, c);   // B-233
      case 9: return combWords<9>(a, b, c);   // B-283
      case 13: return combWords<13>(a, b, c); // B-409
      case 18: return combWords<18>(a, b, c); // B-571
      default: break;
    }
    // Any other width, zero-padded to the widest.
    uint32_t aw[kFieldElemWords] = {}, bw[kFieldElemWords] = {};
    std::copy(a, a + words_, aw);
    std::copy(b, b + words_, bw);
    combWords<kFieldElemWords>(aw, bw, c);
}

MpUint
BinaryField::polyMulClmul(const MpUint &a, const MpUint &b) const
{
    // Product scanning with word carry-less multiplies -- the loop the
    // MULGF2/MADDGF2 ISA extensions make efficient (paper Table 5.2).
    const int ka = (a.bitLength() + 31) / 32;
    const int kb = (b.bitLength() + 31) / 32;
    if (ka == 0 || kb == 0)
        return MpUint();
    uint32_t r[2 * MpUint::maxLimbs] = {0};
    for (int i = 0; i < ka; ++i) {
        for (int j = 0; j < kb; ++j) {
            uint64_t p = clmul32(a.limbU(i), b.limbU(j));
            r[i + j] ^= static_cast<uint32_t>(p);
            r[i + j + 1] ^= static_cast<uint32_t>(p >> 32);
        }
    }
    MpUint out;
    for (int i = 0; i < ka + kb && i < MpUint::maxLimbs; ++i)
        out.setLimb(i, r[i]);
    return out;
}

MpUint
BinaryField::polySqr(const MpUint &a) const
{
    // Zero-interleave each byte via the 256-entry spread table
    // (Section 4.2.3).
    const auto &tbl = squareSpreadTable();
    const int k = (a.bitLength() + 31) / 32;
    MpUint r;
    for (int i = 0; i < k; ++i) {
        uint32_t v = a.limb(i);
        uint32_t lo = tbl[v & 0xFF] | (static_cast<uint32_t>(
            tbl[(v >> 8) & 0xFF]) << 16);
        uint32_t hi = tbl[(v >> 16) & 0xFF] | (static_cast<uint32_t>(
            tbl[(v >> 24) & 0xFF]) << 16);
        if (lo)
            r.setLimb(2 * i, lo);
        if (hi)
            r.setLimb(2 * i + 1, hi);
    }
    return r;
}

} // namespace ulecc
