/**
 * @file
 * Fixed-width field element: the curve layer's working value.
 *
 * The paper's ECDSA software computes on fixed k-word operands
 * (Section 4.2).  FieldElem is that operand: a plain array of 32-bit
 * words, wide enough for the widest field of the study (B-571, 18
 * words), with no length, no trimming and no zero-fill.  Only the
 * field's words() low words carry meaning; the rest are whatever the
 * last kernel left there.  A stored value is always canonical: below
 * p for GF(p), of degree below m for GF(2^m).  The fields' element
 * overloads (PrimeField/BinaryField add, sub, mul, sqr, inv) keep it
 * so, and their load() brings an MpUint into that form.
 *
 * MpUint stays the type of the affine, protocol and test boundary;
 * the projective formulas run on elements only.
 */

#ifndef ULECC_MPINT_FIELD_ELEM_HH
#define ULECC_MPINT_FIELD_ELEM_HH

#include <cstdint>

namespace ulecc
{

/** Words of the widest field of the study (B-571). */
constexpr int kFieldElemWords = 18;

/** A field element on the field's words() low words. */
struct FieldElem
{
    uint32_t w[kFieldElemWords];
};

/**
 * The small constant @p v with every word set: a valid element of any
 * field whose modulus exceeds @p v (degree above its bit length).
 */
inline FieldElem
elemOfWord(uint32_t v)
{
    FieldElem e{};
    e.w[0] = v;
    return e;
}

/** True iff the @p k low words of @p a are zero. */
inline bool
elemIsZero(const FieldElem &a, int k)
{
    uint32_t acc = 0;
    for (int i = 0; i < k; ++i)
        acc |= a.w[i];
    return acc == 0;
}

/**
 * Packs @p k words into (k + 1) / 2 64-bit limbs, the top half zero
 * for odd k: the kernels' 64-bit rows.
 */
inline void
packLimbs64(const uint32_t *w, int k, uint64_t *d)
{
    for (int i = 0; i < k / 2; ++i)
        d[i] = w[2 * i] | (static_cast<uint64_t>(w[2 * i + 1]) << 32);
    if (k % 2 != 0)
        d[k / 2] = w[k - 1];
}

/** The @p k low words of the 64-bit limbs at @p d. */
inline void
unpackLimbs64(const uint64_t *d, int k, uint32_t *w)
{
    for (int i = 0; i < k; ++i)
        w[i] = static_cast<uint32_t>(d[i / 2] >> (32 * (i % 2)));
}

} // namespace ulecc

#endif // ULECC_MPINT_FIELD_ELEM_HH
