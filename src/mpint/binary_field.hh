/**
 * @file
 * Binary-field GF(2^m) arithmetic.
 *
 * Implements the paper's binary-field software suite (Sections 4.2.2 -
 * 4.2.4): carry-less "addition" (XOR), left-to-right comb multiplication
 * with 4-bit windows (paper Algorithm 6 -- the software-only path),
 * carry-less word multiplication (the MULGF2/MADDGF2 ISA-extension
 * path), table-accelerated squaring, NIST fast reduction for the five
 * standard reduction polynomials (Eq. 4.8 - 4.12), and inversion by the
 * polynomial extended Euclidean algorithm and by Fermat's little theorem
 * (the accelerator path).
 *
 * As in PrimeField, the arithmetic proper runs on FieldElem: XOR, the
 * comb and the NIST fold in place, squaring by spreading into a stack
 * buffer, inversion by the polynomial EEA on words.  Each element op
 * notifies once; the MpUint overloads load, run it and store.
 */

#ifndef ULECC_MPINT_BINARY_FIELD_HH
#define ULECC_MPINT_BINARY_FIELD_HH

#include <cstdint>
#include <vector>

#include "mpint/field_elem.hh"
#include "mpint/mpuint.hh"

namespace ulecc
{

/** The NIST binary fields of the study, plus Generic. */
enum class NistBinary
{
    B163,
    B233,
    B283,
    B409,
    B571,
    Generic,
};

/** Returns the reduction polynomial f(x) for a named NIST binary field. */
MpUint nistBinaryPoly(NistBinary which);

/** Carry-less 32x32 -> 64 multiplication (software CLMUL). */
uint64_t clmul32(uint32_t a, uint32_t b);

/** GF(2^m) field context with reduction polynomial f(x). */
class BinaryField
{
  public:
    /**
     * Constructs a field from an irreducible polynomial @p f of degree m
     * (a trinomial or pentanomial; degree defines the field size).
     */
    explicit BinaryField(const MpUint &f);

    /** Convenience constructor from a named NIST binary field. */
    explicit BinaryField(NistBinary which);

    /** Field degree m. */
    int degree() const { return m_; }

    /** Field size in bits (== degree). */
    int bits() const { return m_; }

    /** Number of 32-bit words per element. */
    int words() const { return words_; }

    NistBinary kind() const { return kind_; }

    const MpUint &poly() const { return f_; }

    /**
     * The non-leading exponents of f(x): f = x^m + x^a + x^b + x^c + 1
     * stored as {a, b, c} (trinomials store just {a}), descending, the
     * final +1 implied.
     */
    const std::vector<int> &midTerms() const { return mid_; }

    /** @name Element interface (the curve formulas' hot path) */
    /** @{ */

    /** @p a mod f(x) as an element (a polynomial of degree >= m is
     * reduced). */
    FieldElem load(const MpUint &a) const;

    /** The element's value as an MpUint. */
    MpUint store(const FieldElem &a) const
    {
        return MpUint::fromLimbs(a.w, words_);
    }

    /** True iff deg(a) < m: @p a is already a field element. */
    bool inRange(const MpUint &a) const { return a.bitLength() <= m_; }

    bool isZero(const FieldElem &a) const { return elemIsZero(a, words_); }

    FieldElem add(const FieldElem &a, const FieldElem &b) const;
    FieldElem sub(const FieldElem &a, const FieldElem &b) const
    {
        return add(a, b);
    }
    FieldElem mul(const FieldElem &a, const FieldElem &b) const;
    FieldElem sqr(const FieldElem &a) const;

    /**
     * a^-1 by the polynomial extended Euclidean algorithm (Guide to
     * ECC, Algorithm 2.48) on fixed words.  Throws Errc::InvalidInput
     * for zero.
     */
    FieldElem inv(const FieldElem &a) const;

    /** @} */

    /** Field addition == subtraction == XOR (operands reduced first). */
    MpUint add(const MpUint &a, const MpUint &b) const;

    /** Alias of add (binary fields are characteristic 2). */
    MpUint sub(const MpUint &a, const MpUint &b) const { return add(a, b); }

    /**
     * Field multiplication via the left-to-right comb method with 4-bit
     * windows (paper Algorithm 6) followed by fast reduction.  This is
     * the software-only algorithm whose cost makes unassisted binary
     * ECC impractical.  Operands wider than words() limbs are rejected
     * (Errc::InvalidInput), as in polyMulComb.
     */
    MpUint mul(const MpUint &a, const MpUint &b) const;

    /**
     * Field multiplication built on word-level carry-less multiply
     * (product scanning with MULGF2/MADDGF2) -- the ISA-extension
     * algorithm.  Bit-identical result to mul().
     */
    MpUint mulClmul(const MpUint &a, const MpUint &b) const;

    /** Field squaring via the 8->16 bit spread table + reduction. */
    MpUint sqr(const MpUint &a) const;

    /** Inversion via the polynomial extended Euclidean algorithm. */
    MpUint inv(const MpUint &a) const;

    /** Inversion via Fermat: a^(2^m - 2) by square-and-multiply. */
    MpUint invFermat(const MpUint &a) const;

    /**
     * Inversion via the Itoh-Tsujii addition chain: a^(2^m - 2) using
     * only ~log2(m) multiplications plus m-1 squarings (the paper's
     * Chapter 8 future work on accelerating modular inversion --
     * Billie's cheap squarer makes this chain dramatically faster
     * than plain Fermat on the accelerator).
     */
    MpUint invItohTsujii(const MpUint &a) const;

    /**
     * Multiplication count of the Itoh-Tsujii chain for degree m
     * (floor(log2(m-1)) + popcount(m-1) - 1).
     */
    static int itohTsujiiMulCount(int m);

    /** Reduces a polynomial of degree < 2m modulo f(x). */
    MpUint reduce(const MpUint &wide) const;

    /** Reduction oracle via polynomial long division (tests only). */
    MpUint reduceGeneric(const MpUint &wide) const;

    /** Field trace Tr(a) = sum a^(2^i); returns 0 or 1. */
    int trace(const MpUint &a) const;

    /**
     * Half-trace H(a) = sum a^(2^(2i)) for odd m: solves z^2 + z = a
     * when Tr(a) == 0 (used to find curve points / decompress y).
     */
    MpUint halfTrace(const MpUint &a) const;

    /**
     * Raw polynomial product (no reduction), comb method over fixed
     * word arrays.  Throws UleccError(Errc::InvalidInput) when an
     * operand has more than words() limbs.
     */
    MpUint polyMulComb(const MpUint &a, const MpUint &b) const;

    /** Raw polynomial product (no reduction), word CLMUL scanning. */
    MpUint polyMulClmul(const MpUint &a, const MpUint &b) const;

    /** Raw polynomial square (bit spreading, no reduction). */
    MpUint polySqr(const MpUint &a) const;

  private:
    /**
     * The comb product of the words() words at @p a and @p b into the
     * 2*words() words at @p c.
     */
    void combInto(const uint32_t *a, const uint32_t *b, uint32_t *c) const;

    /** Folds the @p n words at @p c modulo f(x) in place and copies the
     * words() words of the result to @p r. */
    void reduceWords(uint32_t *c, int n, uint32_t *r) const;

    /** The element holding @p v, which must be of degree below m. */
    FieldElem elemOf(const MpUint &v) const;

    MpUint f_;
    int m_;
    int words_;
    NistBinary kind_;
    std::vector<int> mid_;
};

} // namespace ulecc

#endif // ULECC_MPINT_BINARY_FIELD_HH
