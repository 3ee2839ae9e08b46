/**
 * @file
 * Prime-field GF(p) arithmetic.
 *
 * Implements the software algorithms the paper evaluates (Section 4.2.1):
 *
 *  - operand-scanning and product-scanning multi-precision multiplication
 *    (MpUint) followed by NIST fast (Solinas) reduction, used by the
 *    baseline and ISA-extended microarchitectures;
 *  - CIOS Montgomery multiplication (paper Algorithm 5), the algorithm
 *    microcoded into the Monte accelerator's FFAU;
 *  - FIPS (finely integrated product scanning) Montgomery multiplication,
 *    the variant the ISA extensions were compared against;
 *  - binary-EEA inversion (used on Pete) and Fermat-little-theorem
 *    inversion (used on the accelerators).
 *
 * The five NIST primes of the study (P-192/224/256/384/521) are
 * recognised and given their Solinas fold identities (paper Eq. 4.3-4.7).
 * For them mul, sqr and reduce run fixed-width word kernels: operand
 * scanning over words() limbs (in 64-bit rows) into a stack buffer,
 * then the word-level reduction of FIPS 186-4 D.2
 * (P-224/256/384), the paper's Algorithm 4 (P-192) or one shift-add
 * (P-521).  The generic Solinas fold (reduceSolinas) is the reference
 * they are tested against, and the path for inputs wider than
 * 2*words() limbs.
 *
 * The arithmetic proper runs on FieldElem (field_elem.hh), the form
 * the curve formulas compute in: add, sub and neg on words for every
 * modulus, mul and sqr on the word kernels for the NIST primes and
 * through MpUint for a generic modulus (the toy curves, the group
 * order: two CIOS Montgomery passes), inversion by a word-level
 * binary EEA.  Each element op
 * notifies the OpObserver exactly once.  The MpUint overloads are
 * adapters: load (reducing an out-of-range operand), run the element
 * op, store.
 */

#ifndef ULECC_MPINT_PRIME_FIELD_HH
#define ULECC_MPINT_PRIME_FIELD_HH

#include <string>
#include <vector>

#include "mpint/field_elem.hh"
#include "mpint/mpuint.hh"

namespace ulecc
{

/** The NIST primes of the study, plus Generic for everything else. */
enum class NistPrime
{
    P192,
    P224,
    P256,
    P384,
    P521,
    Generic,
};

/** Returns the prime value for a named NIST prime. */
MpUint nistPrimeValue(NistPrime which);

/** GF(p) field context. */
class PrimeField
{
  public:
    /** One fold term of the Solinas identity 2^n == sum sign*2^shift. */
    struct SolinasTerm
    {
        int sign;  ///< +1 or -1
        int shift; ///< bit position
    };

    /** Constructs a field for an odd prime @p p. */
    explicit PrimeField(const MpUint &p);

    /** Convenience constructor from a named NIST prime. */
    explicit PrimeField(NistPrime which);

    const MpUint &modulus() const { return p_; }

    /** Field size in bits. */
    int bits() const { return bits_; }

    /** Number of 32-bit words per element (k = ceil(bits/32)). */
    int words() const { return words_; }

    /** Which NIST prime this is (Generic if unrecognised). */
    NistPrime kind() const { return kind_; }

    /** True if a Solinas fast-reduction identity is available. */
    bool hasSolinas() const { return !terms_.empty(); }

    /** @name Element interface (the curve formulas' hot path) */
    /** @{ */

    /** @p a mod p as an element (an out-of-range value is reduced). */
    FieldElem load(const MpUint &a) const;

    /** The element's value as an MpUint. */
    MpUint store(const FieldElem &a) const
    {
        return MpUint::fromLimbs(a.w, words_);
    }

    /** True iff 0 <= a < p: @p a is already a field element. */
    bool inRange(const MpUint &a) const { return a < p_; }

    bool isZero(const FieldElem &a) const { return elemIsZero(a, words_); }

    FieldElem add(const FieldElem &a, const FieldElem &b) const;
    FieldElem sub(const FieldElem &a, const FieldElem &b) const;
    FieldElem neg(const FieldElem &a) const;
    FieldElem mul(const FieldElem &a, const FieldElem &b) const;
    FieldElem sqr(const FieldElem &a) const;

    /**
     * a^-1 by the binary extended Euclidean algorithm (Guide to ECC,
     * Algorithm 2.22) on fixed words.  Throws Errc::InvalidInput for
     * zero or a non-invertible value.
     */
    FieldElem inv(const FieldElem &a) const;

    /** @} */

    /** (a + b) mod p (an out-of-range operand is reduced first). */
    MpUint add(const MpUint &a, const MpUint &b) const;

    /** (a - b) mod p (an out-of-range operand is reduced first). */
    MpUint sub(const MpUint &a, const MpUint &b) const;

    /** (-a) mod p. */
    MpUint neg(const MpUint &a) const;

    /** (a * b) mod p via operand scanning + fast reduction. */
    MpUint mul(const MpUint &a, const MpUint &b) const;

    /** (a * b) mod p via product scanning + fast reduction. */
    MpUint mulProductScan(const MpUint &a, const MpUint &b) const;

    /** a^2 mod p. */
    MpUint sqr(const MpUint &a) const;

    /** a^-1 mod p via the binary extended Euclidean algorithm. */
    MpUint inv(const MpUint &a) const;

    /** a^-1 mod p via Fermat's little theorem (a^(p-2)). */
    MpUint invFermat(const MpUint &a) const;

    /** a^e mod p (left-to-right binary, Montgomery domain inside). */
    MpUint pow(const MpUint &a, const MpUint &e) const;

    /**
     * Reduces a value mod p: the word-level NIST kernel for inputs of
     * at most 2*words() limbs, the Solinas fold for wider ones, and
     * division for a generic modulus.
     */
    MpUint reduce(const MpUint &wide) const;

    /** Generic reduction via division (test oracle / fallback). */
    MpUint reduceGeneric(const MpUint &wide) const;

    /**
     * NIST fast reduction via the generic Solinas fold identity: the
     * reference the word-level kernels are checked against.
     */
    MpUint reduceSolinas(const MpUint &wide) const;

    /**
     * The paper's Algorithm 4, word-for-word: fast reduction modulo
     * P-192 using 64-bit chunks s1..s4 of the low 384 bits.  The
     * production P-192 reduction; throws Errc::InvalidInput on any
     * other field.
     */
    MpUint reduceP192Literal(const MpUint &wide) const;

    /** @name Montgomery arithmetic (R = 2^(32*words)) */
    /** @{ */

    /** -p^-1 mod 2^32 (the CIOS n0' constant). */
    uint32_t n0Prime() const { return n0prime_; }

    /** R mod p. */
    const MpUint &montR() const { return rModP_; }

    /** R^2 mod p (for conversion into the Montgomery domain). */
    const MpUint &montR2() const { return r2ModP_; }

    /** Converts into the Montgomery domain: a*R mod p. */
    MpUint toMont(const MpUint &a) const;

    /** Converts out of the Montgomery domain: a*R^-1 mod p. */
    MpUint fromMont(const MpUint &a) const;

    /**
     * CIOS Montgomery multiplication (paper Algorithm 5): returns
     * a*b*R^-1 mod p.  This is exactly the loop structure microcoded
     * into Monte's FFAU.
     */
    MpUint montMulCios(const MpUint &a, const MpUint &b) const;

    /**
     * FIPS (finely integrated product scanning) Montgomery
     * multiplication: same result as montMulCios, product-scanning
     * loop structure (the form suited to the MADDU/ADDAU/SHA ISA
     * extensions).
     */
    MpUint montMulFips(const MpUint &a, const MpUint &b) const;

    /** @} */

    /** Solinas fold terms (empty when !hasSolinas()). */
    const std::vector<SolinasTerm> &solinasTerms() const { return terms_; }

    /** Square root mod p (Tonelli-Shanks; shortcut for p % 4 == 3). */
    bool sqrt(const MpUint &a, MpUint &root) const;

  private:
    /** Word-level NIST reduction of the 2*words() limbs at @p t. */
    void reduceWords(const uint32_t *t, uint32_t *r) const;

    /** The element holding @p v, which must be below p. */
    FieldElem elemOf(const MpUint &v) const;

    /** a*b mod p for a generic modulus, through MpUint and CIOS. */
    FieldElem mulGeneric(const FieldElem &a, const FieldElem &b) const;

    MpUint p_;
    uint32_t pw_[kFieldElemWords]; ///< p's words, zero above words()
    int bits_;
    int words_;
    NistPrime kind_;
    std::vector<SolinasTerm> terms_;
    uint32_t n0prime_;
    MpUint rModP_;
    MpUint r2ModP_;
    MpUint mask_; ///< 2^bits - 1 for Solinas folding
};

} // namespace ulecc

#endif // ULECC_MPINT_PRIME_FIELD_HH
