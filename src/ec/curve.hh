/**
 * @file
 * Elliptic-curve definitions and the curve registry.
 *
 * The study evaluates ECDSA over the NIST prime curves (P-192..P-521,
 * short Weierstrass y^2 = x^3 + ax + b) and the NIST binary curves
 * (B-163..B-571, y^2 + xy = x^3 + ax^2 + b).  Curve parameters embedded
 * here are checked for self-consistency (n * G == infinity) at
 * registration; parameters that cannot be verified in-tree are replaced
 * by documented synthetic equivalents of identical field/order size --
 * the energy evaluation depends only on operand widths, never on the
 * specific constants (see DESIGN.md).
 */

#ifndef ULECC_EC_CURVE_HH
#define ULECC_EC_CURVE_HH

#include <memory>
#include <string>
#include <vector>

#include "mpint/binary_field.hh"
#include "mpint/field_elem.hh"
#include "mpint/mpuint.hh"
#include "mpint/prime_field.hh"

namespace ulecc
{

/** An affine point; (infinity==true) is the group identity. */
struct AffinePoint
{
    MpUint x;
    MpUint y;
    bool infinity = true;

    AffinePoint() = default;
    AffinePoint(const MpUint &px, const MpUint &py)
        : x(px), y(py), infinity(false)
    {}

    static AffinePoint makeInfinity() { return AffinePoint(); }
};

/**
 * A point in projective coordinates, on field elements of its curve's
 * field.  For prime curves these are Jacobian ((X,Y,Z) -> (X/Z^2,
 * Y/Z^3), infinity (1,1,0)); for binary curves Lopez-Dahab ((X,Y,Z)
 * -> (X/Z, Y/Z^2), infinity (1,0,0)).  Only the curve knows how many
 * words of an element count, so the point carries its own infinity
 * flag, set exactly when Z is zero.
 */
struct ProjPoint
{
    FieldElem x;
    FieldElem y;
    FieldElem z;
    bool infinity = false;

    bool isInfinity() const { return infinity; }
};

/** Base interface shared by prime and binary curves. */
class Curve
{
  public:
    virtual ~Curve() = default;

    /** Human-readable name, e.g. "P-192" or "B-163". */
    const std::string &name() const { return name_; }

    /** Field size in bits (192..521 or 163..571). */
    virtual int fieldBits() const = 0;

    /** True for GF(2^m) curves. */
    virtual bool isBinary() const = 0;

    /** The base point G. */
    const AffinePoint &generator() const { return g_; }

    /** The (claimed) order n of G. */
    const MpUint &order() const { return n_; }

    /**
     * True when the embedded parameters passed the in-tree
     * self-consistency check (G on curve and n * G == infinity).
     */
    bool orderVerified() const { return orderVerified_; }

    /** True if the parameters are documented synthetic stand-ins. */
    bool synthetic() const { return synthetic_; }

    /** @name Group operations (affine interface) */
    /** @{ */
    /**
     * True for infinity and for a point whose coordinates are field
     * elements (0 <= x, y < p; degree below m) satisfying the curve
     * equation (SEC 1, 3.2.2.1).
     */
    virtual bool onCurve(const AffinePoint &p) const = 0;
    virtual AffinePoint negate(const AffinePoint &p) const = 0;
    virtual AffinePoint addAffine(const AffinePoint &p,
                                  const AffinePoint &q) const = 0;
    virtual AffinePoint doubleAffine(const AffinePoint &p) const = 0;
    /** @} */

    /**
     * @name Group operations (projective, the evaluated fast path)
     * The formulas run on FieldElem; MpUint appears only where a point
     * enters (toProj, addMixed's affine operand) or leaves (toAffine).
     */
    /** @{ */
    /** Loads @p p, reducing any coordinate outside the field. */
    virtual ProjPoint toProj(const AffinePoint &p) const = 0;
    virtual AffinePoint toAffine(const ProjPoint &p) const = 0;
    virtual ProjPoint doubleProj(const ProjPoint &p) const = 0;
    /** Mixed addition: projective + affine (the hot operation). */
    virtual ProjPoint addMixed(const ProjPoint &p,
                               const AffinePoint &q) const = 0;
    /**
     * Converts several points to affine sharing one field inversion
     * (Montgomery's simultaneous-inversion trick) -- used for the
     * precomputed-point tables so a scalar multiplication performs
     * only two inversions in total.
     */
    std::vector<AffinePoint>
    toAffineBatch(const std::vector<ProjPoint> &points) const;

    /** The field inversion used by toAffineBatch. */
    virtual FieldElem fieldInv(const FieldElem &a) const = 0;
    /** The field multiplication used by toAffineBatch. */
    virtual FieldElem fieldMul(const FieldElem &a,
                               const FieldElem &b) const = 0;
    /** Completes an affine point from x = X * zinvA, y = Y * zinvB. */
    virtual AffinePoint affineFromProj(const ProjPoint &p,
                                       const FieldElem &zinv) const = 0;
    /** @} */

  protected:
    Curve(std::string name, AffinePoint g, MpUint n, bool synthetic)
        : name_(std::move(name)), g_(std::move(g)), n_(std::move(n)),
          synthetic_(synthetic)
    {}

    /** Runs the self-consistency check; called by subclasses. */
    void verifyOrder();

    std::string name_;
    AffinePoint g_;
    MpUint n_;
    bool orderVerified_ = false;
    bool synthetic_ = false;
};

/** Short-Weierstrass curve over GF(p): y^2 = x^3 + ax + b. */
class PrimeCurve : public Curve
{
  public:
    PrimeCurve(std::string name, NistPrime prime, const MpUint &a,
               const MpUint &b, const AffinePoint &g, const MpUint &n,
               bool synthetic = false);

    /** Generic-prime constructor (toy curves). */
    PrimeCurve(std::string name, const MpUint &p, const MpUint &a,
               const MpUint &b, const AffinePoint &g, const MpUint &n,
               bool synthetic = false);

    const PrimeField &field() const { return field_; }
    const MpUint &a() const { return a_; }
    const MpUint &b() const { return b_; }

    int fieldBits() const override { return field_.bits(); }
    bool isBinary() const override { return false; }

    bool onCurve(const AffinePoint &p) const override;
    AffinePoint negate(const AffinePoint &p) const override;
    AffinePoint addAffine(const AffinePoint &p,
                          const AffinePoint &q) const override;
    AffinePoint doubleAffine(const AffinePoint &p) const override;

    ProjPoint toProj(const AffinePoint &p) const override;
    AffinePoint toAffine(const ProjPoint &p) const override;
    ProjPoint doubleProj(const ProjPoint &p) const override;
    ProjPoint addMixed(const ProjPoint &p,
                       const AffinePoint &q) const override;
    FieldElem fieldInv(const FieldElem &a) const override;
    FieldElem fieldMul(const FieldElem &a,
                       const FieldElem &b) const override;
    AffinePoint affineFromProj(const ProjPoint &p,
                               const FieldElem &zinv) const override;

  private:
    /** Loads a and the formulas' small constants as elements. */
    void initElems();

    /** The point at infinity, (1, 1, 0). */
    ProjPoint infinityProj() const
    {
        return {one_, one_, FieldElem{}, true};
    }

    PrimeField field_;
    MpUint a_;
    MpUint b_;
    FieldElem aElem_, one_, two_, three_, four_, eight_;
};

/** Binary curve over GF(2^m): y^2 + xy = x^3 + ax^2 + b. */
class BinaryCurve : public Curve
{
  public:
    BinaryCurve(std::string name, NistBinary fieldKind, const MpUint &a,
                const MpUint &b, const AffinePoint &g, const MpUint &n,
                bool synthetic = false);

    /** Generic-polynomial constructor (toy curves). */
    BinaryCurve(std::string name, const MpUint &poly, const MpUint &a,
                const MpUint &b, const AffinePoint &g, const MpUint &n,
                bool synthetic = false);

    const BinaryField &field() const { return field_; }
    const MpUint &a() const { return a_; }
    const MpUint &b() const { return b_; }

    int fieldBits() const override { return field_.bits(); }
    bool isBinary() const override { return true; }

    bool onCurve(const AffinePoint &p) const override;
    AffinePoint negate(const AffinePoint &p) const override;
    AffinePoint addAffine(const AffinePoint &p,
                          const AffinePoint &q) const override;
    AffinePoint doubleAffine(const AffinePoint &p) const override;

    ProjPoint toProj(const AffinePoint &p) const override;
    AffinePoint toAffine(const ProjPoint &p) const override;
    ProjPoint doubleProj(const ProjPoint &p) const override;
    ProjPoint addMixed(const ProjPoint &p,
                       const AffinePoint &q) const override;
    FieldElem fieldInv(const FieldElem &a) const override;
    FieldElem fieldMul(const FieldElem &a,
                       const FieldElem &b) const override;
    AffinePoint affineFromProj(const ProjPoint &p,
                               const FieldElem &zinv) const override;

  private:
    /** Loads a, b and 1 as elements. */
    void initElems();

    /** The point at infinity, (1, 0, 0). */
    ProjPoint infinityProj() const
    {
        return {one_, FieldElem{}, FieldElem{}, true};
    }

    BinaryField field_;
    MpUint a_;
    MpUint b_;
    FieldElem aElem_, bElem_, one_;
};

/** Identifiers for the curves of the study. */
enum class CurveId
{
    P192, P224, P256, P384, P521,
    B163, B233, B283, B409, B571,
};

/** Returns the singleton curve for @p id (built on first use). */
const Curve &standardCurve(CurveId id);

/** Returns all five prime-curve ids in ascending key size. */
const std::vector<CurveId> &primeCurveIds();

/** Returns all five binary-curve ids in ascending key size. */
const std::vector<CurveId> &binaryCurveIds();

/** Human-readable name of a curve id (matches Curve::name()). */
std::string curveIdName(CurveId id);

/** Key size in bits for a curve id (192.. / 163..). */
int curveIdBits(CurveId id);

/**
 * True for the GF(2^m) curve ids.  Unlike standardCurve(id).isBinary()
 * this never builds the curve, so capability checks on paths that may
 * not evaluate anything (cached sweeps) stay free.
 */
bool curveIdIsBinary(CurveId id);

} // namespace ulecc

#endif // ULECC_EC_CURVE_HH
