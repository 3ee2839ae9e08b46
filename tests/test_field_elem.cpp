/**
 * @file
 * The fixed-width element arithmetic against independent oracles:
 * every PrimeField/BinaryField element op against check::RefInt on the
 * ten curve fields (plus the generic-modulus paths: group-order
 * fields and toy fields), and the projective curve formulas against
 * the affine group law on every curve, toy curves included.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "base/error.hh"
#include "check/refint.hh"
#include "ec/curve.hh"
#include "ec/toy_curves.hh"
#include "test_util.hh"

using namespace ulecc;
using check::RefInt;
using test::Rng;

namespace
{

RefInt
ref(const MpUint &v)
{
    return RefInt::fromMp(v);
}

std::string
curveParamName(const ::testing::TestParamInfo<CurveId> &info)
{
    std::string n = curveIdName(info.param);
    n.erase(std::remove(n.begin(), n.end(), '-'), n.end());
    return n;
}

/** Operands at the places word arithmetic goes wrong, all below p. */
std::vector<MpUint>
primeEdges(const PrimeField &f)
{
    const MpUint &p = f.modulus();
    const int top = 32 * (f.words() - 1);
    std::vector<MpUint> v = {
        MpUint(), MpUint(1), MpUint(2),
        p.sub(MpUint(1)), p.sub(MpUint(2)),
        p.shiftRight(1), p.shiftRight(1).add(MpUint(1)),
        MpUint::powerOfTwo(f.bits() - 1),
    };
    if (top > 0) {
        v.push_back(MpUint::powerOfTwo(top).sub(MpUint(1)));
        v.push_back(MpUint::powerOfTwo(top));
    }
    return v;
}

/** Checks every element op of @p f on (a, b) against RefInt. */
void
checkPrimeOps(const PrimeField &f, const MpUint &a, const MpUint &b)
{
    const RefInt p = ref(f.modulus());
    const FieldElem ea = f.load(a), eb = f.load(b);
    SCOPED_TRACE("a=" + a.toHex() + " b=" + b.toHex());
    EXPECT_EQ(f.store(f.add(ea, eb)).toHex(),
              ref(a).add(ref(b)).mod(p).toHex());
    EXPECT_EQ(f.store(f.sub(ea, eb)).toHex(),
              ref(a).add(p).sub(ref(b)).mod(p).toHex());
    EXPECT_EQ(f.store(f.neg(ea)).toHex(), p.sub(ref(a)).mod(p).toHex());
    EXPECT_EQ(f.store(f.mul(ea, eb)).toHex(),
              ref(a).mul(ref(b)).mod(p).toHex());
    EXPECT_EQ(f.store(f.sqr(ea)).toHex(),
              ref(a).mul(ref(a)).mod(p).toHex());
    if (!a.isZero()) {
        MpUint inv = f.store(f.inv(ea));
        EXPECT_LT(inv, f.modulus());
        EXPECT_EQ(ref(a).mul(ref(inv)).mod(p).toHex(), "1");
    }
}

void
checkPrimeField(const PrimeField &f, uint64_t seed)
{
    std::vector<MpUint> edges = primeEdges(f);
    for (const MpUint &a : edges) {
        for (const MpUint &b : edges)
            checkPrimeOps(f, a, b);
    }
    Rng rng(seed);
    for (int i = 0; i < 150; ++i)
        checkPrimeOps(f, rng.mpBelow(f.modulus()), rng.mpBelow(f.modulus()));
}

class PrimeElemOracle : public ::testing::TestWithParam<CurveId>
{
  protected:
    const PrimeCurve &
    curve() const
    {
        return static_cast<const PrimeCurve &>(standardCurve(GetParam()));
    }
};

/** Decodes one {0, all-ones} word pattern of @p words words. */
MpUint
wordPattern(uint64_t bits, int words)
{
    MpUint v;
    for (int i = 0; i < words; ++i) {
        if ((bits >> i) & 1)
            v.setLimb(i, 0xffffffffu);
    }
    return v;
}

/** Checks every element op of @p f on (a, b) against RefInt. */
void
checkBinaryOps(const BinaryField &f, const MpUint &a, const MpUint &b)
{
    const RefInt poly = ref(f.poly());
    const FieldElem ea = f.load(a), eb = f.load(b);
    SCOPED_TRACE("a=" + a.toHex() + " b=" + b.toHex());
    EXPECT_EQ(f.store(f.add(ea, eb)).toHex(), a.bitXor(b).toHex());
    EXPECT_EQ(f.store(f.sub(ea, eb)).toHex(), a.bitXor(b).toHex());
    EXPECT_EQ(f.store(f.mul(ea, eb)).toHex(),
              ref(a).polyMul(ref(b)).polyMod(poly).toHex());
    EXPECT_EQ(f.store(f.sqr(ea)).toHex(),
              ref(a).polyMul(ref(a)).polyMod(poly).toHex());
    if (!a.isZero()) {
        MpUint inv = f.store(f.inv(ea));
        EXPECT_LE(inv.bitLength(), f.degree());
        EXPECT_EQ(ref(a).polyMul(ref(inv)).polyMod(poly).toHex(), "1");
    }
}

void
checkBinaryField(const BinaryField &f, uint64_t seed)
{
    const int m = f.degree();
    const MpUint low = f.poly().bitXor(MpUint::powerOfTwo(m)); // f - x^m
    std::vector<MpUint> edges = {
        MpUint(), MpUint(1), MpUint(2), MpUint::powerOfTwo(m - 1),
        MpUint::powerOfTwo(m).sub(MpUint(1)), low,
        low.bitXor(MpUint::powerOfTwo(m - 1)),
    };
    for (const MpUint &a : edges) {
        for (const MpUint &b : edges)
            checkBinaryOps(f, a, b);
    }
    Rng rng(seed);
    for (int i = 0; i < 150; ++i) {
        checkBinaryOps(f, rng.mp(1 + static_cast<int>(rng.below(m))),
                       rng.mp(1 + static_cast<int>(rng.below(m))));
    }
}

} // namespace

TEST_P(PrimeElemOracle, CurveFieldOpsMatchRefInt)
{
    checkPrimeField(curve().field(), 0xe1e + static_cast<int>(GetParam()));
}

TEST_P(PrimeElemOracle, OrderFieldOpsMatchRefInt)
{
    // The group order is a generic modulus: mul and sqr go through
    // MpUint inside the element op, inversion runs on words.
    PrimeField fn(curve().order());
    ASSERT_EQ(fn.kind(), NistPrime::Generic);
    checkPrimeField(fn, 0x0de + static_cast<int>(GetParam()));
}

TEST_P(PrimeElemOracle, ReductionExtremes)
{
    // The word-level reductions sum signed columns of the double-width
    // input and then normalize, adding or subtracting p a bounded
    // number of times.  The column sums are linear in the input words,
    // so their extremes -- and the extremes of the normalize loop
    // counts -- sit at inputs whose words are all 0 or all ones.  Up
    // to P-256 every such pattern is checked; wider fields sample them.
    const PrimeField &f = curve().field();
    const RefInt p = ref(f.modulus());
    const int n = 2 * f.words();
    auto check = [&](uint64_t bits) {
        MpUint wide = wordPattern(bits, n);
        ASSERT_EQ(f.reduce(wide).toHex(), ref(wide).mod(p).toHex())
            << "pattern " << bits;
    };
    if (n <= 16) {
        for (uint64_t bits = 0; bits < (uint64_t(1) << n); ++bits)
            check(bits);
    } else {
        Rng rng(0x4ed0 + static_cast<int>(GetParam()));
        check(0);
        check(~uint64_t(0) >> (64 - n));
        for (int i = 0; i < 4000; ++i)
            check(rng.next() & (~uint64_t(0) >> (64 - n)));
    }
}

TEST_P(PrimeElemOracle, LoadReducesOutOfRangeValues)
{
    const PrimeField &f = curve().field();
    const MpUint &p = f.modulus();
    Rng rng(0x10ad + static_cast<int>(GetParam()));
    for (int i = 0; i < 20; ++i) {
        MpUint a = rng.mpBelow(p);
        EXPECT_TRUE(f.inRange(a));
        EXPECT_FALSE(f.inRange(a.add(p)));
        EXPECT_EQ(f.store(f.load(a.add(p))), a);
        EXPECT_EQ(f.store(f.load(a.add(p).add(p))), a);
    }
    EXPECT_TRUE(f.isZero(f.load(p)));
}

INSTANTIATE_TEST_SUITE_P(All, PrimeElemOracle,
    ::testing::ValuesIn(primeCurveIds()), curveParamName);

class BinaryElemOracle : public ::testing::TestWithParam<CurveId>
{
};

TEST_P(BinaryElemOracle, CurveFieldOpsMatchRefInt)
{
    const auto &c =
        static_cast<const BinaryCurve &>(standardCurve(GetParam()));
    checkBinaryField(c.field(), 0xb1e + static_cast<int>(GetParam()));
}

TEST_P(BinaryElemOracle, LoadReducesHighDegreeValues)
{
    const auto &c =
        static_cast<const BinaryCurve &>(standardCurve(GetParam()));
    const BinaryField &f = c.field();
    const MpUint xm = MpUint::powerOfTwo(f.degree());
    const MpUint &x = c.generator().x;
    EXPECT_TRUE(f.inRange(x));
    EXPECT_FALSE(f.inRange(x.bitXor(xm)));
    // x + x^m == x + (f - x^m) modulo f.
    EXPECT_EQ(f.store(f.load(x.bitXor(xm))),
              x.bitXor(f.poly().bitXor(xm)));
    EXPECT_TRUE(f.isZero(f.load(f.poly())));
}

INSTANTIATE_TEST_SUITE_P(All, BinaryElemOracle,
    ::testing::ValuesIn(binaryCurveIds()), curveParamName);

TEST(FieldElemOracle, GenericWidthFieldsMatchRefInt)
{
    // Fields outside the NIST kernels: the toy curves' fields and the
    // paper's GF(2^7) worked example.
    checkPrimeField(makeToyPrimeCurve()->field(), 0x70f);
    checkPrimeField(PrimeField(MpUint::fromHex("ffffffffffffffc5")), 0x64);
    checkBinaryField(makeToyBinaryCurve()->field(), 0x713);
    MpUint f7;
    for (int e : {7, 1, 0})
        f7.setBit(e);
    checkBinaryField(BinaryField(f7), 0x7);
}

TEST(FieldElemOracle, InverseOfZeroIsInvalidInput)
{
    const PrimeField &fp =
        static_cast<const PrimeCurve &>(standardCurve(CurveId::P256))
            .field();
    const BinaryField &fb =
        static_cast<const BinaryCurve &>(standardCurve(CurveId::B163))
            .field();
    try {
        fp.inv(fp.load(fp.modulus()));
        ADD_FAILURE() << "GF(p) inverse of zero accepted";
    } catch (const UleccError &e) {
        EXPECT_EQ(e.code(), Errc::InvalidInput);
    }
    try {
        fb.inv(fb.load(fb.poly()));
        ADD_FAILURE() << "GF(2^m) inverse of zero accepted";
    } catch (const UleccError &e) {
        EXPECT_EQ(e.code(), Errc::InvalidInput);
    }
}

// --------------------------------------------- projective vs affine law

namespace
{

bool
samePoint(const AffinePoint &a, const AffinePoint &b)
{
    if (a.infinity || b.infinity)
        return a.infinity == b.infinity;
    return a.x == b.x && a.y == b.y;
}

/** s * P by affine double-and-add: the oracle side. */
AffinePoint
affineMul(const Curve &c, uint32_t s, const AffinePoint &p)
{
    AffinePoint r = AffinePoint::makeInfinity();
    for (int i = 31; i >= 0; --i) {
        r = c.doubleAffine(r);
        if ((s >> i) & 1)
            r = c.addAffine(r, p);
    }
    return r;
}

/**
 * Every projective formula against the affine group law: doubling,
 * mixed addition from Z == 1 and from Z != 1, P == Q, P == -Q,
 * infinity on either side, and the batch conversion.
 */
void
checkProjective(const Curve &c)
{
    SCOPED_TRACE(c.name());
    const AffinePoint &g = c.generator();
    const AffinePoint inf = AffinePoint::makeInfinity();
    const ProjPoint pinf = c.toProj(inf);
    EXPECT_TRUE(pinf.isInfinity());
    EXPECT_TRUE(c.doubleProj(pinf).isInfinity());
    EXPECT_TRUE(c.toAffine(pinf).infinity);
    EXPECT_TRUE(samePoint(c.toAffine(c.addMixed(pinf, g)), g));
    EXPECT_TRUE(samePoint(c.toAffine(c.addMixed(c.toProj(g), inf)), g));

    for (uint32_t s : {1u, 2u, 3u, 7u, 11u}) {
        AffinePoint p = affineMul(c, s, g);
        if (p.infinity)
            continue;
        SCOPED_TRACE("s=" + std::to_string(s));
        ProjPoint pp = c.toProj(p);
        EXPECT_TRUE(
            samePoint(c.toAffine(c.doubleProj(pp)), c.doubleAffine(p)));
        // P == Q and P == -Q through the mixed path.
        EXPECT_TRUE(
            samePoint(c.toAffine(c.addMixed(pp, p)), c.doubleAffine(p)));
        EXPECT_TRUE(c.addMixed(pp, c.negate(p)).isInfinity());
        // A projective point with Z != 1: 4P.
        ProjPoint p4 = c.doubleProj(c.doubleProj(pp));
        AffinePoint a4 = c.doubleAffine(c.doubleAffine(p));
        EXPECT_TRUE(samePoint(c.toAffine(p4), a4));
        for (uint32_t t : {1u, 5u, 13u}) {
            AffinePoint q = affineMul(c, t, g);
            EXPECT_TRUE(samePoint(c.toAffine(c.addMixed(pp, q)),
                                  c.addAffine(p, q)));
            EXPECT_TRUE(samePoint(c.toAffine(c.addMixed(p4, q)),
                                  c.addAffine(a4, q)));
        }
        EXPECT_TRUE(
            samePoint(c.toAffine(c.addMixed(p4, a4)), c.doubleAffine(a4)));
        EXPECT_TRUE(c.addMixed(p4, c.negate(a4)).isInfinity());
        std::vector<AffinePoint> batch =
            c.toAffineBatch({p4, pinf, c.doubleProj(pp)});
        EXPECT_TRUE(samePoint(batch[0], a4));
        EXPECT_TRUE(batch[1].infinity);
        EXPECT_TRUE(samePoint(batch[2], c.doubleAffine(p)));
    }
}

/**
 * The order-2 point (0, sqrt(b)) of a binary curve: x == 0 is the
 * Lopez-Dahab formulas' doubling exception.
 */
void
checkBinaryXZero(const BinaryCurve &c)
{
    SCOPED_TRACE(c.name());
    const BinaryField &f = c.field();
    MpUint root = c.b(); // sqrt(b) = b^(2^(m-1))
    for (int i = 0; i < f.degree() - 1; ++i)
        root = f.sqr(root);
    AffinePoint t(MpUint(), root);
    ASSERT_TRUE(c.onCurve(t));
    EXPECT_TRUE(c.doubleAffine(t).infinity);
    EXPECT_TRUE(c.doubleProj(c.toProj(t)).isInfinity());
    EXPECT_TRUE(c.addMixed(c.toProj(t), t).isInfinity());
    const AffinePoint &g = c.generator();
    ProjPoint g4 = c.doubleProj(c.doubleProj(c.toProj(g)));
    AffinePoint a4 = c.doubleAffine(c.doubleAffine(g));
    EXPECT_TRUE(
        samePoint(c.toAffine(c.addMixed(c.toProj(g), t)), c.addAffine(g, t)));
    EXPECT_TRUE(samePoint(c.toAffine(c.addMixed(g4, t)), c.addAffine(a4, t)));
    EXPECT_TRUE(
        samePoint(c.toAffine(c.addMixed(c.toProj(t), g)), c.addAffine(t, g)));
}

class ProjectiveOracle : public ::testing::TestWithParam<CurveId>
{
};

} // namespace

TEST_P(ProjectiveOracle, FormulasMatchAffineGroupLaw)
{
    const Curve &c = standardCurve(GetParam());
    checkProjective(c);
    if (c.isBinary())
        checkBinaryXZero(static_cast<const BinaryCurve &>(c));
}

INSTANTIATE_TEST_SUITE_P(All, ProjectiveOracle,
    ::testing::Values(CurveId::P192, CurveId::P224, CurveId::P256,
                      CurveId::P384, CurveId::P521, CurveId::B163,
                      CurveId::B233, CurveId::B283, CurveId::B409,
                      CurveId::B571),
    curveParamName);

TEST(ProjectiveOracleToy, GenericFallbackMatchesAffineGroupLaw)
{
    // Toy fields take the generic element paths (MpUint mul/sqr,
    // zero-padded comb, generic fold).
    auto prime = makeToyPrimeCurve();
    ASSERT_EQ(prime->field().kind(), NistPrime::Generic);
    checkProjective(*prime);
    auto binary = makeToyBinaryCurve();
    ASSERT_EQ(binary->field().kind(), NistBinary::Generic);
    checkProjective(*binary);
    checkBinaryXZero(*binary);
}
