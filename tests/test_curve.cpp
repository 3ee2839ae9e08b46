/**
 * @file
 * Elliptic-curve group-law and scalar-multiplication tests, over both
 * the standard curves (self-verified parameters) and toy curves whose
 * orders are computed exhaustively in-tree.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "ec/curve.hh"
#include "ec/scalar_mult.hh"
#include "ec/toy_curves.hh"
#include "test_util.hh"

using namespace ulecc;
using ulecc::test::Rng;

namespace
{

/**
 * Oracle: plain affine right-to-left double-and-add (paper Algorithm
 * 1), one field inversion per step.  It also decides the order
 * self-check the registry used to run this way.
 */
AffinePoint
naiveMul(const Curve &c, MpUint k, AffinePoint p)
{
    AffinePoint q = AffinePoint::makeInfinity();
    while (!k.isZero()) {
        if (k.isOdd())
            q = c.addAffine(q, p);
        k = k.shiftRight(1);
        p = c.doubleAffine(p);
    }
    return q;
}

class StandardCurves : public ::testing::TestWithParam<CurveId>
{
  protected:
    const Curve &curve() { return standardCurve(GetParam()); }
};

bool
samePoint(const AffinePoint &a, const AffinePoint &b)
{
    if (a.infinity || b.infinity)
        return a.infinity == b.infinity;
    return a.x == b.x && a.y == b.y;
}

/** The order self-check decided by the affine oracle. */
bool
affineOrderCheck(const Curve &c, const MpUint &n)
{
    const AffinePoint &g = c.generator();
    return !g.infinity && !n.isZero() && c.onCurve(g)
        && naiveMul(c, n, g).infinity;
}

/** @p c rebuilt with claimed order @p n (so its constructor re-checks). */
std::unique_ptr<Curve>
withOrder(const Curve &c, const MpUint &n)
{
    if (c.isBinary()) {
        const auto &b = static_cast<const BinaryCurve &>(c);
        if (b.field().kind() == NistBinary::Generic)
            return std::make_unique<BinaryCurve>(c.name(), b.field().poly(),
                                                 b.a(), b.b(),
                                                 c.generator(), n);
        return std::make_unique<BinaryCurve>(c.name(), b.field().kind(),
                                             b.a(), b.b(), c.generator(), n);
    }
    const auto &p = static_cast<const PrimeCurve &>(c);
    if (p.field().kind() == NistPrime::Generic)
        return std::make_unique<PrimeCurve>(c.name(), p.field().modulus(),
                                            p.a(), p.b(), c.generator(), n);
    return std::make_unique<PrimeCurve>(c.name(), p.field().kind(), p.a(),
                                        p.b(), c.generator(), n);
}

} // namespace

TEST(CurveRegistry, OrderCheckMatchesAffineOracle)
{
    // The registry's projective n * G check must decide exactly what
    // the affine oracle decides, for the true order and for wrong ones:
    // n - 1 (== n with its low bit flipped, n being odd) and n + 1 miss
    // the identity by -G and +G.  2n is a multiple of the order, so
    // both accept it -- the check proves n * G == O, not minimality.
    std::vector<const Curve *> curves;
    for (CurveId id : primeCurveIds())
        curves.push_back(&standardCurve(id));
    for (CurveId id : binaryCurveIds()) {
        if (!standardCurve(id).synthetic())
            curves.push_back(&standardCurve(id));
    }
    ASSERT_EQ(curves.size(), 8u);
    for (const Curve *c : curves) {
        const MpUint &n = c->order();
        struct Candidate
        {
            const char *what;
            MpUint order;
            bool valid;
        };
        const Candidate candidates[] = {
            {"n", n, true},
            {"n+1", n.add(MpUint(1)), false},
            {"n-1", n.sub(MpUint(1)), false},
            {"2n", n.add(n), true},
            {"n^1", n.bitXor(MpUint(1)), false},
        };
        for (const Candidate &k : candidates) {
            std::unique_ptr<Curve> rebuilt = withOrder(*c, k.order);
            EXPECT_EQ(rebuilt->orderVerified(),
                      affineOrderCheck(*rebuilt, k.order))
                << c->name() << " " << k.what;
            EXPECT_EQ(rebuilt->orderVerified(), k.valid)
                << c->name() << " " << k.what;
        }
    }
}

TEST(CurveRegistry, ToyOrderCheckMatchesAffineOracle)
{
    // On the toy curves every claimed order up to 2q + 1 is cheap to
    // try: exactly the multiples of the prime order q pass.
    std::vector<std::unique_ptr<Curve>> toys;
    toys.push_back(makeToyPrimeCurve());
    toys.push_back(makeToyBinaryCurve());
    for (const auto &toy : toys) {
        ASSERT_TRUE(toy->orderVerified()) << toy->name();
        uint32_t q = toy->order().limb(0);
        uint32_t upto = std::min<uint32_t>(2 * q + 1, 1200);
        for (uint32_t m = 0; m <= upto; ++m) {
            std::unique_ptr<Curve> rebuilt = withOrder(*toy, MpUint(m));
            ASSERT_EQ(rebuilt->orderVerified(),
                      affineOrderCheck(*rebuilt, MpUint(m)))
                << toy->name() << " n=" << m;
            ASSERT_EQ(rebuilt->orderVerified(), m != 0 && m % q == 0)
                << toy->name() << " n=" << m;
        }
    }
}

TEST(CurveRegistry, AllRealCurvesVerified)
{
    // Every non-synthetic embedded parameter set must pass the
    // n * G == infinity self-check.
    for (CurveId id : primeCurveIds()) {
        const Curve &c = standardCurve(id);
        EXPECT_TRUE(c.onCurve(c.generator())) << c.name();
        EXPECT_TRUE(c.orderVerified()) << c.name();
    }
    for (CurveId id : binaryCurveIds()) {
        const Curve &c = standardCurve(id);
        if (c.synthetic())
            continue;
        EXPECT_TRUE(c.onCurve(c.generator())) << c.name();
        EXPECT_TRUE(c.orderVerified()) << c.name();
    }
}

TEST(CurveRegistry, NamesAndBits)
{
    EXPECT_EQ(curveIdName(CurveId::P192), "P-192");
    EXPECT_EQ(curveIdBits(CurveId::P192), 192);
    EXPECT_EQ(curveIdBits(CurveId::B571), 571);
    EXPECT_EQ(primeCurveIds().size(), 5u);
    EXPECT_EQ(binaryCurveIds().size(), 5u);
}

TEST(CurveRegistry, BinaryPredicateMatchesConstructedCurve)
{
    // curveIdIsBinary exists so capability checks can skip curve
    // construction; it must never drift from the real field type.
    for (CurveId id : primeCurveIds()) {
        EXPECT_FALSE(curveIdIsBinary(id)) << curveIdName(id);
        EXPECT_FALSE(standardCurve(id).isBinary()) << curveIdName(id);
    }
    for (CurveId id : binaryCurveIds()) {
        EXPECT_TRUE(curveIdIsBinary(id)) << curveIdName(id);
        EXPECT_TRUE(standardCurve(id).isBinary()) << curveIdName(id);
    }
}

TEST_P(StandardCurves, GroupLawsAffine)
{
    const Curve &c = curve();
    if (c.synthetic())
        GTEST_SKIP() << "synthetic parameters";
    const AffinePoint &g = c.generator();
    AffinePoint g2 = c.doubleAffine(g);
    AffinePoint g3 = c.addAffine(g2, g);
    EXPECT_TRUE(c.onCurve(g2));
    EXPECT_TRUE(c.onCurve(g3));
    // Commutativity.
    EXPECT_TRUE(samePoint(c.addAffine(g, g2), c.addAffine(g2, g)));
    // Identity.
    EXPECT_TRUE(samePoint(c.addAffine(g, AffinePoint::makeInfinity()), g));
    // Inverse.
    EXPECT_TRUE(c.addAffine(g, c.negate(g)).infinity);
    // Associativity: (G + 2G) + 3G == G + (2G + 3G).
    EXPECT_TRUE(samePoint(c.addAffine(c.addAffine(g, g2), g3),
                          c.addAffine(g, c.addAffine(g2, g3))));
    // double(P) == P + P.
    EXPECT_TRUE(samePoint(c.doubleAffine(g2), c.addAffine(g2, g2)));
}

TEST_P(StandardCurves, ProjectiveMatchesAffine)
{
    const Curve &c = curve();
    if (c.synthetic())
        GTEST_SKIP() << "synthetic parameters";
    const AffinePoint &g = c.generator();
    // Chain of mixed operations, checked against affine oracle.
    ProjPoint acc = c.toProj(g);
    AffinePoint oracle = g;
    for (int i = 0; i < 10; ++i) {
        acc = c.doubleProj(acc);
        oracle = c.doubleAffine(oracle);
        ASSERT_TRUE(samePoint(c.toAffine(acc), oracle)) << i;
        acc = c.addMixed(acc, g);
        oracle = c.addAffine(oracle, g);
        ASSERT_TRUE(samePoint(c.toAffine(acc), oracle)) << i;
    }
}

TEST_P(StandardCurves, ProjectiveDegenerateCases)
{
    const Curve &c = curve();
    if (c.synthetic())
        GTEST_SKIP() << "synthetic parameters";
    const AffinePoint &g = c.generator();
    // P + (-P) == infinity through the mixed path.
    ProjPoint gp = c.toProj(g);
    EXPECT_TRUE(c.addMixed(gp, c.negate(g)).isInfinity());
    // P + P through the mixed path must detect doubling.
    AffinePoint d1 = c.toAffine(c.addMixed(gp, g));
    AffinePoint d2 = c.doubleAffine(g);
    EXPECT_TRUE(samePoint(d1, d2));
    // Infinity + Q == Q.
    ProjPoint inf = c.toProj(AffinePoint::makeInfinity());
    EXPECT_TRUE(inf.isInfinity());
    EXPECT_TRUE(samePoint(c.toAffine(c.addMixed(inf, g)), g));
    // double(infinity) == infinity.
    EXPECT_TRUE(c.doubleProj(inf).isInfinity());
}

TEST_P(StandardCurves, SlidingWindowMatchesNaive)
{
    const Curve &c = curve();
    if (c.synthetic())
        GTEST_SKIP() << "synthetic parameters";
    Rng rng(0x5ca1a + static_cast<int>(GetParam()));
    const AffinePoint &g = c.generator();
    for (uint64_t k : {1ull, 2ull, 3ull, 5ull, 16ull, 255ull, 65537ull}) {
        EXPECT_TRUE(samePoint(scalarMul(c, MpUint(k), g),
                              naiveMul(c, MpUint(k), g)))
            << c.name() << " k=" << k;
    }
    // One large random scalar (naive oracle is slow; keep it single).
    MpUint k = rng.mpBelow(c.order());
    EXPECT_TRUE(samePoint(scalarMul(c, k, g), naiveMul(c, k, g)))
        << c.name() << " k=" << k.toHex();
    // Order annihilates the generator.
    EXPECT_TRUE(scalarMul(c, c.order(), g).infinity) << c.name();
}

TEST_P(StandardCurves, TwinMulMatchesSeparate)
{
    const Curve &c = curve();
    if (c.synthetic())
        GTEST_SKIP() << "synthetic parameters";
    Rng rng(0x2f1a + static_cast<int>(GetParam()));
    const AffinePoint &g = c.generator();
    AffinePoint q = scalarMul(c, MpUint(7), g);
    for (int i = 0; i < 3; ++i) {
        MpUint u1 = rng.mpBelow(c.order());
        MpUint u2 = rng.mpBelow(c.order());
        AffinePoint expect = c.addAffine(scalarMul(c, u1, g),
                                         scalarMul(c, u2, q));
        EXPECT_TRUE(samePoint(twinScalarMul(c, u1, g, u2, q), expect))
            << c.name();
    }
    // Degenerate scalars.
    EXPECT_TRUE(samePoint(twinScalarMul(c, MpUint(0), g, MpUint(1), q),
                          q));
    EXPECT_TRUE(samePoint(twinScalarMul(c, MpUint(1), g, MpUint(0), q),
                          g));
    EXPECT_TRUE(twinScalarMul(c, MpUint(0), g, MpUint(0), q).infinity);
}

INSTANTIATE_TEST_SUITE_P(All, StandardCurves,
    ::testing::Values(CurveId::P192, CurveId::P224, CurveId::P256,
                      CurveId::P384, CurveId::P521, CurveId::B163,
                      CurveId::B233, CurveId::B283),
    [](const ::testing::TestParamInfo<CurveId> &info) {
        std::string n = curveIdName(info.param);
        n.erase(std::remove(n.begin(), n.end(), '-'), n.end());
        return n;
    });

TEST(BinaryLadder, MatchesSlidingWindow)
{
    for (CurveId id : {CurveId::B163, CurveId::B233, CurveId::B283}) {
        const auto &c = dynamic_cast<const BinaryCurve &>(
            standardCurve(id));
        Rng rng(0x1ad + static_cast<int>(id));
        const AffinePoint &g = c.generator();
        for (uint64_t k : {1ull, 2ull, 3ull, 7ull, 1000ull}) {
            AffinePoint a = scalarMulLadder(c, MpUint(k), g);
            AffinePoint b = scalarMul(c, MpUint(k), g);
            ASSERT_FALSE(a.infinity != b.infinity) << c.name() << k;
            if (!a.infinity) {
                EXPECT_EQ(a.x, b.x) << c.name() << " k=" << k;
                EXPECT_EQ(a.y, b.y) << c.name() << " k=" << k;
            }
        }
        MpUint k = rng.mpBelow(c.order());
        AffinePoint a = scalarMulLadder(c, k, g);
        AffinePoint b = scalarMul(c, k, g);
        EXPECT_EQ(a.x, b.x) << c.name();
        EXPECT_EQ(a.y, b.y) << c.name();
    }
}

TEST(Recoding, NafReconstructs)
{
    Rng rng(0xaf);
    for (int i = 0; i < 100; ++i) {
        MpUint k = rng.mp(1 + static_cast<int>(rng.below(300)));
        auto digits = recodeNaf(k);
        // Accumulate against an offset: partial sums may dip negative.
        MpUint offset = MpUint::powerOfTwo(400);
        MpUint acc = offset;
        MpUint pow(1);
        for (int d : digits) {
            if (d > 0)
                acc = acc.add(pow);
            else if (d < 0)
                acc = acc.sub(pow);
            pow = pow.shiftLeft(1);
        }
        EXPECT_EQ(acc.sub(offset), k);
        // Non-adjacency property.
        for (size_t j = 0; j + 1 < digits.size(); ++j)
            EXPECT_FALSE(digits[j] != 0 && digits[j + 1] != 0);
    }
}

TEST(Recoding, Signed135Reconstructs)
{
    Rng rng(0x135);
    for (int i = 0; i < 200; ++i) {
        MpUint k = rng.mp(1 + static_cast<int>(rng.below(300)));
        auto digits = recodeSigned135(k);
        // Reconstruct with signed accumulation over a wide offset.
        MpUint offset = MpUint::powerOfTwo(400);
        MpUint acc = offset;
        MpUint pow(1);
        for (int d : digits) {
            EXPECT_TRUE(d == 0 || d == 1 || d == -1 || d == 3 || d == -3
                        || d == 5 || d == -5)
                << d;
            for (int rep = 0; rep < (d > 0 ? d : -d); ++rep)
                acc = (d > 0) ? acc.add(pow) : acc.sub(pow);
            pow = pow.shiftLeft(1);
        }
        EXPECT_EQ(acc.sub(offset), k);
    }
}

namespace
{

/** The textbook NAF loop on MpUint, v = (v - d) / 2 (the oracle). */
std::vector<int>
textbookNaf(MpUint v)
{
    std::vector<int> digits;
    while (!v.isZero()) {
        int d = 0;
        if (v.isOdd()) {
            d = v.bits(0, 2) == 1 ? 1 : -1;
            v = d > 0 ? v.sub(MpUint(1)) : v.add(MpUint(1));
        }
        digits.push_back(d);
        v = v.shiftRight(1);
    }
    return digits;
}

/** The textbook {0, +-1, +-3, +-5} loop on MpUint (the oracle). */
std::vector<int>
textbookSigned135(MpUint v)
{
    auto centered = [](uint32_t r, int m) {
        return static_cast<int>(r) >= m / 2 ? static_cast<int>(r) - m
                                            : static_cast<int>(r);
    };
    std::vector<int> digits;
    while (!v.isZero()) {
        int d = 0;
        if (v.isOdd()) {
            int r16 = centered(v.bits(0, 4), 16);
            d = (r16 == 5 || r16 == -5) ? r16 : centered(v.bits(0, 3), 8);
            v = d > 0 ? v.sub(MpUint(static_cast<uint32_t>(d)))
                      : v.add(MpUint(static_cast<uint32_t>(-d)));
        }
        digits.push_back(d);
        v = v.shiftRight(1);
    }
    return digits;
}

} // namespace

TEST(Recoding, DigitsMatchTextbookLoops)
{
    // The recodings track the remaining value as (k >> i) plus a small
    // carry instead of rewriting an MpUint each step; the digit
    // sequence (and so the order of point operations) must be the
    // textbook loop's, digit for digit.
    std::vector<MpUint> ks;
    for (uint32_t v = 0; v < 600; ++v)
        ks.push_back(MpUint(v));
    for (CurveId id : {CurveId::P192, CurveId::P256, CurveId::P521,
                       CurveId::B163, CurveId::B571}) {
        const MpUint &n = standardCurve(id).order();
        for (uint32_t dv = 0; dv < 40; ++dv) {
            ks.push_back(n.sub(MpUint(dv + 1)));
            ks.push_back(n.add(MpUint(dv)));
        }
    }
    Rng rng(0x7e5);
    for (int i = 0; i < 300; ++i)
        ks.push_back(rng.mp(1 + static_cast<int>(rng.below(540))));
    for (const MpUint &k : ks) {
        EXPECT_EQ(recodeNaf(k), textbookNaf(k)) << k.toHex();
        EXPECT_EQ(recodeSigned135(k), textbookSigned135(k)) << k.toHex();
    }
}

TEST(ToyCurves, PrimeToyEndToEnd)
{
    auto curve = makeToyPrimeCurve();
    ASSERT_TRUE(curve->orderVerified());
    const AffinePoint &g = curve->generator();
    EXPECT_TRUE(curve->onCurve(g));
    // Exhaustive check over the whole subgroup: k*G cycles with period n.
    uint64_t n = curve->order().limb(0);
    AffinePoint walk = AffinePoint::makeInfinity();
    for (uint64_t k = 0; k < n; ++k) {
        AffinePoint direct = scalarMul(*curve, MpUint(k), g);
        ASSERT_TRUE(samePoint(direct, walk)) << "k=" << k;
        walk = curve->addAffine(walk, g);
    }
    EXPECT_TRUE(walk.infinity); // n*G == infinity closes the cycle
}

TEST(ToyCurves, BinaryToyEndToEnd)
{
    auto curve = makeToyBinaryCurve();
    ASSERT_TRUE(curve->orderVerified());
    const AffinePoint &g = curve->generator();
    EXPECT_TRUE(curve->onCurve(g));
    uint64_t n = curve->order().limb(0);
    // Sampled walk (subgroup may be large).
    AffinePoint walk = AffinePoint::makeInfinity();
    uint64_t upto = std::min<uint64_t>(n, 500);
    for (uint64_t k = 0; k < upto; ++k) {
        AffinePoint direct = scalarMul(*curve, MpUint(k), g);
        ASSERT_TRUE(samePoint(direct, walk)) << "k=" << k;
        walk = curve->addAffine(walk, g);
    }
    EXPECT_TRUE(scalarMul(*curve, curve->order(), g).infinity);
    // Ladder agrees on the toy curve too.
    for (uint64_t k = 1; k < 40; ++k) {
        AffinePoint a = scalarMulLadder(*curve, MpUint(k), g);
        AffinePoint b = scalarMul(*curve, MpUint(k), g);
        ASSERT_TRUE(samePoint(a, b)) << "k=" << k;
    }
}
