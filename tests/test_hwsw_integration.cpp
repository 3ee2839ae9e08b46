/**
 * @file
 * HW/SW codesign integration: a complete Jacobian point doubling
 * computed by a coprocessor-2 program on the simulated system (Pete +
 * Monte over shared RAM), in the Montgomery domain, validated against
 * the native elliptic-curve code -- the paper's Section 5.4 software
 * structure exercised end to end.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "accel/monte.hh"
#include "ec/curve.hh"
#include "test_util.hh"

using namespace ulecc;
using ulecc::test::Rng;

namespace
{

/** Emits Monte coprocessor sequences (the compiler's job in the
 *  paper's toolchain). */
class MonteProgramBuilder
{
  public:
    explicit MonteProgramBuilder(int k)
    {
        os_ << "    li $t4, " << k << "\n"
            << "    ctc2 $t4, 0\n";
    }

    void
    loadModulus(uint32_t n_addr)
    {
        os_ << "    li $a3, " << n_addr << "\n"
            << "    cop2ldn $a3\n";
    }

    void
    op(const char *mnemonic, uint32_t dst, uint32_t a, uint32_t b)
    {
        os_ << "    li $a1, " << a << "\n"
            << "    cop2lda $a1\n"
            << "    li $a2, " << b << "\n"
            << "    cop2ldb $a2\n"
            << "    " << mnemonic << "\n"
            << "    li $a0, " << dst << "\n"
            << "    cop2st $a0\n";
    }

    void mul(uint32_t d, uint32_t a, uint32_t b) { op("cop2mul", d, a, b); }
    void add(uint32_t d, uint32_t a, uint32_t b) { op("cop2add", d, a, b); }
    void sub(uint32_t d, uint32_t a, uint32_t b) { op("cop2sub", d, a, b); }

    std::string
    finish()
    {
        os_ << "    cop2sync\n    break\n";
        return os_.str();
    }

  private:
    std::ostringstream os_;
};

} // namespace

class HwSwDoubling : public ::testing::TestWithParam<CurveId>
{
};

TEST_P(HwSwDoubling, JacobianDoubleOnMonteMatchesNative)
{
    const auto &curve =
        dynamic_cast<const PrimeCurve &>(standardCurve(GetParam()));
    const PrimeField &f = curve.field();
    const int k = f.words();

    // A random Jacobian point: 2 * (random scalar * G) projectively.
    Rng rng(0x0db1 + static_cast<int>(GetParam()));
    ProjPoint p = curve.doubleProj(curve.toProj(curve.generator()));
    p = curve.addMixed(p, curve.generator());
    ASSERT_FALSE(p.isInfinity());
    ProjPoint expect = curve.doubleProj(p);

    // Variable slots in shared RAM (each k words).
    const uint32_t base = 0x10000800;
    auto slot = [&](int i) { return base + 4 * 20 * i; };
    const uint32_t N = 0x10000400;
    const uint32_t X = slot(0), Y = slot(1), Z = slot(2);
    const uint32_t A = slot(3); // curve a in the Montgomery domain
    const uint32_t T1 = slot(4), T2 = slot(5), T3 = slot(6);
    const uint32_t T4 = slot(7), T5 = slot(8), M = slot(9);
    const uint32_t S = slot(10), X3 = slot(11), Y3 = slot(12);
    const uint32_t Z3 = slot(13), T6 = slot(14), T7 = slot(15);

    // Build the doubling sequence (the general-a Jacobian formulas,
    // small-constant multiples as repeated modular additions).
    MonteProgramBuilder prog(k);
    prog.loadModulus(N);
    prog.mul(T1, Y, Y);      // T1 = y^2
    prog.mul(T2, X, T1);     // T2 = x y^2
    prog.add(S, T2, T2);     //
    prog.add(S, S, S);       // S = 4 x y^2
    prog.mul(T3, Z, Z);      // T3 = z^2
    prog.mul(T4, T3, T3);    // T4 = z^4
    prog.mul(T5, X, X);      // T5 = x^2
    prog.add(M, T5, T5);     //
    prog.add(M, M, T5);      // M = 3 x^2
    prog.mul(T6, A, T4);     // T6 = a z^4
    prog.add(M, M, T6);      // M = 3 x^2 + a z^4
    prog.mul(X3, M, M);      // X3 = M^2
    prog.sub(X3, X3, S);     //
    prog.sub(X3, X3, S);     // X3 = M^2 - 2S
    prog.sub(T6, S, X3);     // T6 = S - X3
    prog.mul(Y3, M, T6);     // Y3 = M (S - X3)
    prog.mul(T7, T1, T1);    // T7 = y^4
    prog.add(T7, T7, T7);    // 2 y^4
    prog.add(T7, T7, T7);    // 4 y^4
    prog.add(T7, T7, T7);    // 8 y^4
    prog.sub(Y3, Y3, T7);    // Y3 = M (S - X3) - 8 y^4
    prog.mul(Z3, Y, Z);      // Z3 = y z
    prog.add(Z3, Z3, Z3);    // Z3 = 2 y z

    Monte monte;
    Pete cpu(assemble(prog.finish()));
    cpu.attachCop2(&monte);

    // Populate shared RAM: modulus plain, values in the Montgomery
    // domain (the software converts at scalar-multiplication entry).
    auto poke = [&](uint32_t addr, const MpUint &v) {
        for (int i = 0; i < k; ++i)
            cpu.mem().poke32(addr + 4 * i, v.limb(i));
    };
    poke(N, f.modulus());
    poke(X, f.toMont(f.store(p.x)));
    poke(Y, f.toMont(f.store(p.y)));
    poke(Z, f.toMont(f.store(p.z)));
    poke(A, f.toMont(curve.a()));

    ASSERT_TRUE(cpu.run());

    auto peek = [&](uint32_t addr) {
        MpUint v;
        for (int i = 0; i < k; ++i)
            v.setLimb(i, cpu.mem().peek32(addr + 4 * i));
        return f.fromMont(v);
    };
    EXPECT_EQ(peek(X3), f.store(expect.x)) << curve.name();
    EXPECT_EQ(peek(Y3), f.store(expect.y)) << curve.name();
    EXPECT_EQ(peek(Z3), f.store(expect.z)) << curve.name();

    // Accounting sanity: 10 multiplications, 13 add/subs ran on the
    // FFAU; the forwarding path caught at least some reloads.
    EXPECT_EQ(monte.stats().mulOps, 10u);
    EXPECT_EQ(monte.stats().addSubOps, 13u);
    EXPECT_GE(monte.stats().forwardedLoads, 2u);
}

INSTANTIATE_TEST_SUITE_P(Curves, HwSwDoubling,
    ::testing::Values(CurveId::P192, CurveId::P256, CurveId::P521),
    [](const ::testing::TestParamInfo<CurveId> &info) {
        std::string n = curveIdName(info.param);
        n.erase(std::remove(n.begin(), n.end(), '-'), n.end());
        return n;
    });
