/**
 * @file
 * Tests for the differential conformance harness: the RefInt oracle,
 * the hexfloat codec it shares plumbing with, and the diffuzz engine
 * (rng determinism, case format, shrinker, golden-vector loading).
 */

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/error.hh"
#include "check/diffuzz.hh"
#include "check/oracles.hh"
#include "check/refint.hh"
#include "core/hexfloat.hh"
#include "ec/curve.hh"

using namespace ulecc;
using namespace ulecc::check;

#ifndef ULECC_GOLDEN_DIR
#define ULECC_GOLDEN_DIR "tests/golden"
#endif

TEST(RefInt, FixedArithmeticVectors)
{
    EXPECT_EQ(RefInt(0).toHex(), "0");
    EXPECT_EQ(RefInt::fromHex("00ff").toHex(), "ff");
    EXPECT_EQ(RefInt::fromHex("ffffffffffffffff")
                  .add(RefInt(1))
                  .toHex(),
              "10000000000000000");
    EXPECT_EQ(RefInt::fromHex("10000000000000000")
                  .sub(RefInt(1))
                  .toHex(),
              "ffffffffffffffff");
    EXPECT_EQ(RefInt::fromHex("123456789abcdef")
                  .mul(RefInt::fromHex("fedcba987654321"))
                  .toHex(),
              "121fa00ad77d7422236d88fe5618cf");
    EXPECT_EQ(RefInt::gcd(RefInt(0xdeadbeefcafebabeull),
                          RefInt(0x123456789ull))
                  .toHex(),
              "3");
    EXPECT_EQ(RefInt(1).shiftLeft(77).toHex(),
              RefInt::fromHex("20000000000000000000").toHex());
    EXPECT_EQ(RefInt::fromHex("20000000000000000001")
                  .shiftRight(77)
                  .toHex(),
              "1");
}

TEST(RefInt, KnuthDivisionVectors)
{
    // Shapes that exercise the qhat correction and add-back paths of
    // Algorithm D (values pinned against an independent computation).
    RefInt::DivResult qr = RefInt::fromHex("7fff800000000000")
                               .divmod(RefInt::fromHex("800000000001"));
    EXPECT_EQ(qr.quotient.toHex(), "fffe");
    EXPECT_EQ(qr.remainder.toHex(), "7fffffff0002");

    qr = RefInt::fromHex("800000000000000000000001")
             .divmod(RefInt::fromHex("80000000000000000001"));
    EXPECT_EQ(qr.quotient.toHex(), "ffff");
    EXPECT_EQ(qr.remainder.toHex(), "7fffffffffffffff0002");

    // Short-division path and the recomposition invariant.
    qr = RefInt::fromHex("123456789abcdef0123").divmod(RefInt(0x9973));
    EXPECT_EQ(qr.quotient.mul(RefInt(0x9973)).add(qr.remainder).toHex(),
              "123456789abcdef0123");
    EXPECT_THROW(RefInt(5).divmod(RefInt(0)), UleccError);
}

TEST(RefInt, RoundTripsWithMpUint)
{
    const char *vectors[] = {
        "0", "1", "ffffffff", "100000000",
        "123456789abcdef0123456789abcdef0123456789abcdef",
    };
    for (const char *v : vectors) {
        MpUint m = MpUint::fromHex(v);
        EXPECT_EQ(RefInt::fromMp(m).toHex(), m.toHex());
        EXPECT_EQ(RefInt::fromHex(v).toMp().toHex(), m.toHex());
    }
    // A value wider than MpUint's capacity converts one way only.
    RefInt wide = RefInt(1).shiftLeft(1280);
    EXPECT_EQ(wide.bitLength(), 1281);
    EXPECT_THROW(wide.toMp(), UleccError);
}

TEST(RefInt, PolynomialOps)
{
    // (x^7 + x^2 + 1)(x^4 + x + 1) and its residue mod the AES poly.
    RefInt prod = RefInt(0x85).polyMul(RefInt(0x13));
    EXPECT_EQ(prod.toHex(), "9df");
    EXPECT_EQ(prod.polyMod(RefInt(0x11b)).toHex(), "1c");
    EXPECT_TRUE(RefInt(0).polyMul(RefInt(0x13)).isZero());
    EXPECT_TRUE(RefInt(0x11b).polyMod(RefInt(0x11b)).isZero());
}

TEST(Hexfloat, BitExactRoundTrip)
{
    const double values[] = {0.0,     -0.0,   1.0,    -1.0,  0.1,
                             1.0 / 3, 1e308,  5e-324, 1e-308,
                             6.25e-2, 123456789.0};
    for (double v : values) {
        bool ok = false;
        double back = parseHexDouble(hexDouble(v), &ok);
        EXPECT_TRUE(ok) << hexDouble(v);
        EXPECT_EQ(std::memcmp(&v, &back, sizeof v), 0) << hexDouble(v);
    }
    bool ok = false;
    EXPECT_TRUE(std::isinf(parseHexDouble(hexDouble(1e308 * 10), &ok)));
    EXPECT_TRUE(ok);
    EXPECT_TRUE(std::isnan(parseHexDouble("nan", &ok)));
    EXPECT_TRUE(ok);
}

TEST(Hexfloat, RejectsMalformed)
{
    const char *bad[] = {"",      "0x",     "0x1.gp+1", "0x1p",
                         "0x1p+", "1.5",    "0x1p+1z",  "0x1.8p+1 "};
    for (const char *s : bad) {
        bool ok = true;
        EXPECT_EQ(parseHexDouble(s, &ok), 0.0) << s;
        EXPECT_FALSE(ok) << s;
    }
}

TEST(Diffuzz, RngIsDeterministicAndPerTargetIndependent)
{
    DiffRng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        ASSERT_EQ(a.next(), b.next());
    // Seeding mixes the target name, so streams differ per target.
    DiffRng m(1 ^ fnv1a64("mpint")), f(1 ^ fnv1a64("field"));
    EXPECT_NE(m.next(), f.next());
    // edgeMp respects its width bound, including full capacity.
    DiffRng e(7);
    for (int i = 0; i < 500; ++i)
        EXPECT_LE(e.edgeMp(MpUint::maxLimbs * 32).bitLength(),
                  MpUint::maxLimbs * 32);
}

TEST(Diffuzz, CaseFormatRoundTrips)
{
    CaseInput c;
    c.op = "mulos";
    c.args = {"deadbeef", "ff"};
    std::string line = formatCase("mpint", c);
    EXPECT_EQ(line, "mpint mulos deadbeef ff");
    std::string target;
    CaseInput back;
    ASSERT_TRUE(parseCase(line, &target, &back));
    EXPECT_EQ(target, "mpint");
    EXPECT_EQ(back.op, c.op);
    EXPECT_EQ(back.args, c.args);
    EXPECT_FALSE(parseCase("# a comment", &target, &back));
    EXPECT_FALSE(parseCase("", &target, &back));
    EXPECT_FALSE(parseCase("loneword", &target, &back));
}

namespace
{

/** Fails whenever its first operand is longer than four characters. */
class LongArgTarget final : public Target
{
  public:
    std::string name() const override { return "longarg"; }

    CaseInput
    generate(DiffRng &) const override
    {
        return {"op", {"deadbeefdeadbeef"}};
    }

    std::optional<std::string>
    check(const CaseInput &c) const override
    {
        if (!c.args.empty() && c.args[0].size() > 4)
            return "arg too long";
        return std::nullopt;
    }
};

} // namespace

TEST(Diffuzz, ShrinkerConvergesToAMinimalReproducer)
{
    LongArgTarget target;
    CaseInput input{"op", {"deadbeefdeadbeef"}};
    uint64_t steps = 0;
    CaseInput shrunk = shrinkCase(target, input, &steps);
    // Greedy halving/dropping should land exactly at the threshold.
    EXPECT_EQ(shrunk.args[0].size(), 5u);
    EXPECT_GT(steps, 0u);
    EXPECT_TRUE(checkCaught(target, shrunk).has_value());
}

TEST(Diffuzz, GoldenVectorsAreLoaded)
{
    auto targets = makeTargets(ULECC_GOLDEN_DIR);
    ASSERT_EQ(targets.size(), 4u);
    size_t vectors = 0;
    for (const auto &t : targets)
        if (t->name() == "ecdsa")
            vectors = ecdsaTargetVectorCount(*t);
    // 8 curves x 2 messages in each of the two golden files.
    EXPECT_GE(vectors, 32u);
}

TEST(Diffuzz, StandardTargetsStayTheFour)
{
    // The standard set is what a default diffuzz run, its report and
    // the benchmark's fuzz workload check; opt-in targets (reachable
    // only by --target NAME) must never join it.
    auto targets = makeTargets(ULECC_GOLDEN_DIR);
    std::vector<std::string> names;
    for (const auto &t : targets)
        names.push_back(t->name());
    EXPECT_EQ(names, (std::vector<std::string>{"mpint", "field", "ecdsa",
                                               "pete"}));
    std::vector<std::string> optIn;
    for (const auto &t : makeOptInTargets())
        optIn.push_back(t->name());
    EXPECT_EQ(optIn, (std::vector<std::string>{"icache", "point"}));
}

TEST(Diffuzz, IcacheTargetRunsClean)
{
    RunOptions opts;
    opts.seed = 1;
    opts.cases = 2000;
    std::vector<std::unique_ptr<Target>> targets;
    targets.push_back(makeIcacheTarget());
    RunReport r = runDiffuzz(targets, opts);
    for (const Failure &f : r.failures)
        ADD_FAILURE() << formatCase(f.target, f.shrunk) << ": "
                      << f.detail;
    EXPECT_TRUE(r.pass());
    // A 2-line cache whose 9-word body spans 3 lines (walked), and
    // malformed operands, which pass vacuously as for every target.
    auto target = makeIcacheTarget();
    EXPECT_FALSE(target->check({"loop", {"2", "1", "7", "60", "9", "5"}})
                     .has_value());
    EXPECT_FALSE(target->check({"run", {"3", "0", "7", "64", "9"}})
                     .has_value());
    EXPECT_FALSE(target->check({"loop", {"4", "1", "7", "64"}})
                     .has_value());
}

TEST(Diffuzz, PointTargetRunsClean)
{
    std::vector<std::unique_ptr<Target>> targets;
    targets.push_back(makePointTarget());
    RunOptions opts;
    opts.seed = 1;
    opts.cases = 150;
    RunReport r = runDiffuzz(targets, opts);
    for (const Failure &f : r.failures)
        ADD_FAILURE() << formatCase(f.target, f.shrunk) << ": "
                      << f.detail;
    EXPECT_TRUE(r.pass());
    // Fixed shapes: n * G is infinity on a verified curve, a twin
    // whose terms cancel, and malformed operands, which pass vacuously.
    auto target = makePointTarget();
    const MpUint &n = standardCurve(CurveId::P256).order();
    EXPECT_FALSE(target->check({"mul", {"P-256", n.toHex(), "1"}})
                     .has_value());
    EXPECT_FALSE(
        target->check({"twin", {"B-163", "5", "2", "a", "1"}}).has_value());
    EXPECT_FALSE(target->check({"twin", {"toyb", "3", "7", "4", "5"}})
                     .has_value());
    EXPECT_FALSE(target->check({"mul", {"P-999", "5", "1"}}).has_value());
    EXPECT_FALSE(target->check({"mul", {"P-192", "zz", "1"}}).has_value());
    EXPECT_FALSE(target->check({"mul", {"P-192", "5", "0"}}).has_value());
}

TEST(Diffuzz, ShortRunPassesWithByteStableJson)
{
    RunOptions opts;
    opts.seed = 1;
    opts.cases = 40;
    auto targets = makeTargets(ULECC_GOLDEN_DIR);
    RunReport r1 = runDiffuzz(targets, opts);
    for (const Failure &f : r1.failures)
        ADD_FAILURE() << formatCase(f.target, f.shrunk) << ": "
                      << f.detail;
    EXPECT_TRUE(r1.pass());
    RunReport r2 = runDiffuzz(targets, opts);
    // Same seed, same targets: the serialised reports must be
    // byte-identical (timings are deliberately not serialised).
    EXPECT_EQ(reportToJson(r1, opts).dump(2), reportToJson(r2, opts).dump(2));
}

TEST(Diffuzz, ReplayRejectsUnknownTargets)
{
    auto targets = makeTargets(ULECC_GOLDEN_DIR);
    EXPECT_TRUE(replayLine(targets, "notatarget op 123").has_value());
    EXPECT_FALSE(replayLine(targets, "# comment").has_value());
    EXPECT_FALSE(replayLine(targets, "mpint add 2 3").has_value());
    RunReport missing = replayFile(targets, "/nonexistent/corpus.case");
    EXPECT_FALSE(missing.pass());
}

TEST(Diffuzz, CheckedInCorpusReplaysClean)
{
    auto targets = makeTargets(ULECC_GOLDEN_DIR);
    RunReport r = replayFile(
        targets, std::string(ULECC_GOLDEN_DIR) + "/corpus/regressions.case");
    for (const Failure &f : r.failures)
        ADD_FAILURE() << formatCase(f.target, f.shrunk) << ": "
                      << f.detail;
    EXPECT_TRUE(r.pass());
    EXPECT_GT(r.stats.at(0).cases, 20u);
}
