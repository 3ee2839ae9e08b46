/**
 * @file
 * fault-campaign: deterministic fault-injection campaigns across the
 * sim/crypto stack.
 *
 * Usage:
 *   fault_campaign [--seed N] [--campaigns N] [--verbose]
 *
 * Each campaign injects exactly one fault into either
 *
 *  - a simulated field kernel on Pete (register/memory/Hi-Lo bit
 *    flips, program-line corruption, stall storms, cycle-budget
 *    runaways), comparing the result memory against a golden
 *    fault-free run of the same kernel; or
 *
 *  - a cryptographic entry point (corrupted public key, corrupted
 *    signature, out-of-range scalar, glitched-sign emulation,
 *    oversized octet string, corrupted ECDH peer), exercising the
 *    point/range validation and verify-after-sign countermeasures.
 *
 * Every outcome is classified:
 *
 *   detected           -- a structured error or a countermeasure
 *                         caught the fault (timeout, mem-fault,
 *                         illegal instruction, validation reject,
 *                         verification failure);
 *   silently_corrupted -- the run completed "successfully" with a
 *                         wrong result: the dangerous case the
 *                         countermeasures exist to shrink;
 *   masked             -- the fault landed in dead state; the output
 *                         is bit-identical to golden;
 *   crashed            -- an unstructured exception escaped the stack
 *                         (caught here so the process never aborts).
 *
 * The run is fully deterministic in --seed: no wall clock, no
 * platform randomness.  The summary is printed as JSON on stdout
 * (the "ulecc.fault_campaign.v1" schema from fault/campaign_summary).
 * --seed and --campaigns are parsed strictly (tools/arg_parse.hh):
 * "--campaigns 10x" exits 2 with "bad value" instead of running 10.
 */

#include <cstdio>
#include <cstring>
#include <iterator>
#include <limits>
#include <optional>
#include <string>

#include "arg_parse.hh"
#include "asmkit/assembler.hh"
#include "ecdsa/ecdh.hh"
#include "ecdsa/ecdsa.hh"
#include "fault/campaign_summary.hh"
#include "fault/fault_injector.hh"
#include "workload/asm_kernels.hh"

using namespace ulecc;

namespace
{

constexpr CampaignOutcome Detected = CampaignOutcome::Detected;
constexpr CampaignOutcome SilentlyCorrupted =
    CampaignOutcome::SilentlyCorrupted;
constexpr CampaignOutcome Masked = CampaignOutcome::Masked;
constexpr CampaignOutcome Crashed = CampaignOutcome::Crashed;

struct CampaignResult
{
    std::string kind;
    CampaignOutcome outcome = Crashed;
    std::string detail;
};

/** Memory layout shared with workload/asm_kernels.cc. */
constexpr uint32_t kAddrA = 0x10000400;
constexpr uint32_t kAddrB = 0x10000500;
constexpr uint32_t kAddrR = 0x10000600;

MpUint
randomLimbs(SplitMix64 &rng, int limbs)
{
    MpUint v;
    for (int i = 0; i < limbs; ++i)
        v.setLimb(i, static_cast<uint32_t>(rng.next()));
    return v;
}

struct KernelCase
{
    AsmKernel kernel;
    const char *name;
    int aLimbs;  ///< operand A width in limbs
    int rLimbs;  ///< result width in limbs
};

const KernelCase kKernelCases[] = {
    {AsmKernel::MpAdd, "mp-add", 6, 7},
    {AsmKernel::MulOs, "mul-os", 6, 12},
    {AsmKernel::MulPsMaddu, "mul-ps-maddu", 6, 12},
    {AsmKernel::MulGf2, "mul-gf2", 6, 12},
    {AsmKernel::RedP192, "red-p192", 12, 6},
};

struct SimRun
{
    Result<uint64_t> outcome{0ull};
    std::array<uint32_t, 16> result{};
    uint64_t cycles = 0;
};

SimRun
runKernelOnPete(const KernelCase &kc, const MpUint &a, const MpUint &b,
                uint64_t maxCycles, FaultInjector *injector,
                uint32_t *romWordsOut)
{
    Program prog = assemble(kernelSource(kc.kernel, 6));
    if (romWordsOut)
        *romWordsOut = static_cast<uint32_t>(prog.words.size());
    PeteConfig cfg;
    cfg.maxCycles = maxCycles;
    Pete cpu(prog, cfg);
    for (int i = 0; i < kc.aLimbs; ++i)
        cpu.mem().poke32(kAddrA + 4 * i, a.limb(i));
    for (int i = 0; i < 6; ++i)
        cpu.mem().poke32(kAddrB + 4 * i, b.limb(i));
    if (injector)
        cpu.attachStepHook(injector);
    SimRun run;
    run.outcome = cpu.runChecked();
    run.cycles = cpu.stats().cycles;
    if (run.outcome.ok()) {
        for (int i = 0; i < kc.rLimbs; ++i)
            run.result[i] = cpu.mem().peek32(kAddrR + 4 * i);
    }
    return run;
}

CampaignResult
simCampaign(SplitMix64 &rng)
{
    const KernelCase &kc =
        kKernelCases[rng.below(std::size(kKernelCases))];
    MpUint a = randomLimbs(rng, kc.aLimbs);
    MpUint b = randomLimbs(rng, 6);

    // Golden fault-free run establishes the reference output and the
    // cycle horizon for planning the strike.
    uint32_t rom_words = 0;
    SimRun golden =
        runKernelOnPete(kc, a, b, 10'000'000, nullptr, &rom_words);
    CampaignResult res;
    if (!golden.outcome.ok()) {
        res.kind = "golden-failure";
        res.outcome = Crashed;
        res.detail = golden.outcome.error().message();
        return res;
    }

    FaultInjector injector(rng.next());
    FaultTargetSpace space;
    space.cycleHorizon = golden.cycles;
    space.ramBase = kAddrA;
    // Live window: operands plus result region (kAddrR .. +rLimbs).
    space.ramWords = (kAddrR + 4 * 16 - kAddrA) / 4;
    space.romWords = rom_words;
    FaultSpec spec = injector.plan(space);
    injector.arm(spec);
    res.kind = faultKindName(spec.kind);
    res.detail = spec.describe();

    // Budget: generous multiple of golden so only genuine runaways
    // (corrupted control flow, budget-exhaust faults) time out.
    SimRun faulty =
        runKernelOnPete(kc, a, b, golden.cycles * 4 + 100'000,
                        &injector, nullptr);
    if (!faulty.outcome.ok()) {
        res.outcome = Detected;
        res.detail += " -> " + faulty.outcome.error().message();
        return res;
    }
    bool same = true;
    for (int i = 0; i < kc.rLimbs; ++i)
        same = same && faulty.result[i] == golden.result[i];
    res.outcome = same ? Masked : SilentlyCorrupted;
    return res;
}

CampaignResult
cryptoCampaign(SplitMix64 &rng)
{
    const Curve &curve = standardCurve(CurveId::P192);
    Ecdsa ecdsa(curve);
    Ecdh ecdh(curve);
    const MpUint &n = curve.order();

    MpUint d = randomLimbs(rng, 6).mod(n);
    if (d.isZero())
        d = MpUint(1);
    Sha256Digest digest{};
    for (size_t i = 0; i < digest.size(); ++i)
        digest[i] = static_cast<uint8_t>(rng.next());

    CampaignResult res;
    int scenario = static_cast<int>(rng.below(6));
    switch (scenario) {
      case 0: {
        // Bit-flipped public point must be rejected before use.
        res.kind = "crypto-corrupt-pubkey";
        KeyPair kp = ecdsa.keyFromPrivate(d);
        Signature sig = ecdsa.signDigest(d, digest);
        AffinePoint bad = kp.q;
        bad.y.setLimb(static_cast<int>(rng.below(6)),
                      bad.y.limb(0) ^ (1u << rng.below(32)));
        Result<bool> v = ecdsa.verifyDigestChecked(bad, digest, sig);
        if (!v.ok()) {
            res.outcome = Detected;
            res.detail = v.error().message();
        } else {
            res.outcome = v.value() ? SilentlyCorrupted : Detected;
            res.detail = "off-curve point slipped through validation";
        }
        break;
      }
      case 1: {
        // Bit-flipped signature must fail verification.
        res.kind = "crypto-corrupt-signature";
        KeyPair kp = ecdsa.keyFromPrivate(d);
        Signature sig = ecdsa.signDigest(d, digest);
        int bit = static_cast<int>(rng.below(192));
        Signature bad = sig;
        if (rng.below(2))
            bad.r = bad.r.bitXor(MpUint::powerOfTwo(bit));
        else
            bad.s = bad.s.bitXor(MpUint::powerOfTwo(bit));
        Result<bool> v = ecdsa.verifyDigestChecked(kp.q, digest, bad);
        if (!v.ok() || !v.value()) {
            res.outcome = Detected;
            res.detail = "corrupted signature rejected";
        } else {
            res.outcome = SilentlyCorrupted;
            res.detail = "corrupted signature verified";
        }
        break;
      }
      case 2: {
        // Out-of-range private scalar is invalid input, not a crash.
        res.kind = "crypto-scalar-range";
        MpUint bad = rng.below(2) ? n.add(d) : MpUint();
        Result<Signature> s = ecdsa.signDigestChecked(bad, digest);
        res.outcome = (!s.ok() && s.code() == Errc::InvalidInput)
            ? Detected : SilentlyCorrupted;
        res.detail = s.ok() ? "out-of-range scalar accepted"
                            : s.error().message();
        break;
      }
      case 3: {
        // Emulated glitched signer: verify-after-sign must withhold a
        // corrupted signature.
        res.kind = "crypto-glitched-sign";
        KeyPair kp = ecdsa.keyFromPrivate(d);
        Signature sig = ecdsa.signDigest(d, digest);
        Signature glitched = sig;
        glitched.s =
            glitched.s.bitXor(MpUint::powerOfTwo(
                static_cast<int>(rng.below(160))));
        // The verify-after-sign countermeasure from
        // signDigestChecked, applied to the glitched result.
        bool ok = ecdsa.verifyDigest(kp.q, digest, glitched);
        res.outcome = ok ? SilentlyCorrupted : Detected;
        res.detail = ok ? "glitched signature released"
                        : "verify-after-sign withheld the signature";
        break;
      }
      case 4: {
        // Octet-string length beyond the limb capacity.
        res.kind = "crypto-oversized-octets";
        int len = MpUint::maxLimbs * 4 + 1
            + static_cast<int>(rng.below(4096));
        Result<std::vector<uint8_t>> r = toBytesBeChecked(d, len);
        res.outcome = (!r.ok() && r.code() == Errc::OutOfRange)
            ? Detected : SilentlyCorrupted;
        res.detail = r.ok() ? "oversized encoding accepted"
                            : r.error().message();
        break;
      }
      case 5:
      default: {
        // Corrupted ECDH peer point must fail validation.
        res.kind = "crypto-corrupt-ecdh-peer";
        AffinePoint peer = ecdh.publicPoint(d);
        peer.x.setLimb(static_cast<int>(rng.below(6)),
                       peer.x.limb(1) ^ (1u << rng.below(32)));
        MpUint d2 = randomLimbs(rng, 6).mod(n);
        if (d2.isZero())
            d2 = MpUint(2);
        Result<EcdhShared> r = ecdh.agreeChecked(d2, peer);
        if (!r.ok()) {
            res.outcome = Detected;
            res.detail = r.error().message();
        } else {
            res.outcome = SilentlyCorrupted;
            res.detail = "corrupted peer point accepted";
        }
        break;
      }
    }
    return res;
}

void
usage()
{
    std::fprintf(stderr,
                 "usage: fault_campaign [--seed N] [--campaigns N] "
                 "[--verbose]\n");
}

} // namespace

int
main(int argc, char **argv)
{
    uint64_t seed = 1;
    uint64_t campaigns = 100;
    bool verbose = false;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--seed") && i + 1 < argc) {
            std::optional<uint64_t> n = tools::parseCount(
                "fault_campaign", "--seed", argv[++i], 0,
                std::numeric_limits<uint64_t>::max());
            if (!n)
                return 2;
            seed = *n;
        } else if (!std::strcmp(argv[i], "--campaigns") && i + 1 < argc) {
            std::optional<uint64_t> n = tools::parseCount(
                "fault_campaign", "--campaigns", argv[++i], 1,
                100'000'000);
            if (!n)
                return 2;
            campaigns = *n;
        } else if (!std::strcmp(argv[i], "--verbose")) {
            verbose = true;
        } else {
            usage();
            return 2;
        }
    }

    CampaignSummary summary(seed, campaigns);
    SplitMix64 master(seed);

    for (uint64_t i = 0; i < campaigns; ++i) {
        SplitMix64 rng(master.next());
        CampaignResult res;
        try {
            // ~70% simulator strikes, ~30% crypto-boundary strikes.
            if (rng.below(10) < 7)
                res = simCampaign(rng);
            else
                res = cryptoCampaign(rng);
        } catch (const std::exception &e) {
            // A fault escaped the structured taxonomy: that is itself
            // a campaign finding, never a process abort.
            res.kind = res.kind.empty() ? "unclassified" : res.kind;
            res.outcome = Crashed;
            res.detail = e.what();
        } catch (...) {
            res.kind = "unclassified";
            res.outcome = Crashed;
            res.detail = "non-standard exception";
        }
        summary.record(res.kind, res.outcome);
        if (verbose) {
            std::fprintf(stderr, "campaign %3lu: %-22s %-18s %s\n",
                         static_cast<unsigned long>(i),
                         res.kind.c_str(),
                         campaignOutcomeName(res.outcome),
                         res.detail.c_str());
        }
    }

    std::printf("%s\n", summary.toJson().dump(2).c_str());

    // Crashed campaigns indicate taxonomy gaps; surface via exit code
    // without aborting.
    return summary.count(Crashed) ? 4 : 0;
}
