/**
 * @file
 * Pete pipeline simulator tests: functional semantics (including delay
 * slots, Hi/Lo, ISA extensions) and cycle-accounting behaviour
 * (load-use stalls, branch prediction, multiplier interlocks, I-cache).
 */

#include <gtest/gtest.h>

#include "asmkit/assembler.hh"
#include "sim/cpu.hh"
#include "test_util.hh"

using namespace ulecc;

namespace
{

Pete
runProgram(const std::string &src, PeteConfig cfg = {})
{
    Pete cpu(assemble(src), cfg);
    EXPECT_TRUE(cpu.run());
    return cpu;
}

} // namespace

TEST(Pete, ArithmeticBasics)
{
    Pete cpu = runProgram(R"(
        addiu $t0, $zero, 5
        addiu $t1, $zero, 7
        addu  $t2, $t0, $t1
        subu  $t3, $t1, $t0
        sll   $t4, $t1, 2
        sltu  $t5, $t0, $t1
        break
    )");
    EXPECT_EQ(cpu.reg(10), 12u);
    EXPECT_EQ(cpu.reg(11), 2u);
    EXPECT_EQ(cpu.reg(12), 28u);
    EXPECT_EQ(cpu.reg(13), 1u);
}

TEST(Pete, ZeroRegisterIsImmutable)
{
    Pete cpu = runProgram(R"(
        addiu $zero, $zero, 55
        addu $t0, $zero, $zero
        break
    )");
    EXPECT_EQ(cpu.reg(0), 0u);
    EXPECT_EQ(cpu.reg(8), 0u);
}

TEST(Pete, MemoryLoadsAndStores)
{
    Pete cpu = runProgram(R"(
        li  $t0, 0x10000000     # RAM base
        li  $t1, 0xcafebabe
        sw  $t1, 0($t0)
        lw  $t2, 0($t0)
        lbu $t3, 0($t0)         # little-endian low byte
        lb  $t4, 1($t0)         # 0xba sign-extended
        lhu $t5, 2($t0)
        sh  $t5, 8($t0)
        lw  $t6, 8($t0)
        break
    )");
    EXPECT_EQ(cpu.reg(10), 0xcafebabeu);
    EXPECT_EQ(cpu.reg(11), 0xbeu);
    EXPECT_EQ(cpu.reg(12), 0xffffffbau);
    EXPECT_EQ(cpu.reg(13), 0xcafeu);
    EXPECT_EQ(cpu.reg(14), 0xcafeu);
    EXPECT_GE(cpu.mem().ramCounters().reads, 4u);
    EXPECT_GE(cpu.mem().ramCounters().writes, 2u);
}

TEST(Pete, BranchDelaySlotExecutes)
{
    Pete cpu = runProgram(R"(
        addiu $t0, $zero, 1
        beq   $zero, $zero, skip
        addiu $t1, $zero, 99   # delay slot: always executes
        addiu $t2, $zero, 55   # skipped
    skip:
        break
    )");
    EXPECT_EQ(cpu.reg(9), 99u);
    EXPECT_EQ(cpu.reg(10), 0u);
}

TEST(Pete, LoopCountsCorrectly)
{
    Pete cpu = runProgram(R"(
        addiu $t0, $zero, 10
        addiu $t1, $zero, 0
    loop:
        addiu $t0, $t0, -1
        bne   $t0, $zero, loop
        addiu $t1, $t1, 1      # delay slot: runs every iteration
        break
    )");
    EXPECT_EQ(cpu.reg(8), 0u);
    EXPECT_EQ(cpu.reg(9), 10u);
}

TEST(Pete, JalAndJrFunctionCall)
{
    Pete cpu = runProgram(R"(
            jal func
            nop
            addu $t1, $v0, $v0
            break
            nop
        func:
            addiu $v0, $zero, 21
            jr $ra
            nop
    )");
    EXPECT_EQ(cpu.reg(2), 21u);
    EXPECT_EQ(cpu.reg(9), 42u);
    EXPECT_GE(cpu.stats().jumpStalls, 1u);
}

TEST(Pete, Fibonacci)
{
    Pete cpu = runProgram(R"(
        addiu $t0, $zero, 0
        addiu $t1, $zero, 1
        addiu $t2, $zero, 12   # compute fib(12) = 144
    loop:
        addu  $t3, $t0, $t1
        move  $t0, $t1
        move  $t1, $t3
        addiu $t2, $t2, -1
        bne   $t2, $zero, loop
        nop
        break
    )");
    EXPECT_EQ(cpu.reg(8), 144u);
}

TEST(Pete, MultHiLo)
{
    Pete cpu = runProgram(R"(
        li    $t0, 0x12345678
        li    $t1, 0x9abcdef0
        multu $t0, $t1
        mflo  $t2
        mfhi  $t3
        break
    )");
    uint64_t p = 0x12345678ull * 0x9abcdef0ull;
    EXPECT_EQ(cpu.reg(10), static_cast<uint32_t>(p));
    EXPECT_EQ(cpu.reg(11), static_cast<uint32_t>(p >> 32));
    EXPECT_GE(cpu.stats().multBusyStalls, 1u);
}

TEST(Pete, MultSigned)
{
    Pete cpu = runProgram(R"(
        addiu $t0, $zero, -3
        addiu $t1, $zero, 7
        mult  $t0, $t1
        mflo  $t2
        mfhi  $t3
        break
    )");
    EXPECT_EQ(static_cast<int32_t>(cpu.reg(10)), -21);
    EXPECT_EQ(cpu.reg(11), 0xffffffffu);
}

TEST(Pete, StaticSchedulingHidesMultLatency)
{
    // The paper's Section 5.1.1 example: independent instructions
    // between mult and mflo absorb the 4-cycle latency.
    Pete hidden = runProgram(R"(
        li    $t0, 1000
        li    $t1, 2000
        multu $t0, $t1
        addiu $t4, $zero, 1
        addiu $t5, $zero, 2
        addiu $t6, $zero, 3
        mflo  $t2
        break
    )");
    Pete exposed = runProgram(R"(
        li    $t0, 1000
        li    $t1, 2000
        multu $t0, $t1
        mflo  $t2
        addiu $t4, $zero, 1
        addiu $t5, $zero, 2
        addiu $t6, $zero, 3
        break
    )");
    EXPECT_EQ(hidden.reg(10), 2000000u);
    EXPECT_EQ(exposed.reg(10), 2000000u);
    EXPECT_EQ(hidden.stats().multBusyStalls, 0u);
    EXPECT_GT(exposed.stats().multBusyStalls, 0u);
    EXPECT_LT(hidden.stats().cycles, exposed.stats().cycles);
}

TEST(Pete, DivRestoring)
{
    Pete cpu = runProgram(R"(
        addiu $t0, $zero, 100
        addiu $t1, $zero, 7
        divu  $t0, $t1
        mflo  $t2
        mfhi  $t3
        break
    )");
    EXPECT_EQ(cpu.reg(10), 14u);
    EXPECT_EQ(cpu.reg(11), 2u);
    // Divide occupies the unit for its full latency.
    EXPECT_GE(cpu.stats().multBusyStalls, 30u);
}

TEST(Pete, MadduAccumulatesWithOvflo)
{
    // Accumulate 3 large products; the 96-bit (OvFlo,Hi,Lo) must not
    // lose carries (the paper's Table 5.1 semantics).
    Pete cpu = runProgram(R"(
        li    $t0, 0xffffffff
        mthi  $zero
        mtlo  $zero
        maddu $t0, $t0
        maddu $t0, $t0
        maddu $t0, $t0
        sha                  # (OvFlo,Hi,Lo) >>= 32
        mflo  $t2            # middle word
        mfhi  $t3            # former OvFlo
        break
    )");
    // 3 * 0xffffffff^2 = 0x2_fffffffa_00000003
    EXPECT_EQ(cpu.reg(10), 0xfffffffau);
    EXPECT_EQ(cpu.reg(11), 0x2u);
}

TEST(Pete, M2adduDoubles)
{
    Pete cpu = runProgram(R"(
        li     $t0, 0xffffffff
        mthi   $zero
        mtlo   $zero
        m2addu $t0, $t0
        mflo   $t2
        mfhi   $t3
        break
    )");
    // 2 * 0xffffffff^2 = 0x1_fffffffc_00000002 overflows 64 bits.
    unsigned __int128 p2 =
        static_cast<unsigned __int128>(0xffffffffull * 0xffffffffull) * 2;
    EXPECT_EQ(cpu.reg(10), static_cast<uint32_t>(p2));
    EXPECT_EQ(cpu.reg(11), static_cast<uint32_t>(p2 >> 32));
    EXPECT_EQ(cpu.ovflo(), 1u); // 2*p overflows 64 bits
}

TEST(Pete, AddauAddsShiftedOperand)
{
    Pete cpu = runProgram(R"(
        li    $t0, 5
        li    $t1, 0xffffffff
        mthi  $zero
        mtlo  $zero
        addau $t0, $t1       # acc += (5 << 32) + 0xffffffff
        mflo  $t2
        mfhi  $t3
        break
    )");
    EXPECT_EQ(cpu.reg(10), 0xffffffffu);
    EXPECT_EQ(cpu.reg(11), 5u);
}

TEST(Pete, CarrylessExtensions)
{
    Pete cpu = runProgram(R"(
        li      $t0, 0xffffffff
        li      $t1, 0x80000000
        mulgf2  $t0, $t1
        mflo    $t2
        mfhi    $t3
        li      $t4, 3
        li      $t5, 3
        maddgf2 $t4, $t5     # acc ^= clmul(3,3) = 5
        mflo    $t6
        break
    )");
    // clmul(0xffffffff, 0x80000000) = 0xffffffff << 31.
    uint64_t p = 0xffffffffull << 31;
    EXPECT_EQ(cpu.reg(10), static_cast<uint32_t>(p));
    EXPECT_EQ(cpu.reg(11), static_cast<uint32_t>(p >> 32));
    EXPECT_EQ(cpu.reg(14), static_cast<uint32_t>(p ^ 5));
}

TEST(Pete, LoadUseStallCharged)
{
    Pete stalled = runProgram(R"(
        li  $t0, 0x10000000
        li  $t1, 77
        sw  $t1, 0($t0)
        lw  $t2, 0($t0)
        addu $t3, $t2, $t2   # immediate use: one slip
        break
    )");
    Pete scheduled = runProgram(R"(
        li  $t0, 0x10000000
        li  $t1, 77
        sw  $t1, 0($t0)
        lw  $t2, 0($t0)
        addiu $t5, $zero, 0  # filler breaks the dependence
        addu $t3, $t2, $t2
        break
    )");
    EXPECT_EQ(stalled.reg(11), 154u);
    EXPECT_EQ(stalled.stats().loadUseStalls, 1u);
    EXPECT_EQ(scheduled.stats().loadUseStalls, 0u);
}

TEST(Pete, BranchPredictorLearnsLoop)
{
    // A long loop: the 2-bit predictor mispredicts only a handful of
    // times (cold + exit), not once per iteration.
    Pete cpu = runProgram(R"(
        addiu $t0, $zero, 100
    loop:
        addiu $t0, $t0, -1
        bne   $t0, $zero, loop
        nop
        break
    )");
    EXPECT_EQ(cpu.stats().branches, 100u);
    EXPECT_LE(cpu.stats().branchMispredicts, 4u);
}

TEST(Pete, ICacheLoopHitsAfterWarmup)
{
    PeteConfig cfg;
    cfg.icacheEnabled = true;
    cfg.icache.sizeBytes = 1024;
    Pete cpu = runProgram(R"(
        addiu $t0, $zero, 200
    loop:
        addiu $t0, $t0, -1
        bne   $t0, $zero, loop
        nop
        break
    )", cfg);
    const ICacheStats &ic = cpu.icache()->stats();
    EXPECT_GT(ic.accesses, 600u);
    EXPECT_LE(ic.misses, 3u); // tiny loop: everything fits in one line+
    EXPECT_EQ(cpu.mem().romFetchCounters().reads, 0u);
    EXPECT_EQ(cpu.mem().romFetchCounters().wideReads, ic.lineFills);
}

TEST(Pete, ICacheMissPenaltyCharged)
{
    PeteConfig base;
    Pete nocache = runProgram(R"(
        addiu $t0, $zero, 50
    loop:
        addiu $t0, $t0, -1
        bne   $t0, $zero, loop
        nop
        break
    )", base);
    PeteConfig cfg;
    cfg.icacheEnabled = true;
    cfg.icache.sizeBytes = 1024;
    Pete cached = runProgram(R"(
        addiu $t0, $zero, 50
    loop:
        addiu $t0, $t0, -1
        bne   $t0, $zero, loop
        nop
        break
    )", cfg);
    // Same instruction count; the cached run pays a few fill slips.
    EXPECT_EQ(nocache.stats().instructions, cached.stats().instructions);
    EXPECT_EQ(cached.stats().cycles,
              nocache.stats().cycles + cached.stats().icacheStalls);
}

TEST(Pete, HaltsOnBreakAndSyscall)
{
    Pete a = runProgram("break\n");
    EXPECT_TRUE(a.halted());
    Pete b = runProgram("syscall\n");
    EXPECT_TRUE(b.halted());
}

TEST(Pete, IllegalInstructionThrows)
{
    Program p;
    p.words = {0xFFFFFFFFu};
    Pete cpu(p);
    EXPECT_THROW(cpu.run(), std::runtime_error);
}

TEST(Pete, Cop2WithoutCoprocessorThrows)
{
    Pete cpu(assemble("cop2sync\nbreak\n"));
    EXPECT_THROW(cpu.run(), std::runtime_error);
}

TEST(ICache, ConstructorRejectsBadGeometry)
{
    // Release builds compile asserts out, so a zero or non-power-of-
    // two line count must be a structured error, never a modulo by
    // zero or a silently mis-indexed cache.
    for (uint32_t bytes : {0u, 8u, 48u, 3072u}) {
        ICacheConfig cfg;
        cfg.sizeBytes = bytes;
        try {
            ICache cache(cfg);
            ADD_FAILURE() << bytes << " bytes accepted";
        } catch (const UleccError &e) {
            EXPECT_EQ(e.code(), Errc::InvalidInput) << bytes;
        }
    }
    ICacheConfig oddLine;
    oddLine.lineBytes = 12;
    EXPECT_THROW(ICache{oddLine}, UleccError);
    for (uint32_t bytes : {16u, 1024u, 4096u}) {
        ICacheConfig cfg;
        cfg.sizeBytes = bytes;
        ICache cache(cfg);
        EXPECT_EQ(cache.lines(), bytes / 16);
    }
}

namespace
{

/** Every ICacheStats field. */
void
expectICacheStatsEqual(const ICacheStats &a, const ICacheStats &b)
{
    EXPECT_EQ(a.accesses, b.accesses);
    EXPECT_EQ(a.hits, b.hits);
    EXPECT_EQ(a.misses, b.misses);
    EXPECT_EQ(a.prefetchHits, b.prefetchHits);
    EXPECT_EQ(a.lineFills, b.lineFills);
    EXPECT_EQ(a.prefetchFills, b.prefetchFills);
    EXPECT_EQ(a.tagReads, b.tagReads);
    EXPECT_EQ(a.dataReads, b.dataReads);
    EXPECT_EQ(a.dataWrites, b.dataWrites);
}

} // namespace

TEST(ICache, RunMatchesWordWalk)
{
    // accessRun and the closed-form accessLoop against the per-word
    // access() walk they replace, on random (base, words, iters, size,
    // prefetch) tuples.  The 1-4 line caches make most bodies conflict
    // with themselves, which must fall back to the walk; the bases
    // include unaligned ones and ones that wrap the address space.
    ulecc::test::Rng rng(0x1c4c4e5);
    for (uint32_t lines : {1u, 2u, 4u, 8u, 64u, 256u}) {
        for (bool prefetch : {false, true}) {
            ICacheConfig cfg;
            cfg.sizeBytes = 16 * lines;
            cfg.prefetch = prefetch;
            ICache fast(cfg);
            ICache walk(cfg);
            uint64_t fastStall = 0, walkStall = 0;
            for (int op = 0; op < 300; ++op) {
                uint32_t base;
                switch (rng.below(8)) {
                  case 0: base = 0xffffff00u + rng.below(256); break;
                  case 1: base = rng.below(8192); break;
                  default: base = 4 * rng.below(2048); break;
                }
                uint32_t words = 1 + rng.below(rng.below(4) ? 24 : 300);
                uint64_t iters = rng.below(3) ? 1 + rng.below(12) : 1;
                if (iters == 1 && rng.below(2))
                    fastStall += fast.accessRun(base, words);
                else
                    fastStall += fast.accessLoop(base, words, iters);
                for (uint64_t it = 0; it < iters; ++it) {
                    for (uint32_t i = 0; i < words; ++i)
                        walkStall += walk.access(base + 4 * i);
                }
                ASSERT_TRUE(fast.sameState(walk))
                    << lines << " lines, base " << base << ", " << words
                    << " words x " << iters;
            }
            SCOPED_TRACE(std::to_string(lines) + " lines, prefetch "
                         + std::to_string(prefetch));
            EXPECT_EQ(fastStall, walkStall);
            expectICacheStatsEqual(fast.stats(), walk.stats());
        }
    }
    // Degenerate shapes are no-ops.
    ICache empty(ICacheConfig{});
    EXPECT_EQ(empty.accessRun(0, 0), 0u);
    EXPECT_EQ(empty.accessLoop(0, 0, 5), 0u);
    EXPECT_EQ(empty.accessLoop(0, 5, 0), 0u);
    EXPECT_EQ(empty.stats().accesses, 0u);
}

namespace
{

/** Full-width PeteStats comparison (every counter, not just cycles). */
void
expectStatsEqual(const PeteStats &a, const PeteStats &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.loadUseStalls, b.loadUseStalls);
    EXPECT_EQ(a.branches, b.branches);
    EXPECT_EQ(a.branchMispredicts, b.branchMispredicts);
    EXPECT_EQ(a.jumpStalls, b.jumpStalls);
    EXPECT_EQ(a.multBusyStalls, b.multBusyStalls);
    EXPECT_EQ(a.icacheStalls, b.icacheStalls);
    EXPECT_EQ(a.cop2Stalls, b.cop2Stalls);
    EXPECT_EQ(a.externalStalls, b.externalStalls);
    EXPECT_EQ(a.multIssues, b.multIssues);
    EXPECT_EQ(a.divIssues, b.divIssues);
}

/** Hook that counts steps and strikes text once at a given step. */
class CorruptingHook : public StepHook
{
  public:
    CorruptingHook(uint64_t strikeStep, uint32_t addr, uint32_t mask)
        : strikeStep_(strikeStep), addr_(addr), mask_(mask)
    {}

    void
    onStep(Pete &cpu) override
    {
        if (steps_++ == strikeStep_)
            cpu.mem().corrupt32(addr_, mask_);
    }

    uint64_t steps() const { return steps_; }

  private:
    uint64_t steps_ = 0;
    uint64_t strikeStep_;
    uint32_t addr_;
    uint32_t mask_;
};

/** A hook that never touches the processor. */
class NoopHook : public StepHook
{
  public:
    void onStep(Pete &) override {}
};

/**
 * The bit-identity contract: runs @p src plain (predecoded i-text)
 * and with a no-op StepHook attached (decode every fetched word) and
 * expects the same outcome -- a timeout included -- PeteStats and
 * architectural state.  Returns the plain Pete for extra assertions.
 */
Pete
expectHookedMatchesPlain(const std::string &src, PeteConfig cfg = {})
{
    NoopHook noop;
    Pete plain(assemble(src), cfg);
    Pete hooked(assemble(src), cfg);
    hooked.attachStepHook(&noop);
    Result<uint64_t> rp = plain.runChecked();
    Result<uint64_t> rh = hooked.runChecked();
    EXPECT_EQ(rp.ok(), rh.ok());
    if (!rp.ok() && !rh.ok()) {
        EXPECT_EQ(rp.code(), rh.code());
        EXPECT_EQ(rp.error().context, rh.error().context);
    }
    expectStatsEqual(plain.stats(), hooked.stats());
    for (int r = 0; r < 32; ++r)
        EXPECT_EQ(plain.reg(r), hooked.reg(r)) << "reg " << r;
    EXPECT_EQ(plain.hi(), hooked.hi());
    EXPECT_EQ(plain.lo(), hooked.lo());
    EXPECT_EQ(plain.ovflo(), hooked.ovflo());
    EXPECT_EQ(plain.pc(), hooked.pc());
    return plain;
}

const char *kPredecodeWorkload = R"(
        addiu $t0, $zero, 40
        addiu $t1, $zero, 0
        addiu $t2, $zero, 3
    loop:
        mult  $t2, $t2
        mflo  $t3
        addu  $t1, $t1, $t3
        lui   $t4, 0x1000
        sw    $t1, 0($t4)
        lw    $t5, 0($t4)
        addiu $t0, $t0, -1
        bne   $t0, $zero, loop
        nop
        jal   leaf
        nop
        break
    leaf:
        jr    $ra
        addiu $t6, $t6, 1
)";

// The multiply issues in the jump's delay slot, so the busy countdown
// is live when the next basic block's MFLO interlocks on it, and its
// width is multiplier-variant dependent.
constexpr const char *kMultCrossingWorkload = R"(
        addiu $t0, $zero, 30
        addiu $t1, $zero, 0
        addiu $t2, $zero, 7
    loop:
        j     body
        mult  $t2, $t0
    body:
        mflo  $t3
        addu  $t1, $t1, $t3
        addiu $t0, $t0, -1
        bne   $t0, $zero, loop
        nop
        break
    )";

// The inner branch alternates taken/not-taken with the counter's
// parity, so the bimodal predictor keeps mispredicting.
std::string
alternatingBranchWorkload(int iterations)
{
    return "        addiu $t0, $zero, " + std::to_string(iterations) + R"(
        addiu $t1, $zero, 0
    loop:
        andi  $t3, $t0, 1
        beq   $t3, $zero, even
        nop
        addiu $t1, $t1, 100
    even:
        addiu $t1, $t1, 1
        addiu $t0, $t0, -1
        bne   $t0, $zero, loop
        nop
        break
    )";
}

// A counted loop the cycle budget can pause inside; the 7th word
// (`addiu $t6, $zero, 1`) runs only after the loop.
constexpr const char *kPausableLoop = R"(
        addiu $t0, $zero, 4000
        addiu $t1, $zero, 0
    loop:
        addiu $t1, $t1, 1
        addiu $t0, $t0, -1
        bne   $t0, $zero, loop
        nop
        addiu $t6, $zero, 1
        break
    )";

/**
 * Pauses kPausableLoop on the cycle budget mid-loop, strikes the
 * post-loop `addiu $t6, $zero, 1` into `..., 9` through the
 * fault-injection backdoor, and resumes -- plain and hooked, which
 * pause at the same instruction.
 */
void
expectTextStrikeAfterPauseMatches(PeteConfig cfg)
{
    auto run = [&](bool withHook, uint32_t &pausePc) {
        NoopHook noop;
        cfg.maxCycles = 2'000; // pauses well inside the loop
        Pete cpu(assemble(kPausableLoop), cfg);
        if (withHook)
            cpu.attachStepHook(&noop);
        Result<uint64_t> paused = cpu.runChecked();
        EXPECT_FALSE(paused.ok());
        EXPECT_EQ(paused.code(), Errc::SimTimeout);
        pausePc = cpu.pc();
        cpu.mem().corrupt32(6 * 4, 0x8);
        cpu.setMaxCycles(500'000'000);
        EXPECT_TRUE(cpu.run());
        cpu.attachStepHook(nullptr);
        return cpu;
    };
    uint32_t plainPause = 0, hookedPause = 0;
    Pete plain = run(false, plainPause);
    Pete hooked = run(true, hookedPause);
    EXPECT_EQ(plainPause, hookedPause);
    expectStatsEqual(plain.stats(), hooked.stats());
    EXPECT_EQ(plain.reg(14), 9u); // the strike's immediate took effect
    EXPECT_EQ(hooked.reg(14), 9u);
    for (int r = 0; r < 32; ++r)
        EXPECT_EQ(plain.reg(r), hooked.reg(r)) << "reg " << r;
}

/** Runs a diverging loop into a 10k-cycle budget on both paths;
 *  returns the cycle count at which Errc::SimTimeout surfaced. */
uint64_t
timeoutCycles(const char *src, PeteConfig cfg = {})
{
    cfg.maxCycles = 10'000;
    Pete cpu = expectHookedMatchesPlain(src, cfg);
    EXPECT_FALSE(cpu.halted());
    EXPECT_GE(cpu.stats().cycles, cfg.maxCycles);
    return cpu.stats().cycles;
}

constexpr const char *kSpin = R"(
    spin:
        beq $zero, $zero, spin
        nop
    )";

} // namespace

// ---------------------------------------------------------------------
// Bit identity: the plain interpreter against the hooked reference.
// The BlockCache.* and Superblock.* suites keep the names of the
// retired execution tiers' tests; each now pins the interpreter rule
// its program was written to stress.

TEST(Predecode, StatsBitIdenticalOnLoopProgram)
{
    expectHookedMatchesPlain(kPredecodeWorkload);
}

TEST(Predecode, StatsBitIdenticalWithIcache)
{
    PeteConfig cfg;
    cfg.icacheEnabled = true;
    cfg.icache.sizeBytes = 1024;
    expectHookedMatchesPlain(kPredecodeWorkload, cfg);
}

TEST(Predecode, CorruptedTextIsRevalidated)
{
    // A particle strike on program text (no hook attached!) must not be
    // served a stale predecoded entry: the cached raw word mismatches
    // and the fetched word decodes on the spot.
    const char *src = R"(
        addiu $t0, $zero, 5
        addiu $t1, $zero, 0
        break
    )";
    auto run = [&](bool withHook) {
        NoopHook noop;
        Pete cpu(assemble(src));
        if (withHook)
            cpu.attachStepHook(&noop);
        // Flip one immediate bit of the second instruction (pc = 4):
        // addiu $t1, $zero, 0 becomes addiu $t1, $zero, 8.
        cpu.mem().corrupt32(4, 0x8);
        EXPECT_TRUE(cpu.run());
        cpu.attachStepHook(nullptr);
        return cpu;
    };
    Pete plain = run(false);
    Pete hooked = run(true);
    EXPECT_EQ(plain.reg(9), 8u); // the corrupted immediate took effect
    EXPECT_EQ(hooked.reg(9), 8u);
    expectStatsEqual(plain.stats(), hooked.stats());
}

TEST(Predecode, HookTakesSlowPathTransparently)
{
    // With a hook attached every fetched word is decoded afresh, so a
    // mid-run strike on an already-executed instruction changes the
    // later loop iterations -- and only the arithmetic, never timing.
    const char *src = R"(
        addiu $t0, $zero, 10
        addiu $t1, $zero, 0
    loop:
        addiu $t1, $t1, 1
        addiu $t0, $t0, -1
        bne   $t0, $zero, loop
        nop
        break
    )";
    Pete plain = runProgram(src);
    Pete struck(assemble(src));
    // Before step 14 (the 4th iteration's first word) turn
    // `addiu $t1, $t1, 1` (pc = 8) into `addiu $t1, $t1, 3`.
    CorruptingHook hook(14, 8, 0x2);
    struck.attachStepHook(&hook);
    EXPECT_TRUE(struck.run());
    EXPECT_EQ(hook.steps(), struck.stats().instructions);
    EXPECT_EQ(plain.reg(9), 10u);
    EXPECT_EQ(struck.reg(9), 3 * 1 + 7 * 3u);
    expectStatsEqual(plain.stats(), struck.stats());
}

TEST(Predecode, TimeoutEquivalentOnFastAndSlowPaths)
{
    // Both paths stop at the first instruction boundary at or past
    // the budget: the same instruction, the same error, the same
    // stats.
    EXPECT_LT(timeoutCycles(kSpin), 10'000u + 2);
}

TEST(BlockCache, StatsBitIdenticalOnLoopProgram)
{
    // Every multiplier design point: the variant changes the unit's
    // occupancy (and so the interlocks), never the arithmetic.
    Pete dflt = expectHookedMatchesPlain(kPredecodeWorkload);
    for (int i = 0; i < kMultiplierVariantCount; ++i) {
        MultiplierVariant v = static_cast<MultiplierVariant>(i);
        PeteConfig cfg;
        applyMultiplier(cfg, v);
        Pete cpu = expectHookedMatchesPlain(kPredecodeWorkload, cfg);
        EXPECT_EQ(cpu.reg(9), dflt.reg(9)) << multiplierVariantName(v);
    }
}

TEST(BlockCache, StatsBitIdenticalWithIcache)
{
    // Line fills interleave with the live multiplier countdown.
    PeteConfig cfg;
    cfg.icacheEnabled = true;
    cfg.icache.sizeBytes = 1024;
    cfg.icache.prefetch = true;
    Pete cpu = expectHookedMatchesPlain(kMultCrossingWorkload, cfg);
    EXPECT_GT(cpu.stats().icacheStalls, 0u);
}

TEST(BlockCache, MultCountdownCrossesBlockBoundary)
{
    Pete cpu = expectHookedMatchesPlain(kMultCrossingWorkload);
    EXPECT_GT(cpu.stats().multBusyStalls, 0u);
}

TEST(BlockCache, SixCycleMultiplierCountdownStaysExact)
{
    // A 6-cycle variant (karatsuba2) widens the live countdown: more
    // mult-busy stalls than the 4-cycle default, same arithmetic.
    PeteConfig cfg;
    applyMultiplier(cfg, MultiplierVariant::Karatsuba2);
    ASSERT_EQ(cfg.multLatency, 6u);
    Pete slow6 = expectHookedMatchesPlain(kMultCrossingWorkload, cfg);
    Pete dflt = expectHookedMatchesPlain(kMultCrossingWorkload);
    EXPECT_GT(slow6.stats().multBusyStalls,
              dflt.stats().multBusyStalls);
    EXPECT_EQ(slow6.stats().instructions, dflt.stats().instructions);
    EXPECT_EQ(slow6.lo(), dflt.lo()); // timing only, same arithmetic
    EXPECT_EQ(slow6.hi(), dflt.hi());
}

TEST(BlockCache, DataDependentBranchDirections)
{
    Pete cpu = expectHookedMatchesPlain(alternatingBranchWorkload(40));
    EXPECT_EQ(cpu.reg(9), 40u + 20 * 100);
    EXPECT_GT(cpu.stats().branchMispredicts, 20u);
}

TEST(BlockCache, JrLoopReplays)
{
    // A call loop: JAL enters the leaf, JR returns through a
    // register target and pays the jump bubble every iteration.
    Pete cpu = expectHookedMatchesPlain(R"(
        addiu $t0, $zero, 25
        addiu $t1, $zero, 0
    loop:
        jal   leaf
        nop
        addiu $t0, $t0, -1
        bne   $t0, $zero, loop
        nop
        break
    leaf:
        jr    $ra
        addiu $t1, $t1, 2
    )");
    EXPECT_EQ(cpu.reg(9), 50u);
    EXPECT_EQ(cpu.stats().jumpStalls, 25u);
}

TEST(BlockCache, StoreToTextFaultsInsideReplayedBlock)
{
    // Iteration 1 stores to RAM; iteration 2 runs the same loop body
    // and the store lands on program text, which must fault with the
    // same message, stats and architectural state on both paths.
    Pete cpu = expectHookedMatchesPlain(R"(
        lui   $t4, 0x1000
        addiu $t4, $t4, 0x10
        lui   $t7, 0x1000
        addiu $t0, $zero, 4
        addiu $t1, $zero, 0
    loop:
        sw    $t1, 0($t4)
        addiu $t1, $t1, 1
        subu  $t4, $t4, $t7
        addiu $t0, $t0, -1
        bne   $t0, $zero, loop
        nop
        break
    )");
    EXPECT_FALSE(cpu.halted());
    EXPECT_EQ(cpu.reg(9), 1u);
}

TEST(BlockCache, TextStrikeInvalidatesMemoizedBlock)
{
    expectTextStrikeAfterPauseMatches({});
}

TEST(BlockCache, HookForcesSlowPathTransparently)
{
    // A hook sees exactly one boundary per retired instruction, and
    // observing alone changes nothing.
    const char *src = R"(
        addiu $t0, $zero, 10
        addiu $t1, $zero, 0
    loop:
        addiu $t1, $t1, 1
        addiu $t0, $t0, -1
        bne   $t0, $zero, loop
        nop
        break
    )";
    Pete plain = runProgram(src);
    Pete observed(assemble(src));
    CorruptingHook hook(1ull << 60, 0, 0); // never strikes
    observed.attachStepHook(&hook);
    EXPECT_TRUE(observed.run());
    EXPECT_EQ(hook.steps(), observed.stats().instructions);
    expectStatsEqual(plain.stats(), observed.stats());
    EXPECT_EQ(plain.reg(9), observed.reg(9));
}

TEST(BlockCache, ShadowVerifyModeCleanOnLoopProgram)
{
    Pete cpu = expectHookedMatchesPlain(R"(
        addiu $t0, $zero, 1000
        addiu $t1, $zero, 0
    loop:
        addiu $t1, $t1, 1
        addiu $t0, $t0, -1
        bne   $t0, $zero, loop
        nop
        break
    )");
    EXPECT_EQ(cpu.reg(9), 1000u);
}

TEST(BlockCache, TimeoutOvershootBounded)
{
    // A spin whose every pass interlocks on the multiplier: the
    // overshoot is at most one instruction's cycles.
    EXPECT_LT(timeoutCycles(R"(
    spin:
        mult  $t0, $t0
        mflo  $t1
        beq   $zero, $zero, spin
        nop
    )"),
              10'000u + 8);
}

TEST(Superblock, StatsBitIdenticalOnLoopProgram)
{
    // A 32-byte cache (two lines) thrashes on the three-line loop:
    // every pass refills a line, on both paths alike.
    PeteConfig cfg;
    cfg.icacheEnabled = true;
    cfg.icache.sizeBytes = 32;
    Pete cpu = expectHookedMatchesPlain(kPredecodeWorkload, cfg);
    EXPECT_GT(cpu.stats().icacheStalls, 40u * 3);
}

TEST(Superblock, StatsBitIdenticalWithIcache)
{
    PeteConfig cfg;
    cfg.icacheEnabled = true;
    cfg.icache.sizeBytes = 1024;
    cfg.icache.prefetch = true;
    expectHookedMatchesPlain(kPredecodeWorkload, cfg);
}

TEST(Superblock, SixCycleMultiplierTraceTierStaysExact)
{
    // The countdown crossing under every multiplier design point.
    Pete dflt = expectHookedMatchesPlain(kMultCrossingWorkload);
    for (int i = 0; i < kMultiplierVariantCount; ++i) {
        MultiplierVariant v = static_cast<MultiplierVariant>(i);
        PeteConfig cfg;
        applyMultiplier(cfg, v);
        Pete cpu = expectHookedMatchesPlain(kMultCrossingWorkload, cfg);
        EXPECT_EQ(cpu.lo(), dflt.lo()) << multiplierVariantName(v);
        EXPECT_EQ(cpu.stats().instructions, dflt.stats().instructions);
    }
}

TEST(Superblock, DataDependentBranchDirections)
{
    // Both halves of the signed branch family on a counter that
    // crosses zero: BLEZ/BGTZ/BLTZ/BGEZ resolve against live values.
    Pete cpu = expectHookedMatchesPlain(R"(
        addiu $t0, $zero, 20
        addiu $t1, $zero, 0
    loop:
        blez  $t0, neg
        nop
        addiu $t1, $t1, 1
    neg:
        bgez  $t0, next
        nop
        addiu $t1, $t1, 100
    next:
        addiu $t0, $t0, -1
        slti  $t2, $t0, -20
        beq   $t2, $zero, loop
        nop
        break
    )");
    EXPECT_EQ(cpu.reg(9), 20u + 20 * 100);
}

TEST(Superblock, MultCountdownCrossesTraceEntry)
{
    // The MAC issues in a call's delay slot and the callee reads Hi
    // straight away: the countdown crosses the JAL and the JR.
    Pete cpu = expectHookedMatchesPlain(R"(
        addiu $t0, $zero, 30
        addiu $t2, $zero, -1
    loop:
        jal   leaf
        maddu $t2, $t2
        addiu $t0, $t0, -1
        bne   $t0, $zero, loop
        nop
        break
    leaf:
        mfhi  $t3
        jr    $ra
        addu  $t1, $t1, $t3
    )");
    EXPECT_GT(cpu.stats().multBusyStalls, 0u);
}

TEST(Superblock, MidTraceFaultReconstructsExactState)
{
    // The store address descends 4 bytes per iteration: a dozen clean
    // RAM stores, then the address drops below the RAM base and the
    // same store faults with the exact message, stats and state.
    Pete cpu = expectHookedMatchesPlain(R"(
        lui   $t4, 0x1000
        addiu $t4, $t4, 48
        addiu $t0, $zero, 64
        addiu $t1, $zero, 0
    loop:
        sw    $t1, 0($t4)
        addiu $t1, $t1, 1
        addiu $t4, $t4, -4
        addiu $t0, $t0, -1
        bne   $t0, $zero, loop
        nop
        break
    )");
    EXPECT_FALSE(cpu.halted());
    EXPECT_EQ(cpu.reg(9), 13u);
}

TEST(Superblock, TextStrikeInvalidatesLiveTrace)
{
    // The same pause-strike-resume with the I-cache modelled: the
    // struck word is fetched through a line that may be resident.
    PeteConfig cfg;
    cfg.icacheEnabled = true;
    cfg.icache.sizeBytes = 1024;
    expectTextStrikeAfterPauseMatches(cfg);
}

TEST(Superblock, RegistrySharesTracesAcrossInstances)
{
    // Two Petes over the same program text share nothing: the second
    // run matches the first bit for bit.
    const char *src = R"(
        addiu $t0, $zero, 977
        addiu $t1, $zero, 0
    loop:
        addiu $t1, $t1, 3
        xor   $t2, $t1, $t0
        addiu $t0, $t0, -1
        bne   $t0, $zero, loop
        nop
        break
    )";
    Pete first = expectHookedMatchesPlain(src);
    Pete second = expectHookedMatchesPlain(src);
    expectStatsEqual(first.stats(), second.stats());
    EXPECT_EQ(first.reg(9), 3u * 977);
    EXPECT_EQ(first.reg(10), second.reg(10));
}

TEST(Superblock, ShadowVerifyModeCleanOnAlternatingProgram)
{
    Pete cpu = expectHookedMatchesPlain(alternatingBranchWorkload(400));
    EXPECT_EQ(cpu.reg(9), 400u + 200 * 100);
}

TEST(Superblock, TimeoutOvershootBounded)
{
    // The same with the I-cache modelled (the spin stays resident).
    PeteConfig cfg;
    cfg.icacheEnabled = true;
    cfg.icache.sizeBytes = 1024;
    EXPECT_LT(timeoutCycles(kSpin, cfg), 10'000u + 2);
}
