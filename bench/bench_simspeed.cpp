/**
 * @file
 * Simulator-throughput microbenchmark (not a paper figure).
 *
 * Measures the host-side cost of the reproduction pipeline itself:
 *
 *  1. Pete's instruction throughput (MIPS) on the k=17
 *     operand-scanning multiply kernel (tools/mulos_k17.s), over
 *     kTrials timed runs, reporting their median and minimum;
 *  2. the wall-clock of a full prime-field design-space sweep, cold,
 *     with the workload layer's kernel/trace memos warm, and with a
 *     warm evaluation memo (ULECC_EVAL_CACHE semantics, see
 *     docs/PERFORMANCE.md).
 *
 * Usage: bench_simspeed [--serial]   (--serial runs the sweeps on one
 * thread; the Pete runs are single-threaded either way)
 *
 * The measured numbers are journaled as the sim_trials / ulecc_jobs /
 * sim_wall_seconds (median) / sim_wall_min_s / sim_mips fields of the
 * ulecc.bench.v1 record so perf regressions show up in telemetry
 * (tools/check.sh --bench compares a fresh journal line against the
 * committed BENCH_simspeed.json); the timings themselves are
 * host-dependent and are exempt from the byte-identity rule that
 * covers the paper benches.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "par/thread_pool.hh"
#include "workload/asm_kernels.hh"

#include "bench_util.hh"

using namespace ulecc;
using namespace ulecc::bench;

namespace
{

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Timed runs of the kernel: odd, so the median is one of them. */
constexpr int kTrials = 5;

/** Kernel executions per timed run (~0.1 s of simulation). */
constexpr int kReps = 2000;

/** Runs the k=17 operand-scanning multiply kReps times; returns the
 *  wall seconds and adds the retired instructions to @p instructions. */
double
measurePeteOnce(uint64_t &instructions)
{
    Program program = assemble(kernelSource(AsmKernel::MulOs, 17));
    MpUint a = MpUint::powerOfTwo(543).sub(MpUint(12345));
    MpUint b = MpUint::powerOfTwo(541).add(MpUint(99));
    instructions = 0;
    double t0 = now();
    for (int rep = 0; rep < kReps; ++rep) {
        Pete cpu(program);
        for (int i = 0; i < 34; ++i)
            cpu.mem().poke32(0x10000400 + 4 * i, a.limb(i));
        for (int i = 0; i < 17; ++i)
            cpu.mem().poke32(0x10000500 + 4 * i, b.limb(i));
        cpu.run();
        instructions += cpu.stats().instructions;
    }
    return now() - t0;
}

/** Times one full prime-grid sweep. */
double
timeSweep(bool serial, bool clearEvalMemo)
{
    if (clearEvalMemo)
        EvalCache::instance().clear();
    std::vector<SweepPoint> points;
    for (CurveId id : primeCurveIds()) {
        for (MicroArch arch : {MicroArch::Baseline, MicroArch::IsaExt,
                               MicroArch::IsaExtIcache, MicroArch::Monte})
            points.push_back(SweepPoint{arch, id, {}});
    }
    SweepConfig config;
    config.serial = serial;
    double t0 = now();
    SweepRunner runner(config);
    runner.run(points);
    return now() - t0;
}

} // namespace

int
main(int argc, char **argv)
{
    SweepDriver sweep(argc, argv);
    banner("Sim speed", "Pete throughput and sweep wall-clock");

    // Every run retires the same instruction stream, so only the wall
    // clock varies between trials.
    uint64_t instructions = 0;
    std::vector<double> wall;
    for (int i = 0; i < kTrials; ++i)
        wall.push_back(measurePeteOnce(instructions));
    std::sort(wall.begin(), wall.end());
    double median_s = wall[kTrials / 2];
    double min_s = wall.front();
    double mips = instructions / median_s / 1e6;
    Table t({"Pete (MulOs k=17)", "Instructions", "Median s", "Min s",
             "MIPS"});
    t.addRow({"interpreter", std::to_string(instructions),
              fmt(median_s, 3), fmt(min_s, 3), fmt(mips, 1)});
    t.print();

    // In-process serial-vs-parallel numbers would be misleading here:
    // whichever sweep runs first warms the mutex-guarded kernel/trace
    // memos and the rerun is nearly free either way.  What a single
    // process can measure honestly is the cost structure those caches
    // create -- the cross-process story is the fig7 suite wall-clock
    // under ULECC_EVAL_CACHE (docs/PERFORMANCE.md).
    double cold_s = timeSweep(sweep.serial(), true);
    double rerun_s = timeSweep(sweep.serial(), true);
    double memo_s = timeSweep(sweep.serial(), false);
    EvalCache::instance().clear();
    Table s({"Sweep (prime grid, 20 points)", "Wall s", "Speedup"});
    s.addRow({"cold process", fmt(cold_s, 3), "1.00x"});
    s.addRow({"warm kernel/trace memos", fmt(rerun_s, 3),
              fmt(cold_s / rerun_s, 1) + "x"});
    s.addRow({"warm evaluation memo", fmt(memo_s, 3),
              fmt(cold_s / memo_s, 1) + "x"});
    s.print();

    unsigned jobs = sweep.serial() ? 1 : ThreadPool::defaultThreads();
    std::printf("%d timed Pete runs of %d kernels each, MIPS from the "
                "median; sweeps on %u worker thread(s)\n",
                kTrials, kReps, jobs);
    BenchJournal::instance().recordSimSpeed(kTrials, jobs, median_s,
                                            min_s, mips);

    footnote("timings are host-dependent (exempt from byte-identity); "
             "the journal's sim_wall_seconds/sim_mips fields track the "
             "median of the timed Pete runs, sim_wall_min_s the "
             "fastest");
    return 0;
}
