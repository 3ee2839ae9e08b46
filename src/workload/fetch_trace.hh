/**
 * @file
 * Structural instruction-fetch trace replay for the I-cache study
 * (paper Sections 5.3 and 7.5).
 *
 * The cache experiments need a realistic whole-program fetch stream:
 * tight kernel loops that hit, interleaved with transitions between
 * the point-arithmetic routines, the scalar-multiplication driver,
 * the protocol code and the hash -- a working set of roughly 4 KB
 * (the paper finds the energy-optimal cache is exactly that size).
 *
 * This module lays the software suite out as a static code map (region
 * sizes taken from the assembled kernels and typical -O2 code), then
 * replays the recorded ECDSA field-operation sequence as a program
 * counter stream through the real ICache model.  Straight-line code
 * goes through ICache::accessRun and loops through ICache::accessLoop,
 * which charge a loop's hitting re-iterations in one step; every
 * statistic equals the word-by-word walk's.
 */

#ifndef ULECC_WORKLOAD_FETCH_TRACE_HH
#define ULECC_WORKLOAD_FETCH_TRACE_HH

#include "sim/icache.hh"
#include "workload/kernel_model.hh"
#include "workload/op_trace.hh"

namespace ulecc
{

/** Outcome of replaying one sign+verify fetch stream. */
struct FetchReplayResult
{
    ICacheStats stats;
    uint64_t fetches = 0;

    double
    missRate() const
    {
        return stats.accesses
            ? double(stats.misses - stats.prefetchHits)
                / double(stats.accesses)
            : 0.0;
    }

    /** Misses that actually stall (stream-buffer hits don't). */
    uint64_t
    stallingMisses() const
    {
        return stats.misses - stats.prefetchHits;
    }
};

/**
 * Replays the ECDSA sign+verify fetch stream of (curve, arch) through
 * a cache with configuration @p config.  Deterministic; results are
 * memoized by the callers that need them repeatedly.
 */
FetchReplayResult replayFetchTrace(CurveId curve, MicroArch arch,
                                   const ICacheConfig &config);

} // namespace ulecc

#endif // ULECC_WORKLOAD_FETCH_TRACE_HH
