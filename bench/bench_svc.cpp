/**
 * @file
 * Service-engine throughput microbenchmark (not a paper figure).
 *
 * Measures the host-side cost of the crypto-as-a-service engine
 * (src/svc) on its headline serving shape: a same-curve-heavy
 * campaign (one curve, bursty arrivals well above the service rate)
 * with request batching enabled -- production defaults, where the
 * batch former coalesces same-shape requests into shared passes and
 * one co-simulation anchor serves a whole batch.  The journal
 * records
 *
 *   svc_requests_per_sec    completed campaign requests per
 *                           wall-clock second, telemetry off,
 *                           batching on;
 *   svc_telemetry_overhead  telemetry-on / telemetry-off wall-clock
 *                           ratio (1.0 = free);
 *   svc_batch_off_rps       the same campaign with the former
 *                           disabled (every request pays its own
 *                           pass and its own co-sim anchor);
 *   svc_batch_on_rps        == the headline cell, re-stated next to
 *                           its off counterpart;
 *   svc_batch_speedup       on/off wall-clock ratio;
 *   svc_batch_occupancy     mean members per executed batch pass;
 *   svc_trials, ulecc_jobs  the protocol: campaigns per cell and the
 *                           worker threads they ran on ($ULECC_JOBS,
 *                           else the hardware width; 1 for --serial);
 *   svc_wall_median_s,      median and minimum wall time of the
 *   svc_wall_min_s          headline cell.
 *
 * Every cell runs kTrials campaigns and reports their median (the
 * rates above) and minimum wall time: one lucky or unlucky run on a
 * shared host cannot set the number, and the spread shows.
 *
 * tools/check.sh --bench compares a fresh journal line against the
 * committed BENCH_svc.json baseline, so a change that slows the
 * engine, makes observability expensive, or quietly stops batching
 * (occupancy collapse) shows up as a regression.  The timings are
 * host-dependent and exempt from the byte-identity rule; the
 * campaign *outcomes* stay deterministic either way.
 */

#include <algorithm>
#include <chrono>
#include <vector>

#include "par/thread_pool.hh"

#include "svc/service.hh"
#include "svc/telemetry.hh"

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

/**
 * The same-curve-heavy campaign: one curve keeps the shape space
 * small so the former can actually coalesce, bursty arrivals keep the
 * queue deep, and the fidelity tier is pinned to FullSim so every
 * unbatched request pays a fresh per-request co-simulation anchor --
 * the host-side cost batching amortizes to one anchor per pass.
 */
SvcConfig
campaignConfig(bool serial, bool batching)
{
    SvcConfig cfg;
    cfg.seed = 2026;
    cfg.requests = 300;
    cfg.users = 64;
    cfg.chaos.percent = 0;
    cfg.serial = serial;
    cfg.curves = {CurveId::P192};
    cfg.arrivals.kind = ArrivalKind::Bursty;
    cfg.arrivals.ratePerSec = 2000.0;
    // Generous budgets: this cell measures throughput, not shedding.
    cfg.queueCap = 100000;
    cfg.deadlineFactor = 1e6;
    cfg.deadlineFloorNs = 1ull << 60;
    cfg.degrade.memoizedDepth = 100000; // pin FullSim under any depth
    cfg.degrade.analyticDepth = 200000;
    cfg.batch.enabled = batching;
    cfg.batch.maxSize = 16;
    cfg.batch.lingerNs = 8'000'000;
    return cfg;
}

/** Wall-clock of one campaign; telemetry attached when asked; mean
 * members per executed batch pass reported via @p occupancy. */
double
runOnce(bool serial, bool batching, bool telemetry,
        double *occupancy = nullptr)
{
    Server server(campaignConfig(serial, batching));
    RequestTracer tracer;
    TimelineAggregator timeline;
    SloEngine slo;
    FlightRecorder flight;
    if (telemetry) {
        SvcTelemetry tel;
        tel.tracer = &tracer;
        tel.timeline = &timeline;
        tel.slo = &slo;
        tel.flight = &flight;
        server.attachTelemetry(tel);
    }
    double t0 = now();
    server.run();
    double s = now() - t0;
    const SvcCounters &c = server.counters();
    if (occupancy && c.batchPassesExecuted)
        *occupancy = double(c.batchMembersTotal)
            / double(c.batchPassesExecuted);
    return s;
}

/** Campaigns per cell: odd, so the median is one of them. */
constexpr int kTrials = 5;

/** Wall-clock summary of one cell's campaigns. */
struct Timing
{
    double median_s;
    double min_s;
};

/** Median and minimum wall time over kTrials campaigns. */
Timing
measure(bool serial, bool batching, bool telemetry,
        double *occupancy = nullptr)
{
    std::vector<double> s;
    for (int i = 0; i < kTrials; ++i)
        s.push_back(runOnce(serial, batching, telemetry, occupancy));
    std::sort(s.begin(), s.end());
    return {s[kTrials / 2], s.front()};
}

} // namespace

int
main(int argc, char **argv)
{
    SweepDriver sweep(argc, argv); // uniform CLI; drives nothing here
    banner("Svc speed",
           "service-engine throughput, batching, telemetry overhead");

    // One untimed campaign first: it warms the process-wide
    // evaluation memo (and the kernel/trace memos underneath), so the
    // measured runs compare engine cost, not first-touch cache fills.
    runOnce(sweep.serial(), true, false);

    const SvcConfig cfg = campaignConfig(sweep.serial(), true);
    double occOff = 1.0, occOn = 1.0;
    Timing batchOff = measure(sweep.serial(), false, false, &occOff);
    Timing batchOn = measure(sweep.serial(), true, false, &occOn);
    Timing tel = measure(sweep.serial(), true, true);
    double offRps = double(cfg.requests) / batchOff.median_s;
    double onRps = double(cfg.requests) / batchOn.median_s;
    double overhead = tel.median_s / batchOn.median_s;

    Table t({"Configuration", "Median s", "Min s", "Requests/s",
             "Occupancy"});
    auto row = [&](const char *name, Timing w, double occ) {
        t.addRow({name, fmt(w.median_s, 3), fmt(w.min_s, 3),
                  fmt(double(cfg.requests) / w.median_s, 0),
                  fmt(occ, 2)});
    };
    row("batching off", batchOff, occOff);
    row("batching max 16, linger 8ms", batchOn, occOn);
    row("  + tracer+timeline+slo+flight", tel, occOn);
    t.print();

    unsigned jobs = sweep.serial() ? 1 : ThreadPool::defaultThreads();
    std::printf("%d campaigns per cell on %u worker thread(s); "
                "requests/s from the median\n", kTrials, jobs);

    BenchJournal::instance().recordSvcSpeed(onRps, overhead);
    BenchJournal::instance().recordSvcBatch(offRps, onRps,
                                            batchOff.median_s
                                                / batchOn.median_s,
                                            occOn);
    BenchJournal::instance().recordSvcTrials(kTrials, jobs,
                                             batchOn.median_s,
                                             batchOn.min_s);

    footnote("timings are host-dependent (exempt from byte-identity); "
             "the journal's svc_requests_per_sec field tracks the "
             "batching-on telemetry-off campaign, "
             "svc_telemetry_overhead the all-consumers-attached "
             "wall-clock ratio, and the svc_batch_* fields the "
             "batching on/off cell of the same grid");
    return 0;
}
