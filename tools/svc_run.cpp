/**
 * @file
 * svc-run: the crypto-as-a-service robustness campaign driver.
 *
 * Usage:
 *   svc_run [--seed N] [--requests N] [--users N] [--workers N]
 *           [--jobs N] [--serial] [--pool steal|fifo] [--queue-cap N]
 *           [--arrival poisson|bursty|closed-loop] [--rate R]
 *           [--clients N] [--think-ms MS] [--diurnal] [--day-ms MS]
 *           [--diurnal-amp A] [--diurnal-steps N] [--chaos PCT]
 *           [--deadline-factor F] [--deadline-floor-ms MS]
 *           [--retries N] [--no-batch] [--batch-max N]
 *           [--batch-linger-us US] [--batch-slack S]
 *           [--batch-setup F] [--no-warm] [--json PATH] [--quiet]
 *           [--trace-requests PATH] [--timeline PATH]
 *           [--window-ms MS] [--slo PATH] [--flight-recorder PATH]
 *
 * Drives a synthetic sign/verify/ECDH request population through the
 * service engine (src/svc) and prints the robustness summary: shed,
 * expired, retried, degraded and chaos-struck request counts, latency
 * percentiles in virtual time, and energy per request.  The JSON
 * report ("ulecc.svc.v1") is timing-free and byte-identical for the
 * same seed across runs and across --serial/parallel execution --
 * the determinism tests pin exactly that.
 *
 * Telemetry artifacts (svc/telemetry.hh), all deterministic in the
 * same sense as the report:
 *   --trace-requests   Chrome-trace request lifecycle spans
 *   --timeline         ulecc.svc.timeline.v1 JSONL time-series
 *   --window-ms        timeline window width (virtual ms, default 50)
 *   --slo              ulecc.svc.slo.v1 burn-rate alert log + verdict
 *   --flight-recorder  ulecc.svc.flight.v1 last-N request ring dump
 *
 * Numeric option values are parsed strictly: the whole argument must
 * be one number inside the option's range (no NaN, infinity, sign on
 * a count, or trailing junk), else svc_run names the option on stderr
 * and exits 2 instead of running a campaign the engine would silently
 * clamp.
 *
 * Exit codes: 0 success; 1 a robustness invariant failed (a request
 * was lost, a wrong answer escaped, an unstructured exception was
 * caught, or --slo found a budget breach with no alert fired); 2
 * usage or I/O error.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>

#include "arg_parse.hh"
#include "core/report.hh"
#include "obs/metrics.hh"
#include "par/thread_pool.hh"
#include "svc/service.hh"
#include "svc/telemetry.hh"

using namespace ulecc;

namespace
{

void
usage()
{
    std::fprintf(
        stderr,
        "usage: svc_run [--seed N] [--requests N] [--users N]\n"
        "               [--workers N] [--jobs N] [--serial]\n"
        "               [--pool steal|fifo] [--queue-cap N]\n"
        "               [--arrival poisson|bursty|closed-loop]\n"
        "               [--rate R] [--clients N] [--think-ms MS]\n"
        "               [--diurnal] [--day-ms MS] [--diurnal-amp A]\n"
        "               [--diurnal-steps N] [--chaos PCT]\n"
        "               [--deadline-factor F] [--deadline-floor-ms MS]\n"
        "               [--retries N] [--no-batch] [--batch-max N]\n"
        "               [--batch-linger-us US] [--batch-slack S]\n"
        "               [--batch-setup F] [--no-warm] [--json PATH]\n"
        "               [--quiet] [--trace-requests PATH]\n"
        "               [--timeline PATH] [--window-ms MS]\n"
        "               [--slo PATH] [--flight-recorder PATH]\n");
}

} // namespace

int
main(int argc, char **argv)
{
    SvcConfig cfg;
    std::string jsonPath;
    std::string tracePath;
    std::string timelinePath;
    std::string sloPath;
    std::string flightPath;
    uint64_t windowMs = 50;
    bool quiet = false;
    constexpr uint64_t kU64Max = std::numeric_limits<uint64_t>::max();
    constexpr double kMaxMs = 1e12; // ms values become uint64_t ns
    for (int i = 1; i < argc; ++i) {
        auto badValue = [&](const std::string &want) {
            tools::reportBadValue("svc_run", argv[i - 1], argv[i], want);
            return false;
        };
        // Each reads the value argv[++i] into out, or reports it.
        auto count = [&](uint64_t lo, uint64_t hi, auto &out) {
            std::optional<uint64_t> v =
                tools::parseUnsigned(argv[++i], lo, hi);
            if (!v)
                return badValue(tools::integerRange(lo, hi));
            out = static_cast<std::remove_reference_t<decltype(out)>>(*v);
            return true;
        };
        auto real = [&](tools::RealRange r, double scale, auto &out) {
            std::optional<double> v = tools::parseReal(argv[++i], r);
            if (!v) {
                char want[96];
                std::snprintf(want, sizeof want, "a number in %c%g, %g%c",
                              r.openLo ? '(' : '[', r.lo, r.hi,
                              r.openHi ? ')' : ']');
                return badValue(want);
            }
            out = static_cast<std::remove_reference_t<decltype(out)>>(
                *v * scale);
            return true;
        };
        bool ok = true;
        if (!std::strcmp(argv[i], "--seed") && i + 1 < argc) {
            ok = count(0, kU64Max, cfg.seed);
        } else if (!std::strcmp(argv[i], "--requests") && i + 1 < argc) {
            ok = count(1, 100'000'000, cfg.requests);
        } else if (!std::strcmp(argv[i], "--users") && i + 1 < argc) {
            ok = count(1, 1'000'000'000, cfg.users);
        } else if (!std::strcmp(argv[i], "--workers") && i + 1 < argc) {
            ok = count(1, 4096, cfg.virtualWorkers);
        } else if (!std::strcmp(argv[i], "--jobs") && i + 1 < argc) {
            ok = count(0, ThreadPool::maxThreads, cfg.jobs);
        } else if (!std::strcmp(argv[i], "--serial")) {
            cfg.serial = true;
        } else if (!std::strcmp(argv[i], "--pool") && i + 1 < argc) {
            const char *mode = argv[++i];
            if (!std::strcmp(mode, "steal")) {
                cfg.poolMode = PoolMode::Steal;
            } else if (!std::strcmp(mode, "fifo")) {
                cfg.poolMode = PoolMode::Fifo;
            } else {
                usage();
                return 2;
            }
        } else if (!std::strcmp(argv[i], "--queue-cap") && i + 1 < argc) {
            ok = count(0, 1'000'000'000, cfg.queueCap);
        } else if (!std::strcmp(argv[i], "--arrival") && i + 1 < argc) {
            const char *kind = argv[++i];
            if (!std::strcmp(kind, "poisson")) {
                cfg.arrivals.kind = ArrivalKind::Poisson;
            } else if (!std::strcmp(kind, "bursty")) {
                cfg.arrivals.kind = ArrivalKind::Bursty;
            } else if (!std::strcmp(kind, "closed-loop")) {
                cfg.arrivals.kind = ArrivalKind::ClosedLoop;
            } else {
                usage();
                return 2;
            }
        } else if (!std::strcmp(argv[i], "--rate") && i + 1 < argc) {
            ok = real({0, 1e9, true}, 1, cfg.arrivals.ratePerSec);
        } else if (!std::strcmp(argv[i], "--clients") && i + 1 < argc) {
            ok = count(1, 1'000'000, cfg.arrivals.clients);
        } else if (!std::strcmp(argv[i], "--think-ms") && i + 1 < argc) {
            ok = real({0, kMaxMs}, 1e6, cfg.arrivals.thinkNs);
        } else if (!std::strcmp(argv[i], "--diurnal")) {
            cfg.arrivals.diurnal = true;
        } else if (!std::strcmp(argv[i], "--day-ms") && i + 1 < argc) {
            ok = real({0, kMaxMs, true}, 1e6, cfg.arrivals.dayNs);
        } else if (!std::strcmp(argv[i], "--diurnal-amp")
                   && i + 1 < argc) {
            // The rate swings 1 +- amp; the engine caps amp at 0.95.
            ok = real({0, 0.95}, 1, cfg.arrivals.diurnalAmp);
        } else if (!std::strcmp(argv[i], "--diurnal-steps")
                   && i + 1 < argc) {
            ok = count(1, 1'000'000, cfg.arrivals.diurnalSteps);
        } else if (!std::strcmp(argv[i], "--no-batch")) {
            cfg.batch.enabled = false;
        } else if (!std::strcmp(argv[i], "--batch-max") && i + 1 < argc) {
            ok = count(1, 1'000'000, cfg.batch.maxSize);
        } else if (!std::strcmp(argv[i], "--batch-linger-us")
                   && i + 1 < argc) {
            ok = real({0, kMaxMs * 1e3}, 1e3, cfg.batch.lingerNs);
        } else if (!std::strcmp(argv[i], "--batch-slack")
                   && i + 1 < argc) {
            ok = real({0, 1e6}, 1, cfg.batch.deadlineSlack);
        } else if (!std::strcmp(argv[i], "--batch-setup")
                   && i + 1 < argc) {
            ok = real({0, 0.5, false, true}, 1, cfg.batch.setupFraction);
        } else if (!std::strcmp(argv[i], "--chaos") && i + 1 < argc) {
            ok = count(0, 100, cfg.chaos.percent);
        } else if (!std::strcmp(argv[i], "--deadline-factor")
                   && i + 1 < argc) {
            ok = real({0, 1e6, true}, 1, cfg.deadlineFactor);
        } else if (!std::strcmp(argv[i], "--deadline-floor-ms")
                   && i + 1 < argc) {
            ok = real({0, kMaxMs}, 1e6, cfg.deadlineFloorNs);
        } else if (!std::strcmp(argv[i], "--retries") && i + 1 < argc) {
            ok = count(1, 1000, cfg.backoff.maxAttempts);
        } else if (!std::strcmp(argv[i], "--no-warm")) {
            cfg.warmEvalCache = false;
        } else if (!std::strcmp(argv[i], "--json") && i + 1 < argc) {
            jsonPath = argv[++i];
        } else if (!std::strcmp(argv[i], "--trace-requests")
                   && i + 1 < argc) {
            tracePath = argv[++i];
        } else if (!std::strcmp(argv[i], "--timeline") && i + 1 < argc) {
            timelinePath = argv[++i];
        } else if (!std::strcmp(argv[i], "--window-ms") && i + 1 < argc) {
            ok = count(1, 1'000'000'000, windowMs);
        } else if (!std::strcmp(argv[i], "--slo") && i + 1 < argc) {
            sloPath = argv[++i];
        } else if (!std::strcmp(argv[i], "--flight-recorder")
                   && i + 1 < argc) {
            flightPath = argv[++i];
        } else if (!std::strcmp(argv[i], "--quiet")) {
            quiet = true;
        } else {
            usage();
            return 2;
        }
        if (!ok)
            return 2;
    }

    BenchJournal::instance().begin(
        "svc_run", "crypto-as-a-service robustness campaign");

    Server server(cfg);

    // Telemetry consumers live here (the engine borrows, not owns);
    // each is instantiated only when its artifact was requested.
    std::optional<RequestTracer> tracer;
    std::optional<TimelineAggregator> timeline;
    std::optional<SloEngine> slo;
    std::optional<FlightRecorder> flight;
    SvcTelemetry tel;
    if (!tracePath.empty())
        tel.tracer = &tracer.emplace();
    if (!timelinePath.empty()) {
        TimelineAggregator::Config tc;
        tc.windowNs = windowMs * 1'000'000;
        tel.timeline = &timeline.emplace(tc);
    }
    if (!sloPath.empty())
        tel.slo = &slo.emplace();
    if (!flightPath.empty())
        tel.flight = &flight.emplace();
    server.attachTelemetry(tel);

    server.run();
    const SvcCounters &c = server.counters();

    auto writeArtifact = [](bool ok, const std::string &path) {
        if (!ok)
            std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return ok;
    };
    if (tracer && !writeArtifact(tracer->writeFile(tracePath), tracePath))
        return 2;
    if (timeline
        && !writeArtifact(timeline->writeFile(timelinePath), timelinePath))
        return 2;
    if (slo && !writeArtifact(slo->writeFile(sloPath), sloPath))
        return 2;
    if (flight && !writeArtifact(flight->writeFile(flightPath), flightPath))
        return 2;

    if (!quiet)
        std::fputs(server.reportText().c_str(), stdout);

    if (!jsonPath.empty()) {
        Json doc = server.report();
        MetricsRegistry reg("ulecc.svc.v1");
        for (const JsonMember &m : doc.members()) {
            if (m.key != "schema")
                reg.set(m.key, m.value);
        }
        if (!reg.writeFile(jsonPath)) {
            std::fprintf(stderr, "cannot write %s\n", jsonPath.c_str());
            return 2;
        }
    }

    // The soak invariant: every generated request reaches exactly one
    // final state -- a correct result or a structured error.  Anything
    // else (a lost request, a wrong answer marked ok, an exception
    // outside the Errc taxonomy) is a robustness failure.
    uint64_t finals = c.completedOk + c.failed;
    bool lost = finals != c.generated;
    bool corrupt = c.wrongAnswers != 0 || c.unstructuredExceptions != 0;
    if (lost || corrupt) {
        std::fprintf(stderr,
                     "svc_run: ROBUSTNESS FAILURE: finals %llu / %llu, "
                     "wrong answers %llu, unstructured %llu\n",
                     (unsigned long long)finals,
                     (unsigned long long)c.generated,
                     (unsigned long long)c.wrongAnswers,
                     (unsigned long long)c.unstructuredExceptions);
        return 1;
    }

    // Alerting completeness: a campaign that breaches its error
    // budget must have fired at least one alert along the way --
    // silent SLO breaches are an observability failure.
    if (slo && slo->breached() && slo->alertsFired() == 0) {
        std::fprintf(stderr,
                     "svc_run: SLO COMPLETENESS FAILURE: error ratio "
                     "breached the budget with no alert fired\n");
        return 1;
    }

    BenchJournal::instance().note(
        "svc: " + std::to_string(c.generated) + " requests, "
        + std::to_string(c.completedOk) + " ok, "
        + std::to_string(c.failed) + " structured failures, "
        + std::to_string(c.chaosStrikes) + " chaos strikes");
    BenchJournal::instance().flush();
    return 0;
}
