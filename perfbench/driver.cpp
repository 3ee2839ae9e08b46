/**
 * @file
 * perfbench_driver: one benchmark process of the repository benchmark.
 *
 * Usage:
 *   perfbench_driver --workload paper_grid|svc_mixed|fuzz --seed N
 *                    [--jobs N] [--trace] [--small] [--no-telemetry]
 *                    [--setup-only] [--root DIR]
 *
 * Runs one workload once in this (fresh) process and prints one JSON
 * line on stdout: the set-up and timed-phase host times, peak RSS,
 * attempted/failed operation counts, an output digest and the
 * simulated results.  With --trace the run executes serially with a
 * HostLedger installed on the SpanSink/OpObserver seams and also
 * prints the per-layer self times and the unit-cost probes.
 *
 * perfbench/run.py spawns this binary, checks the digests against the
 * goldens in perfbench/golden/, and aggregates medians.
 */

#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "base/prng.hh"
#include "check/diffuzz.hh"
#include "core/eval_cache.hh"
#include "core/evaluator.hh"
#include "core/hexfloat.hh"
#include "core/json.hh"
#include "ec/curve.hh"
#include "ecdsa/sha256.hh"
#include "par/sweep.hh"
#include "svc/service.hh"
#include "svc/telemetry.hh"
#include "workload/asm_kernels.hh"
#include "workload/fetch_trace.hh"
#include "workload/op_trace.hh"

#include "ledger.hh"

using namespace ulecc;
using perfbench::HostLedger;
using perfbench::LayerScope;
using perfbench::nowNs;

namespace
{

#if !defined(NDEBUG)
constexpr const char *kRefusal = "assertions are enabled (Debug build)";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr const char *kRefusal = "built with a sanitizer";
#else
constexpr const char *kRefusal = nullptr;
#endif

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

/** svc_mixed campaigns map --seed onto this many golden campaign seeds. */
constexpr uint64_t kSvcGoldenSeeds = 32;
constexpr uint64_t kSvcRequests = 1600;
constexpr uint64_t kSvcRequestsSmall = 150;
constexpr uint64_t kFuzzCases = 3500;
constexpr uint64_t kFuzzCasesSmall = 150;

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    unsigned jobs = 1;
    bool trace = false;
    bool small = false;
    bool telemetry = true;
    bool setupOnly = false; ///< exit when the timed phase would begin
    std::string root = ".";
};

double
seconds(uint64_t ns)
{
    return static_cast<double>(ns) * 1e-9;
}

/**
 * Peak resident set of this process image, from VmHWM.  (getrusage's
 * ru_maxrss survives exec, so it would report the launcher's peak.)
 */
double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0;
}

std::string
sha256Hex(const std::string &s)
{
    Sha256Digest d = sha256(s);
    static const char *kHex = "0123456789abcdef";
    std::string out;
    for (uint8_t b : d) {
        out += kHex[b >> 4];
        out += kHex[b & 15];
    }
    return out;
}

/** What one workload run hands back to main(). */
struct RunOutput
{
    uint64_t setupEndNs = 0; ///< steady clock when the timed phase began
    uint64_t wallNs = 0;     ///< timed phase
    uint64_t ops = 0;        ///< operations the timed phase performed
    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t ok = 0;
    std::string digest;
    Json sim = Json::object();
    Json counts = Json::object();
    Json traceExtra = Json::object();
};

// --- paper_grid ---------------------------------------------------------

const MicroArch kPrimeArchs[] = {MicroArch::Baseline, MicroArch::IsaExt,
                                 MicroArch::IsaExtIcache, MicroArch::Monte};
const MicroArch kBinaryArchs[] = {MicroArch::Baseline, MicroArch::IsaExt,
                                  MicroArch::IsaExtIcache,
                                  MicroArch::Billie};

/**
 * The union of the design points the paper-suite benches register
 * (fig7_*, table7_*, sec7_*, future_work, related_work, multspace),
 * deduplicated by evaluation key, in registration order.  --small keeps
 * the P-192 and B-163 points only.
 */
std::vector<SweepPoint>
paperPoints(bool small)
{
    std::vector<SweepPoint> points;
    std::set<std::string> seen;
    auto add = [&](MicroArch arch, CurveId curve, const EvalOptions &opt) {
        if (small && curve != CurveId::P192 && curve != CurveId::B163)
            return;
        if (seen.insert(evalPointKey(arch, curve, opt)).second)
            points.push_back(SweepPoint{arch, curve, opt});
    };
    const EvalOptions def;

    // The 40 default (arch, curve) cells.
    for (CurveId c : primeCurveIds()) {
        for (MicroArch a : kPrimeArchs)
            add(a, c, def);
    }
    for (CurveId c : binaryCurveIds()) {
        for (MicroArch a : kBinaryArchs)
            add(a, c, def);
    }

    // Ideal-I$ cells (Fig 7.11).
    EvalOptions ideal;
    ideal.idealIcache = true;
    for (CurveId c : {CurveId::P192, CurveId::P256, CurveId::P384}) {
        for (MicroArch a : {MicroArch::Baseline, MicroArch::IsaExt,
                            MicroArch::Monte})
            add(a, c, ideal);
    }

    // I$ size x prefetch sweep (Fig 7.12).
    for (uint32_t kb : {1u, 2u, 4u, 8u}) {
        for (bool prefetch : {false, true}) {
            EvalOptions opt;
            opt.kernel.icacheBytes = kb * 1024;
            opt.kernel.icachePrefetch = prefetch;
            add(MicroArch::IsaExtIcache, CurveId::P192, opt);
        }
    }

    // Monte double-buffer off (Sec 7.7; "on" is the default cell).
    EvalOptions dbOff;
    dbOff.kernel.monteDoubleBuffer = false;
    for (CurveId c : primeCurveIds())
        add(MicroArch::Monte, c, dbOff);

    // The four multiplier variants (multspace).
    for (MultiplierVariant v :
         {MultiplierVariant::Karatsuba, MultiplierVariant::Schoolbook,
          MultiplierVariant::Karatsuba2, MultiplierVariant::ClmulWide}) {
        EvalOptions opt;
        opt.kernel.multiplier = v;
        for (CurveId c : {CurveId::P192, CurveId::P256, CurveId::P384}) {
            for (MicroArch a : kPrimeArchs)
                add(a, c, opt);
        }
        for (CurveId c : {CurveId::B163, CurveId::B283}) {
            for (MicroArch a : kBinaryArchs)
                add(a, c, opt);
        }
    }

    // Future-work power options: accelerator gating and flash ROM.
    EvalOptions gated;
    gated.power.accelGatingFactor = 0.08;
    EvalOptions flash;
    flash.power.romReadScale = 2.6;
    flash.power.romLeakMw = 0.05;
    const std::pair<MicroArch, CurveId> gatingPts[] = {
        {MicroArch::Billie, CurveId::B163},
        {MicroArch::Billie, CurveId::B283},
        {MicroArch::Billie, CurveId::B571},
        {MicroArch::Monte, CurveId::P192},
        {MicroArch::Monte, CurveId::P521}};
    for (const auto &[a, c] : gatingPts)
        add(a, c, gated);
    for (MicroArch a : kPrimeArchs)
        add(a, CurveId::P192, flash);
    return points;
}

/** The submission order: a seeded permutation of the point list. */
std::vector<size_t>
shuffledOrder(size_t n, uint64_t seed)
{
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i)
        order[i] = i;
    SplitMix64 rng(splitmix64Mix(seed, 0x9A9E46D1ull));
    for (size_t i = n; i > 1; --i)
        std::swap(order[i - 1], order[rng.below(i)]);
    return order;
}

void
appendOperation(std::string &out, const OperationEval &op)
{
    const EventCounts &e = op.events;
    const EnergyBreakdown &en = op.energy;
    for (uint64_t v :
         {op.cycles, e.cycles, e.instructions, e.multActiveCycles,
          e.romNarrowReads, e.romWideReads, e.ramReads, e.ramWrites,
          e.icAccesses, e.icFills, e.monteFfauCycles, e.monteDmaCycles,
          e.monteBufAccesses, e.billieActiveCycles,
          static_cast<uint64_t>(e.icacheBytes),
          static_cast<uint64_t>(e.billieBits),
          static_cast<uint64_t>(e.hasIcache),
          static_cast<uint64_t>(e.idealIcache),
          static_cast<uint64_t>(e.hasMonte),
          static_cast<uint64_t>(e.hasBillie)})
        out += std::to_string(v) + ",";
    for (double v : {en.peteUj, en.ramUj, en.romUj, en.uncoreUj,
                     en.monteUj, en.billieUj, en.staticUj})
        out += hexDouble(v) + ",";
}

/** Digest of every result (cycles, events, energy) in point order. */
std::string
gridDigest(const std::vector<SweepPoint> &points,
           const std::vector<Result<EvalResult>> &results)
{
    std::string text;
    for (size_t i = 0; i < points.size(); ++i) {
        const SweepPoint &p = points[i];
        text += evalPointKey(p.arch, p.curve, p.options) + "|";
        if (!results[i].ok()) {
            text += std::string("error:") + errcName(results[i].error().code)
                + "\n";
            continue;
        }
        const EvalResult &r = results[i].value();
        appendOperation(text, r.sign);
        appendOperation(text, r.verify);
        text += hexDouble(r.avgPowerMw) + "," + hexDouble(r.staticPowerMw)
            + "\n";
    }
    return sha256Hex(text);
}

/**
 * Mean |ours/paper - 1| x 100 over the 60 sign/verify latency cells of
 * Tables 7.1 and 7.2 (paper values as in bench_table7_1/7_2.cpp), over
 * the cells present in @p points.  Returns {error, cells}.
 */
std::pair<double, int>
paperError(const std::vector<SweepPoint> &points,
           const std::vector<Result<EvalResult>> &results)
{
    static const double kPrime[3][5][2] = {
        {{26.9, 34.27}, {37.2, 47.9}, {57.2, 72.8}, {133.6, 174.9},
         {297.2, 304.8}},
        {{20.5, 25.6}, {27.5, 34.6}, {42.7, 53.7}, {90.9, 114.6},
         {184.0, 230.5}},
        {{6.0, 7.5}, {8.3, 10.3}, {10.9, 13.4}, {28.2, 34.9},
         {64.5, 78.2}},
    };
    static const double kBinary[3][5][2] = {
        {{58.8, 80.3}, {122.3, 166.3}, {182.0, 248.7}, {414.4, 611.0},
         {1034.9, 1420.2}},
        {{9.7, 12.5}, {18.3, 23.5}, {24.4, 27.4}, {55.0, 76.6},
         {136.2, 180.0}},
        {{1.9, 2.3}, {3.4, 4.0}, {4.6, 5.4}, {9.0, 10.6},
         {16.7, 19.7}},
    };
    const MicroArch primeArchs[3] = {MicroArch::Baseline, MicroArch::IsaExt,
                                     MicroArch::Monte};
    const MicroArch binaryArchs[3] = {MicroArch::Baseline,
                                      MicroArch::IsaExt, MicroArch::Billie};
    auto find = [&](MicroArch a, CurveId c) -> const EvalResult * {
        const std::string key = evalPointKey(a, c, EvalOptions{});
        for (size_t i = 0; i < points.size(); ++i) {
            const SweepPoint &p = points[i];
            if (results[i].ok()
                && evalPointKey(p.arch, p.curve, p.options) == key)
                return &results[i].value();
        }
        return nullptr;
    };
    double sum = 0;
    int cells = 0;
    auto table = [&](const MicroArch *archs, const std::vector<CurveId> &ids,
                     const double (*paper)[5][2]) {
        for (int a = 0; a < 3; ++a) {
            for (size_t k = 0; k < ids.size(); ++k) {
                const EvalResult *r = find(archs[a], ids[k]);
                if (!r)
                    continue;
                sum += std::fabs(r->sign.cycles / 1e5 / paper[a][k][0] - 1);
                sum += std::fabs(r->verify.cycles / 1e5 / paper[a][k][1]
                                 - 1);
                cells += 2;
            }
        }
    };
    table(primeArchs, primeCurveIds(), kPrime);
    table(binaryArchs, binaryCurveIds(), kBinary);
    return {cells ? 100.0 * sum / cells : 0.0, cells};
}

/** Per-process bookkeeping of the traced, from-outside evaluation. */
struct TracedEvalState
{
    std::set<CurveId> curves;
    std::set<CurveId> traces;
    std::set<std::tuple<CurveId, uint32_t, bool>> replays;
    uint64_t traceOps = 0;
    uint64_t fetches = 0;
};

/**
 * evaluateChecked() with each layer it reaches timed from outside:
 * the first standardCurve and ecdsaTrace per curve, the KernelModel
 * construction (runs the Pete kernels on first use), and the fetch
 * replay of each distinct real-I$ configuration.  That replay happens
 * inside evaluate(), so the benchmark repeats it from outside right
 * after: the repeat is charged to trace.probe, and its time (at most
 * the evaluate() time) is moved from core.evaluate_self to
 * workload.fetch_trace.
 */
Result<EvalResult>
tracedEvaluate(HostLedger &ledger, TracedEvalState &st, const SweepPoint &p)
{
    if (st.curves.insert(p.curve).second) {
        LayerScope s(&ledger, "ec.curve_build");
        standardCurve(p.curve);
    }
    if (st.traces.insert(p.curve).second) {
        const EcdsaTrace *t = nullptr;
        {
            LayerScope s(&ledger, "workload.op_trace");
            t = &ecdsaTrace(p.curve);
        }
        st.traceOps += t->sign.total() + t->verify.total();
    }
    try {
        LayerScope s(&ledger, "workload.kernel_model");
        KernelModel model(p.arch, p.curve, p.options.kernel);
    } catch (const std::exception &) {
        // evaluateChecked below reports the structured error.
    }
    ledger.begin("core.evaluate_self");
    Result<EvalResult> r = evaluateChecked(p.arch, p.curve, p.options);
    uint64_t evalNs = ledger.end();
    if (p.arch == MicroArch::IsaExtIcache && !p.options.idealIcache
        && st.replays
               .insert({p.curve, p.options.kernel.icacheBytes,
                        p.options.kernel.icachePrefetch})
               .second) {
        ICacheConfig cfg;
        cfg.sizeBytes = p.options.kernel.icacheBytes;
        cfg.prefetch = p.options.kernel.icachePrefetch;
        ledger.begin("trace.probe");
        FetchReplayResult rep = replayFetchTrace(p.curve, p.arch, cfg);
        uint64_t probeNs = ledger.end();
        st.fetches += rep.fetches;
        ledger.transfer("core.evaluate_self", "workload.fetch_trace",
                        static_cast<int64_t>(std::min(probeNs, evalNs)));
    }
    return r;
}

RunOutput
runPaperGrid(const Args &args, HostLedger *ledger)
{
    RunOutput out;
    std::vector<SweepPoint> points = paperPoints(args.small);
    std::vector<size_t> order = shuffledOrder(points.size(), args.seed);
    std::vector<SweepPoint> submitted;
    for (size_t i : order)
        submitted.push_back(points[i]);
    SweepConfig sc;
    sc.jobs = args.jobs;
    sc.serial = args.jobs == 1;
    SweepRunner runner(sc);

    out.setupEndNs = nowNs();
    if (args.setupOnly)
        return out;
    std::vector<Result<EvalResult>> got;
    TracedEvalState st;
    if (ledger) {
        for (const SweepPoint &p : submitted)
            got.push_back(tracedEvaluate(*ledger, st, p));
    } else {
        got = runner.run(submitted);
    }
    out.wallNs = nowNs() - out.setupEndNs;

    std::vector<Result<EvalResult>> results(points.size(),
                                            Error{Errc::Internal, "unset"});
    for (size_t k = 0; k < order.size(); ++k)
        results[order[k]] = got[k];
    for (const auto &r : results) {
        ++out.attempted;
        if (r.ok())
            ++out.ok;
        else
            ++out.failed;
    }
    out.ops = out.attempted;
    out.digest = gridDigest(points, results);
    auto [err, cells] = paperError(points, results);
    out.sim["paper_err_pct"] = err;
    out.sim["paper_cells"] = cells;
    out.counts["points"] = static_cast<uint64_t>(points.size());
    if (ledger) {
        out.traceExtra["trace_ops"] = st.traceOps;
        out.traceExtra["icache_fetches"] = st.fetches;
    }
    return out;
}

// --- svc_mixed ----------------------------------------------------------

RunOutput
runSvcMixed(const Args &args, HostLedger *ledger)
{
    RunOutput out;
    SvcConfig cfg;
    cfg.seed = 1 + args.seed % kSvcGoldenSeeds;
    cfg.requests = args.small ? kSvcRequestsSmall : kSvcRequests;
    cfg.jobs = args.jobs;
    cfg.serial = args.jobs == 1;
    out.sim["campaign_seed"] = cfg.seed;

    // Warm the evaluation memo for the mix's cells (set-up).
    std::vector<SweepPoint> cells;
    for (CurveId id : cfg.curves) {
        for (MicroArch arch :
             {MicroArch::Baseline, MicroArch::IsaExt,
              MicroArch::IsaExtIcache, MicroArch::Monte, MicroArch::Billie}) {
            if (archSupportsCurve(arch, id))
                cells.push_back(SweepPoint{arch, id, {}});
        }
    }
    TracedEvalState st;
    if (ledger) {
        for (const SweepPoint &p : cells)
            tracedEvaluate(*ledger, st, p);
    } else {
        SweepConfig sc;
        sc.jobs = args.jobs;
        sc.serial = cfg.serial;
        SweepRunner(sc).run(cells);
    }

    std::optional<Server> server;
    RequestTracer tracer;
    TimelineAggregator timeline;
    SloEngine slo;
    FlightRecorder flight;
    {
        LayerScope s(ledger, "svc.coordinator_self");
        server.emplace(cfg);
        if (args.telemetry)
            server->attachTelemetry(
                SvcTelemetry{&tracer, &timeline, &slo, &flight});
    }

    out.setupEndNs = nowNs();
    if (args.setupOnly)
        return out;
    {
        LayerScope s(ledger, "svc.coordinator_self");
        server->run();
    }
    out.wallNs = nowNs() - out.setupEndNs;

    const SvcCounters &c = server->counters();
    Json report = server->report();
    std::string reportText = report.dump();
    std::string artifacts;
    if (args.telemetry) {
        artifacts = tracer.dump() + "\n" + timeline.dumpJsonl() + "\n"
            + slo.dumpJsonl() + "\n" + flight.toJson().dump() + "\n";
    }
    out.digest = sha256Hex(reportText + "\n" + artifacts);
    out.sim["report_digest"] = sha256Hex(reportText);

    // The soak invariant of svc_run: every generated request reaches
    // exactly one final state, no wrong answer escapes, nothing throws
    // outside the Errc taxonomy, and a breached SLO fired an alert.
    uint64_t finals = c.completedOk + c.failed;
    uint64_t lost = finals > c.generated ? finals - c.generated
                                         : c.generated - finals;
    bool sloSilent = args.telemetry && slo.breached()
        && slo.alertsFired() == 0;
    out.attempted = c.generated;
    out.failed = lost + c.wrongAnswers + c.unstructuredExceptions
        + (sloSilent ? 1 : 0);
    out.ok = c.completedOk;
    out.ops = c.executed;

    const Json &lat = *report.find("latency");
    const Json &energy = *report.find("energy");
    uint64_t samples = static_cast<uint64_t>(lat.find("count")->asInt());
    out.sim["sim_p99_ms"] = lat.find("p99_ns")->asDouble() * 1e-6;
    out.sim["sim_uj_per_ok"] = energy.find("uj_per_ok_request")->asDouble();
    out.sim["p99_samples_beyond"] =
        samples - static_cast<uint64_t>(std::ceil(0.99 * samples));

    const Json &batch = *report.find("batch");
    const Json &session = *report.find("session");
    out.counts["executed"] = c.executed;
    out.counts["batch_passes"] = c.batchPassesExecuted;
    out.counts["batch_occupancy"] =
        batch.find("occupancy")->find("mean")->asDouble();
    out.counts["cosim_anchors"] = c.batchCosimAnchors;
    out.counts["session_derivations"] =
        static_cast<uint64_t>(session.find("derivations")->asInt());
    out.counts["session_hits"] =
        static_cast<uint64_t>(session.find("hits")->asInt());
    out.counts["completed_ok"] = c.completedOk;
    out.counts["structured_failures"] = c.failed;
    if (ledger) {
        out.traceExtra["trace_ops"] = st.traceOps;
        out.traceExtra["icache_fetches"] = st.fetches;
    }
    return out;
}

// --- fuzz ---------------------------------------------------------------

const CurveId kFuzzCurves[] = {CurveId::P192, CurveId::P224, CurveId::P256,
                               CurveId::P384, CurveId::P521, CurveId::B163,
                               CurveId::B233, CurveId::B283};
const char *const kFuzzTargets[] = {"mpint", "field", "ecdsa", "pete"};

RunOutput
runFuzz(const Args &args, HostLedger *ledger)
{
    RunOutput out;
    check::RunOptions opts;
    opts.seed = args.seed;
    opts.cases = args.small ? kFuzzCasesSmall : kFuzzCases;

    if (ledger) {
        for (CurveId id : kFuzzCurves) {
            LayerScope s(ledger, "ec.curve_build");
            standardCurve(id);
        }
    }
    std::vector<std::unique_ptr<check::Target>> targets;
    {
        LayerScope s(ledger, "check.setup");
        targets = check::makeTargets(args.root + "/tests/golden");
    }

    out.setupEndNs = nowNs();
    if (args.setupOnly)
        return out;
    check::RunReport report;
    if (ledger) {
        // Each target draws from its own rng (seed ^ fnv1a64(name)), so
        // running them one at a time yields runDiffuzz's report.
        for (auto &target : targets) {
            const std::string bucket = "check." + target->name();
            std::vector<std::unique_ptr<check::Target>> one;
            one.push_back(std::move(target));
            check::RunReport part;
            {
                LayerScope s(ledger, bucket.c_str());
                part = check::runDiffuzz(one, opts);
            }
            report.stats.insert(report.stats.end(), part.stats.begin(),
                                part.stats.end());
            report.failures.insert(report.failures.end(),
                                   part.failures.begin(),
                                   part.failures.end());
        }
    } else {
        report = check::runDiffuzz(targets, opts);
    }
    out.wallNs = nowNs() - out.setupEndNs;

    bool shapeOk = report.stats.size() == std::size(kFuzzTargets);
    for (size_t i = 0; shapeOk && i < report.stats.size(); ++i) {
        const check::TargetStats &s = report.stats[i];
        shapeOk = s.name == kFuzzTargets[i] && s.cases == opts.cases;
        out.counts[s.name + "_cases"] = s.cases;
    }
    for (const check::TargetStats &s : report.stats) {
        out.attempted += s.cases;
        out.failed += s.failures;
    }
    if (!shapeOk)
        out.failed += 1; // an unexpected target set or case count
    out.ok = out.attempted - std::min(out.attempted, out.failed);
    out.ops = out.attempted;
    out.digest = sha256Hex(check::reportToJson(report, opts).dump());
    for (const check::Failure &f : report.failures) {
        std::fprintf(stderr, "fuzz: %s: %s\n",
                     check::formatCase(f.target, f.shrunk).c_str(),
                     f.detail.c_str());
    }
    return out;
}

// --- unit-cost probes (traced runs) -------------------------------------

/**
 * Median ns per call of @p fn over 7 batches, each batch sized to take
 * at least ~2 ms.
 */
double
unitCostNs(const std::function<void(size_t)> &fn)
{
    size_t reps = 1;
    for (;;) {
        uint64_t t0 = nowNs();
        for (size_t i = 0; i < reps; ++i)
            fn(i);
        if (nowNs() - t0 >= 2'000'000 || reps >= (size_t(1) << 24))
            break;
        reps *= 2;
    }
    std::vector<double> per;
    for (int b = 0; b < 7; ++b) {
        uint64_t t0 = nowNs();
        for (size_t i = 0; i < reps; ++i)
            fn(i);
        per.push_back(static_cast<double>(nowNs() - t0)
                      / static_cast<double>(reps));
    }
    std::sort(per.begin(), per.end());
    return per[per.size() / 2];
}

volatile uint32_t g_sink = 0;

std::vector<MpUint>
randomBelow(const MpUint &bound, SplitMix64 &rng, int count)
{
    std::vector<MpUint> v;
    int limbs = (bound.bitLength() + 31) / 32;
    for (int i = 0; i < count; ++i) {
        MpUint x;
        for (int l = 0; l < limbs; ++l)
            x.setLimb(l, static_cast<uint32_t>(rng.next()));
        v.push_back(x.mod(bound));
    }
    return v;
}

/** Operands for timing one field's operations. */
struct FieldOperands
{
    std::vector<MpUint> a, b, wide;

    FieldOperands(const MpUint &bound, uint64_t seed)
    {
        SplitMix64 rng(seed);
        a = randomBelow(bound, rng, 16);
        b = randomBelow(bound, rng, 16);
        for (MpUint &x : a) {
            if (x.isZero())
                x = MpUint(1);
        }
        for (int i = 0; i < 16; ++i)
            wide.push_back(a[i].mul(b[i]));
    }
};

template <class Field>
MpUint
applyOp(const Field &f, FieldOp op, const FieldOperands &x, size_t i)
{
    switch (op) {
      case FieldOp::Add: return f.add(x.a[i], x.b[i]);
      case FieldOp::Sub: return f.sub(x.a[i], x.b[i]);
      case FieldOp::Mul: return f.mul(x.a[i], x.b[i]);
      case FieldOp::Sqr: return f.sqr(x.a[i]);
      case FieldOp::Inv: return f.inv(x.a[i]);
      case FieldOp::Reduce: return f.reduce(x.wide[i]);
    }
    return MpUint();
}

/** Unit cost of @p op on @p f. */
template <class Field>
double
fieldOpNs(const Field &f, const MpUint &bound, FieldOp op, uint64_t seed)
{
    FieldOperands x(bound, seed);
    return unitCostNs([&](size_t i) {
        g_sink = g_sink ^ applyOp(f, op, x, i & 15).limb(0);
    });
}

/** Counts the field-op notifications of one call. */
class OpTally : public OpObserver
{
  public:
    void onFieldOp(FieldOp op, int, bool) override { ++n[int(op)]; }
    std::array<uint64_t, 6> n{};
};

/**
 * Self cost of each operation on @p f: its unit cost less the unit
 * cost of the operations it notifies from inside (an inversion's
 * multiplies, a multiply's reduction), so that count x self cost does
 * not charge nested work twice.  Leaves first.
 */
template <class Field>
std::array<double, 6>
selfCostsNs(const Field &f, const MpUint &bound, uint64_t seed)
{
    const FieldOp order[] = {FieldOp::Add, FieldOp::Sub, FieldOp::Reduce,
                             FieldOp::Mul, FieldOp::Sqr, FieldOp::Inv};
    FieldOperands x(bound, seed);
    std::array<double, 6> self{};
    for (FieldOp op : order) {
        OpTally tally;
        {
            OpObserverScope scope(&tally);
            applyOp(f, op, x, 0);
        }
        double ns = fieldOpNs(f, bound, op, seed);
        for (int o = 0; o < 6; ++o) {
            uint64_t nested = tally.n[o] - (o == int(op) ? 1 : 0);
            ns -= static_cast<double>(nested) * self[o];
        }
        self[int(op)] = std::max(0.0, ns);
    }
    return self;
}

const PrimeField &
primeFieldOf(CurveId id)
{
    return static_cast<const PrimeCurve &>(standardCurve(id)).field();
}

const BinaryField &
binaryFieldOf(CurveId id)
{
    return static_cast<const BinaryCurve &>(standardCurve(id)).field();
}

/**
 * Estimated host seconds of the observed field operations: count x
 * unit cost, with the unit cost measured on the same field (the curve
 * field, or the group-order field for OrderField operations).  Keys
 * with no matching standard field are left out.
 */
double
estimatedFieldSeconds(const HostLedger &ledger, uint64_t seed)
{
    const CurveId all[] = {CurveId::P192, CurveId::P224, CurveId::P256,
                           CurveId::P384, CurveId::P521, CurveId::B163,
                           CurveId::B233, CurveId::B283, CurveId::B409,
                           CurveId::B571};
    // (domain, bits, binary) -> self cost per op.
    std::map<std::tuple<int, int, bool>, std::array<double, 6>> costs;
    auto costsFor = [&](int domain, int bits, bool binary) {
        auto key = std::make_tuple(domain, bits, binary);
        if (auto it = costs.find(key); it != costs.end())
            return it->second;
        std::array<double, 6> c{};
        for (CurveId id : all) {
            const Curve &curve = standardCurve(id);
            if (domain == static_cast<int>(OpDomain::CurveField)) {
                if (curve.fieldBits() != bits || curve.isBinary() != binary)
                    continue;
                c = binary ? selfCostsNs(binaryFieldOf(id),
                                         MpUint::powerOfTwo(bits), seed)
                           : selfCostsNs(primeFieldOf(id),
                                         primeFieldOf(id).modulus(), seed);
            } else {
                if (binary || curve.order().bitLength() != bits)
                    continue;
                c = selfCostsNs(PrimeField(curve.order()), curve.order(),
                                seed);
            }
            break;
        }
        return costs[key] = c;
    };
    double total = 0;
    for (const auto &[key, count] : ledger.fieldOps()) {
        auto [domain, op, bits, binary] = key;
        total += static_cast<double>(count)
            * costsFor(domain, bits, binary)[op] * 1e-9;
    }
    return total;
}

Json
unitProbes(uint64_t seed)
{
    Json p = Json::object();
    const PrimeField &p192 = primeFieldOf(CurveId::P192);
    const PrimeField &p256 = primeFieldOf(CurveId::P256);
    const BinaryField &b163 = binaryFieldOf(CurveId::B163);
    p["mul_ns_p192"] = fieldOpNs(p192, p192.modulus(), FieldOp::Mul, seed);
    p["mul_ns_p256"] = fieldOpNs(p256, p256.modulus(), FieldOp::Mul, seed);
    p["sqr_ns_p256"] = fieldOpNs(p256, p256.modulus(), FieldOp::Sqr, seed);
    p["reduce_ns_p256"] =
        fieldOpNs(p256, p256.modulus(), FieldOp::Reduce, seed);
    p["mul_ns_b163"] =
        fieldOpNs(b163, MpUint::powerOfTwo(163), FieldOp::Mul, seed);

    // The svc co-simulation anchor: one MulOs k=6 kernel on Pete.
    SplitMix64 rng(seed);
    MpUint a, b;
    for (int i = 0; i < 6; ++i) {
        a.setLimb(i, static_cast<uint32_t>(rng.next()));
        b.setLimb(i, static_cast<uint32_t>(rng.next()));
    }
    uint64_t instructions = runKernel(AsmKernel::MulOs, a, b, 6).instructions;
    double anchorNs = unitCostNs([&](size_t) {
        g_sink = g_sink ^ runKernel(AsmKernel::MulOs, a, b, 6).result.limb(0);
    });
    p["anchor_us"] = anchorNs * 1e-3;
    p["pete_mips"] = static_cast<double>(instructions) / (anchorNs * 1e-3);

    // A warm evaluation-memo hit, as each svc dispatch makes one.
    evaluateChecked(MicroArch::Baseline, CurveId::P192);
    p["eval_memo_hit_us"] = 1e-3 * unitCostNs([](size_t) {
        g_sink = g_sink
            ^ static_cast<uint32_t>(
                     evaluateChecked(MicroArch::Baseline, CurveId::P192)
                         .value()
                         .sign.cycles);
    });
    return p;
}

// --- main ---------------------------------------------------------------

bool
parseArgs(int argc, char **argv, Args *args)
{
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        auto num = [&](uint64_t *v) {
            const char *s = next();
            if (!s || !*s)
                return false;
            char *end = nullptr;
            *v = std::strtoull(s, &end, 10);
            return *end == '\0';
        };
        uint64_t v = 0;
        if (a == "--workload" && next()) {
            args->workload = argv[i];
        } else if (a == "--seed") {
            if (!num(&args->seed))
                return false;
        } else if (a == "--jobs") {
            if (!num(&v) || v == 0 || v > 256)
                return false;
            args->jobs = static_cast<unsigned>(v);
        } else if (a == "--root" && next()) {
            args->root = argv[i];
        } else if (a == "--trace") {
            args->trace = true;
        } else if (a == "--small") {
            args->small = true;
        } else if (a == "--no-telemetry") {
            args->telemetry = false;
        } else if (a == "--setup-only") {
            args->setupOnly = true;
        } else {
            return false;
        }
    }
    return args->workload == "paper_grid" || args->workload == "svc_mixed"
        || args->workload == "fuzz";
}

} // namespace

int
main(int argc, char **argv)
{
    uint64_t startNs = nowNs();
    Args args;
    if (!parseArgs(argc, argv, &args)) {
        std::fprintf(stderr,
                     "usage: perfbench_driver --workload "
                     "paper_grid|svc_mixed|fuzz --seed N [--jobs N] "
                     "[--trace] [--small] [--no-telemetry] [--setup-only] "
                     "[--root DIR]\n");
        return 2;
    }
    if (kRefusal) {
        std::fprintf(stderr, "perfbench_driver: refusing to measure: %s\n",
                     kRefusal);
        return 3;
    }
    if (args.trace)
        args.jobs = 1; // the ledger's seams are thread-local

    using RunFn = RunOutput (*)(const Args &, HostLedger *);
    RunFn fn = args.workload == "paper_grid" ? runPaperGrid
             : args.workload == "svc_mixed"  ? runSvcMixed
                                             : runFuzz;
    RunOutput out;
    HostLedger ledger;
    uint64_t tracedNs = 0;
    try {
        if (args.trace) {
            SpanSinkScope sinkScope(&ledger);
            OpObserverScope observerScope(&ledger);
            ledger.begin("other");
            out = fn(args, &ledger);
            tracedNs = ledger.end();
        } else {
            out = fn(args, nullptr);
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_driver: %s: %s\n",
                     args.workload.c_str(), e.what());
        return 1;
    }

    Json doc = Json::object();
    doc["workload"] = args.workload;
    doc["seed"] = args.seed;
    doc["jobs"] = args.jobs;
    doc["small"] = args.small;
    doc["trace"] = args.trace;
    doc["telemetry"] = args.telemetry;
    doc["timed_start_ns"] = out.setupEndNs;
    doc["setup_in_s"] = seconds(out.setupEndNs - startNs);
    doc["wall_s"] = seconds(out.wallNs);
    doc["ops"] = out.ops;
    doc["peak_rss_mb"] = peakRssMb();
    doc["attempted"] = out.attempted;
    doc["failed"] = out.failed;
    doc["ok"] = out.ok;
    doc["digest"] = out.digest;
    doc["sim"] = out.sim;
    doc["counts"] = out.counts;
    Json meta = Json::object();
    meta["build_type"] = PERFBENCH_BUILD_TYPE;
    meta["compiler"] = __VERSION__;
    meta["nproc"] = static_cast<int64_t>(sysconf(_SC_NPROCESSORS_ONLN));
    doc["meta"] = meta;

    if (args.trace) {
        Json probes = unitProbes(args.seed);
        // svc: the co-sim anchors and memo hits inside Server::run are
        // estimated from their unit costs and moved out of the
        // coordinator's self time.
        if (args.workload == "svc_mixed") {
            auto count = [&](const char *k) {
                return static_cast<double>(out.counts.find(k)->asInt());
            };
            ledger.transfer("svc.coordinator_self", "sim.anchor_est",
                            static_cast<int64_t>(
                                count("cosim_anchors")
                                * probes.find("anchor_us")->asDouble()
                                * 1e3));
            ledger.transfer("svc.coordinator_self", "core.eval_memo_est",
                            static_cast<int64_t>(
                                count("batch_passes")
                                * probes.find("eval_memo_hit_us")->asDouble()
                                * 1e3));
        }
        Json tr = Json::object();
        tr["total_s"] = seconds(tracedNs);
        tr["balanced"] = ledger.balanced();
        Json self = Json::object();
        int64_t sum = 0;
        for (const auto &[bucket, ns] : ledger.selfNs()) {
            self[bucket] = static_cast<double>(ns) * 1e-9;
            sum += ns;
        }
        tr["self_s"] = self;
        tr["self_sum_s"] = static_cast<double>(sum) * 1e-9;
        if (args.workload == "fuzz") {
            uint64_t incl = ledger.inclusiveNs("check.ecdsa");
            int64_t oracle = ledger.selfNs().count("check.ecdsa")
                ? ledger.selfNs().at("check.ecdsa")
                : 0;
            tr["check_ecdsa_s"] = seconds(incl);
            tr["check_ecdsa_native_s"] =
                static_cast<double>(static_cast<int64_t>(incl) - oracle)
                * 1e-9;
        }
        uint64_t fieldOps = 0;
        for (const auto &[key, n] : ledger.fieldOps())
            fieldOps += n;
        tr["field_ops"] = fieldOps;
        tr["field_est_s"] = estimatedFieldSeconds(ledger, args.seed);
        for (const JsonMember &m : out.traceExtra.members())
            tr[m.key] = m.value;
        tr["probes"] = probes;
        doc["traced"] = tr;
    }
    std::printf("%s\n", doc.dump().c_str());
    return 0;
}
