#!/usr/bin/env python3
"""The repository benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload paper_grid|svc_mixed|fuzz \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-goldens

Builds perfbench_driver (the ulecc libraries from src/ plus
perfbench/driver.cpp) under $CARGO_TARGET_DIR (default .bench_build),
then runs the workload in fresh driver processes until S seconds have
passed, checks every process's output digest against the goldens in
perfbench/golden/ and prints the metrics.  The last stdout line is one
JSON object {"correct", "attempted", "failed", "metrics"}: with
--trace 0 the end-to-end metrics (medians over the processes), with
--trace 1 the per-layer metrics of a serial traced process next to
untraced reference processes.  perfbench/README.md defines every
workload and metric.

--write-goldens recomputes perfbench/golden/ from the current build;
use it only when a change is meant to alter the outputs.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "golden")
WORKLOADS = ("paper_grid", "svc_mixed", "fuzz")

# One run stops starting processes once the next one would end past this
# many seconds after the build (the run must finish within 180 s).
RUN_LIMIT_S = 150
# setup_s is the median over this many set-ups per run: the timed
# processes' plus set-up-only processes (at most about 0.3 s each).
MIN_SETUPS = 31
# A traced run reconciles when the traced process, less the duplicate
# work it does to time layers from outside (trace.probe), is within
# this share of the untraced serial process of the same round (median
# over the rounds).  The two run back to back, yet on a shared 4-vCPU
# machine serial fuzz processes of one seed a minute apart took 7.3-8.8 s
# and one single-round traced run read 22.9 % (whole runs: 0.5-13 %).
RECONCILE_BOUND_PCT = 25.0
# svc_mixed campaigns must leave this many ok samples beyond the p99.
P99_TAIL_SAMPLES = 10
# Campaign seeds with a committed golden digest (the driver maps
# --seed N to campaign seed 1 + N % 32).
SVC_GOLDEN_SEEDS = 32


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def jobs_for_host():
    return max(1, min(4, os.cpu_count() or 1))


def build():
    """Configures and builds perfbench_driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/ next to perfbench/: run from a full checkout")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    bdir = os.path.join(ROOT, target, "perfbench")
    os.makedirs(bdir, exist_ok=True)
    log = os.path.join(bdir, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "-j", str(os.cpu_count() or 1)])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))
    cache = {}
    with open(os.path.join(bdir, "CMakeCache.txt")) as f:
        for line in f:
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, val = line.rstrip("\n").split("=", 1)
                cache[key.split(":")[0]] = val
    flags = " ".join(v for k, v in cache.items() if k.endswith("_FLAGS"))
    if cache.get("CMAKE_BUILD_TYPE", "") in ("", "Debug") \
            or "-fsanitize" in flags:
        fail("refusing to measure a Debug, untyped or sanitizer build")
    return os.path.join(bdir, "perfbench_driver")


def child_env():
    """The caller's environment without the program's $ULECC_* knobs,
    so a persisted eval cache or a tier switch cannot leak in."""
    return {k: v for k, v in os.environ.items() if not k.startswith("ULECC_")}


def spawn(driver, workload, seed, jobs, trace=False, small=False,
          telemetry=True, setup_only=False, deadline=None):
    """Runs one fresh driver process; returns its JSON record plus
    setup_s, the host time from launch to the start of its timed phase."""
    cmd = [driver, "--workload", workload, "--seed", str(seed),
           "--jobs", str(jobs), "--root", ROOT]
    if trace:
        cmd.append("--trace")
    if small:
        cmd.append("--small")
    if not telemetry:
        cmd.append("--no-telemetry")
    if setup_only:
        cmd.append("--setup-only")
    timeout = None if deadline is None \
        else max(1.0, deadline - time.monotonic())
    t_spawn = time.monotonic_ns()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              env=child_env(), timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": "%s: timed out" % workload}
    if proc.returncode != 0 or not proc.stdout.strip():
        return {"error": "%s: driver exited %d: %s" % (
            workload, proc.returncode, proc.stderr.strip()[-500:])}
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    # Both clocks are CLOCK_MONOTONIC (steady_clock / time.monotonic).
    rec["setup_s"] = (rec["timed_start_ns"] - t_spawn) * 1e-9
    if proc.stderr.strip():
        sys.stderr.write(proc.stderr)
    return rec


def load_goldens():
    goldens = {}
    for workload in ("paper_grid", "svc_mixed"):
        path = os.path.join(GOLDEN, workload + ".txt")
        table = {}
        if os.path.isfile(path):
            with open(path) as f:
                for line in f:
                    parts = line.split()
                    if len(parts) == 2 and not line.startswith("#"):
                        table[parts[0]] = parts[1]
        goldens[workload] = table
    return goldens


def golden_key(rec):
    if rec["workload"] == "svc_mixed":
        return str(rec["sim"]["campaign_seed"])
    return "all"


def check_records(recs, goldens, small):
    """Correctness of the records of one workload; returns a list of
    problems (empty when correct).  Records of the same seed must agree
    whatever their jobs or tracing; full-size records must match their
    golden digest."""
    problems = [rec["error"] for rec in recs if "error" in rec]
    if problems:
        return problems
    first_of_seed = {}
    for rec in recs:
        w = rec["workload"]
        if rec["failed"]:
            problems.append("%s: %d failed operations" % (w, rec["failed"]))
        ref = first_of_seed.setdefault(rec["seed"], rec)
        if rec["digest"] != ref["digest"]:
            problems.append("%s: seed %d: digest differs between processes "
                            "(jobs %d vs %d)" % (w, rec["seed"], ref["jobs"],
                                                 rec["jobs"]))
        if rec["sim"] != ref["sim"] or rec["counts"] != ref["counts"]:
            problems.append("%s: seed %d: simulated results or counts "
                            "differ between processes" % (w, rec["seed"]))
        if small:
            continue
        table = goldens.get(w)
        if table is not None and rec is ref:
            want = table.get(golden_key(rec))
            if want is None:
                problems.append("%s: no golden digest for %s" % (
                    w, golden_key(rec)))
            elif want != rec["digest"]:
                problems.append("%s: seed %d: digest %s != golden %s" % (
                    w, rec["seed"], rec["digest"], want))
        if w == "svc_mixed" \
                and rec["sim"]["p99_samples_beyond"] < P99_TAIL_SAMPLES:
            problems.append("svc_mixed: only %d ok samples beyond the p99"
                            % rec["sim"]["p99_samples_beyond"])
    return problems


def source_digest():
    """sha256 over src/ and perfbench/ sources: identifies the code
    measured when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cc", ".hh", ".cpp", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    """HEAD of the checkout, or "unknown" when the checkout is not
    itself a git work tree (an enclosing repository does not count)."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode == 0 and len(lines) == 2 \
            and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
        return lines[1]
    return "unknown"


def sub_seed(seed, k):
    """Seed of the k-th round of a run: each round draws fresh inputs
    (svc_mixed: campaign seed 1 + sub_seed % 32, whose stride of 3 per
    round keeps the first rounds' campaigns distinct)."""
    return seed + 1_000_003 * k


def run_over(t_begin, t_round, seconds):
    """True when no further round should start: @p seconds have passed,
    or another round as long as the one begun at @p t_round would end
    past RUN_LIMIT_S."""
    now = time.monotonic()
    return now - t_begin >= seconds \
        or 2 * now - t_begin - t_round > RUN_LIMIT_S


def run_processes(roles, seconds, t_begin):
    """Runs rounds k = 0, 1, ... of @p roles (name -> spawn function of
    k) until @p seconds have passed (at least one round); returns name ->
    list of records.  Odd rounds run the roles in reverse order, so a
    steady drift of host speed cancels between the roles' medians."""
    out = {name: [] for name in roles}
    k = 0
    while True:
        t_round = time.monotonic()
        order = list(roles.items())
        if k % 2:
            order.reverse()
        for name, thunk in order:
            out[name].append(thunk(k))
        k += 1
        if run_over(t_begin, t_round, seconds):
            return out


def run_untraced(timed, setup, seconds, t_begin):
    """Runs timed processes until @p seconds have passed, with set-up-only
    processes between them so that MIN_SETUPS set-ups run in all (a timed
    process counts as one); returns (timed records, set-up records).  The
    set-ups are spread over the run, not run in one burst, because host
    speed on a shared machine shifts within seconds and a burst samples a
    single stretch of it."""
    recs, setups = [], []
    k = 0
    while True:
        t_round = time.monotonic()
        recs.append(timed(k))
        if k == 0:
            rounds = seconds / max(1e-3, time.monotonic() - t_round)
            per_round = max(0, math.ceil(MIN_SETUPS / rounds) - 1)
        n = min(per_round, MIN_SETUPS - len(recs) - len(setups))
        setups += [setup(k) for _ in range(n)]
        k += 1
        if run_over(t_begin, t_round, seconds):
            break
    setups += [setup(k) for _ in range(MIN_SETUPS - len(recs) - len(setups))]
    return recs, setups


def untraced_metrics(recs, setups):
    median = statistics.median
    return {
        "host_ms_per_op": (median([1e3 * r["wall_s"] / r["ops"]
                                   for r in recs]), "ms"),
        "setup_s": (median([r["setup_s"] for r in recs + setups]), "s"),
        "peak_rss_mb": (median([r["peak_rss_mb"] for r in recs]), "MB"),
        "ok_frac": (sum(r["ok"] for r in recs)
                    / sum(r["attempted"] for r in recs), "ratio"),
    }


# Self-time buckets of the traced ledger -> per-layer metric names.
SHARE_BUCKETS = [
    ("ec.curve_build", "ec.curve_build_pct"),
    ("workload.op_trace", "workload.op_trace_pct"),
    ("workload.kernel_model", "workload.kernel_model_pct"),
    ("workload.fetch_trace", "workload.fetch_trace_pct"),
    ("core.evaluate_self", "core.evaluate_self_pct"),
    ("ec.scalar_mul", "ec.scalar_mul_pct"),
    ("ec.twin_scalar_mul", "ec.twin_scalar_mul_pct"),
    ("ecdsa.protocol_self", "ecdsa.protocol_self_pct"),
    ("accel.execute", "accel.execute_pct"),
    ("sim.anchor_est", "sim.anchor_est_pct"),
    ("core.eval_memo_est", "core.eval_memo_est_pct"),
    ("svc.coordinator_self", "svc.coordinator_self_pct"),
    ("check.setup", "check.setup_pct"),
    ("check.mpint", "check.mpint_pct"),
    ("check.field", "check.field_pct"),
    ("check.ecdsa", "check.ecdsa_oracle_pct"),
    ("check.pete", "check.pete_pct"),
    ("trace.probe", "trace.probe_pct"),
]

PROBES = [
    ("mul_ns_p192", "mpint.mul_ns.p192", "ns"),
    ("mul_ns_p256", "mpint.mul_ns.p256", "ns"),
    ("sqr_ns_p256", "mpint.sqr_ns.p256", "ns"),
    ("reduce_ns_p256", "mpint.reduce_ns.p256", "ns"),
    ("mul_ns_b163", "mpint.mul_ns.b163", "ns"),
    ("anchor_us", "sim.anchor_us", "us"),
    ("pete_mips", "sim.pete_mips", "MIPS"),
    ("eval_memo_hit_us", "core.eval_memo_hit_us", "us"),
]

SVC_COUNTS = [
    ("executed", "svc.executed"),
    ("batch_passes", "svc.batch_passes"),
    ("cosim_anchors", "svc.cosim_anchors"),
    ("session_derivations", "svc.session_derivations"),
    ("session_hits", "svc.session_hits"),
]


def ledger_problems(t):
    """Bookkeeping checks of one traced process.  The self times summing
    to the traced wall is an identity (the root scope's self time is the
    remainder), so it guards the ledger code, not the measurement; the
    measurement is checked by reconcile_err_pct."""
    tr = t["traced"]
    problems = []
    if not tr["balanced"]:
        problems.append("traced ledger left scopes open")
    if abs(tr["self_sum_s"] - tr["total_s"]) > 1e-6:
        problems.append("ledger identity broken: layer self times do not "
                        "sum to the traced wall")
    return problems


def traced_metrics(t, s, a, n):
    """Per-layer metrics of one round: t traced, s untraced serial, a
    untraced at the workload's jobs, n (svc) without telemetry."""
    workload = t["workload"]
    tr = t["traced"]
    total = tr["total_s"]
    m = {}
    untraced = s["setup_in_s"] + s["wall_s"]
    m["traced_wall_s"] = (total, "s")
    m["trace_overhead"] = (total / untraced, "x")
    m["reconcile_err_pct"] = (abs(
        (total - tr["self_s"].get("trace.probe", 0.0)) / untraced - 1) * 100,
        "%")
    known = set()
    for bucket, name in SHARE_BUCKETS:
        known.add(bucket)
        m[name] = (100 * tr["self_s"].get(bucket, 0.0) / total, "%")
    rest = sum(v for k, v in tr["self_s"].items() if k not in known)
    m["other_pct"] = (100 * rest / total, "%")
    m["check.ecdsa_pct"] = (100 * tr.get("check_ecdsa_s", 0.0) / total, "%")
    m["check.ecdsa_native_pct"] = (
        100 * tr.get("check_ecdsa_native_s", 0.0) / total, "%")
    m["par.sweep_speedup"] = (
        s["wall_s"] / a["wall_s"] if workload == "paper_grid" else 0.0, "x")
    m["svc.pool_speedup"] = (
        s["wall_s"] / a["wall_s"] if workload == "svc_mixed" else 0.0, "x")
    m["svc.telemetry_overhead"] = (
        a["wall_s"] / n["wall_s"] if workload == "svc_mixed" else 0.0, "x")
    m["mpint.trace_ops"] = (tr.get("trace_ops", 0), "count")
    m["sim.icache_fetches"] = (tr.get("icache_fetches", 0), "count")
    m["mpint.field_ops"] = (tr["field_ops"], "count")
    m["mpint.est_share"] = (100 * tr["field_est_s"] / total, "%")
    for key, name, unit in PROBES:
        m[name] = (tr["probes"][key], unit)
    for key, name in SVC_COUNTS:
        m[name] = (t["counts"].get(key, 0), "count")
    m["svc.batch_occupancy"] = (t["counts"].get("batch_occupancy", 0.0),
                                "members/batch")
    sim = t["sim"]
    m["core.paper_err_pct"] = (sim.get("paper_err_pct", 0.0), "%")
    m["svc.sim_p99_ms"] = (sim.get("sim_p99_ms", 0.0), "ms_virtual")
    m["svc.sim_uj_per_ok"] = (sim.get("sim_uj_per_ok", 0.0), "uJ")
    m["check.cases"] = (t["attempted"] if workload == "fuzz" else 0, "count")
    return m


def median_metrics(rounds):
    out = {}
    for name, (_, unit) in rounds[0].items():
        out[name] = (statistics.median([r[name][0] for r in rounds]), unit)
    return out


def run_workload(args):
    t_begin = time.monotonic()
    driver = build()
    t_begin = time.monotonic()  # the build is not part of the run
    deadline = t_begin + 175
    jobs = jobs_for_host()
    goldens = load_goldens()
    w, seed = args.workload, args.seed

    def thunk(vary_seed=True, **kw):
        return lambda k: spawn(driver, w,
                               sub_seed(seed, k) if vary_seed else seed,
                               deadline=deadline, **kw)

    if not args.trace:
        recs, setups = run_untraced(thunk(jobs=jobs),
                                    thunk(jobs=jobs, setup_only=True),
                                    args.seconds, t_begin)
        problems = check_records(recs, goldens, False)
        problems += [r["error"] for r in setups if "error" in r]
        metrics = {} if problems else untraced_metrics(recs, setups)
        groups = {"run": recs, "setup_only": setups}
    else:
        # Every round repeats the same inputs, so counts stay exact and
        # the roles of a round compare like for like.
        roles = {"traced": thunk(False, jobs=1, trace=True),
                 "serial": thunk(False, jobs=1)}
        if w != "fuzz":
            roles["jobs"] = thunk(False, jobs=jobs)
        if w == "svc_mixed":
            roles["no_telemetry"] = thunk(False, jobs=jobs,
                                          telemetry=False)
        groups = run_processes(roles, args.seconds, t_begin)
        problems = check_records(
            [r for name, rs in groups.items() if name != "no_telemetry"
             for r in rs], goldens, False)
        for r in groups.get("no_telemetry", []):
            if "error" in r:
                problems.append(r["error"])
        for r, t in zip(groups.get("no_telemetry", []), groups["traced"]):
            if not problems and r["sim"]["report_digest"] != \
                    t["sim"]["report_digest"]:
                problems.append("svc_mixed: report differs without "
                                "telemetry consumers")
        rounds = []
        if not problems:
            for i, t in enumerate(groups["traced"]):
                s = groups["serial"][i]
                problems += ledger_problems(t)
                a = groups.get("jobs", groups["serial"])[i]
                n = groups.get("no_telemetry", groups.get("jobs",
                                                          groups["serial"]))[i]
                rounds.append(traced_metrics(t, s, a, n))
        if not problems:
            metrics = median_metrics(rounds)
            err = metrics["reconcile_err_pct"][0]
            if err > RECONCILE_BOUND_PCT:
                problems.append(
                    "traced wall does not reconcile with the untraced "
                    "wall: %.1f%% > %.0f%%" % (err, RECONCILE_BOUND_PCT))
        if problems:
            metrics = {}

    all_recs = [r for name, rs in groups.items() if name != "setup_only"
                for r in rs]
    attempted = sum(r.get("attempted", 0) for r in all_recs)
    failed = sum(r.get("failed", 0) for r in all_recs if "error" not in r)
    failed += sum(1 for r in all_recs if "error" in r)
    first = next((r for r in all_recs if "error" not in r), {})

    info = {
        "workload": w, "seed": seed, "trace": int(args.trace),
        "processes": {k: len(v) for k, v in groups.items()},
        "process_seeds": sorted({r["seed"] for r in all_recs if "seed" in r}),
        "jobs": jobs, "nproc": os.cpu_count(),
        "build_type": first.get("meta", {}).get("build_type"),
        "compiler": first.get("meta", {}).get("compiler"),
        "git_commit": git_commit(), "source_digest": source_digest(),
        "digest": first.get("digest"),
        "wall_s": first.get("wall_s"), "ops": first.get("ops"),
        "simulated": first.get("sim"),
    }
    print(json.dumps(info, sort_keys=True))
    for p in problems:
        print("perfbench: INCORRECT: " + p, file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print("  %-28s %16.6g %s" % (name, value, unit))
    result = {
        "correct": not problems,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


def write_goldens():
    driver = build()
    jobs = jobs_for_host()
    os.makedirs(GOLDEN, exist_ok=True)
    rec = spawn(driver, "paper_grid", 0, jobs)
    problems = check_records([rec], {}, False)
    if problems:
        fail("; ".join(problems))
    with open(os.path.join(GOLDEN, "paper_grid.txt"), "w") as f:
        f.write("# sha256 of every EvalResult of the paper grid "
                "(perfbench/driver.cpp gridDigest)\n")
        f.write("all %s\n" % rec["digest"])
    lines = []
    for seed in range(SVC_GOLDEN_SEEDS):
        rec = spawn(driver, "svc_mixed", seed, jobs)
        problems = check_records([rec], {}, False)
        if problems:
            fail("; ".join(problems))
        lines.append("%d %s\n" % (rec["sim"]["campaign_seed"], rec["digest"]))
        print("seed %d: %d ok, %d beyond p99, wall %.3f s" % (
            seed, rec["ok"], rec["sim"]["p99_samples_beyond"],
            rec["wall_s"]), flush=True)
    with open(os.path.join(GOLDEN, "svc_mixed.txt"), "w") as f:
        f.write("# campaign seed -> sha256 of report() JSON + the four "
                "telemetry artifacts\n")
        f.writelines(lines)
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-goldens", action="store_true")
    args = ap.parse_args()
    if args.write_goldens:
        return write_goldens()
    if not args.workload:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
