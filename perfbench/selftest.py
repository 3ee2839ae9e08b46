#!/usr/bin/env python3
"""Self-test of the repository benchmark.

Usage (from the root of a checkout):

    python3 perfbench/selftest.py [--seed N]

Runs each workload at a small size with jobs=1, with jobs=nproc (at
most 4) and traced, and checks that the output digests, the simulated
results and the exact counts are bit-identical across the three, that
the traced ledger balances, that svc_mixed's report does not depend on
the telemetry consumers, and that the golden gate rejects a wrong
digest.  Exits 0 when every check passes.
"""

import argparse
import os
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    driver = run.build()
    jobs = run.jobs_for_host()
    failures = []
    for w in run.WORKLOADS:
        recs = [run.spawn(driver, w, args.seed, 1, small=True),
                run.spawn(driver, w, args.seed, jobs, small=True),
                run.spawn(driver, w, args.seed, 1, small=True, trace=True)]
        problems = run.check_records(recs, {}, small=True)
        if not problems:
            problems += ["%s: %s" % (w, p) for p in
                         run.ledger_problems(recs[2])]
            fake = {w: {run.golden_key(recs[0]): "0" * 64}}
            if not any("golden" in p for p in
                       run.check_records(recs[:1], fake, small=False)):
                problems.append("%s: golden gate accepted a wrong digest" % w)
        if not problems and w == "svc_mixed":
            bare = run.spawn(driver, w, args.seed, jobs, small=True,
                             telemetry=False)
            if "error" in bare or bare["sim"]["report_digest"] \
                    != recs[0]["sim"]["report_digest"]:
                problems.append("svc_mixed: report depends on telemetry")
        status = "ok" if not problems else "FAIL"
        print("%-10s %s (jobs 1 / %d / traced, digest %s)" % (
            w, status, jobs, recs[0].get("digest", "-")[:16]))
        failures += problems
    for p in failures:
        print("  " + p)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
