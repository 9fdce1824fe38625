#!/usr/bin/env python3
"""Self-tests of the benchmark itself, run from the root of a checkout:

    python3 perfbench/selftest.py [--seeds 1,4242]

For each seed (by default the default seed 1 and the held-out seed
4242) and each workload it makes two traced and two untraced runs of a
fixed amount of work and checks:

  shape        the workload's target layers carry most of its traced
               busy time: regalloc + BIST allocation on alloc-ladder,
               Equiv + Check on signoff, gate level + Pareto on
               bist-grade, and cache hits on about a third of the
               job-stream jobs. A seed or size change that turns a
               workload into a different one fails here.
  determinism  the two runs agree exactly on the quality metrics, the
               work counts and the output digest.
  oracles      every run reports failed = 0.

Exits 0 when every check passes, 1 otherwise.
"""

import argparse
import json
import subprocess
import sys

WORKLOADS = ("alloc-ladder", "signoff", "bist-grade", "job-stream")
QUALITY = ("bist_area_pct", "cbilbo_count", "reg_count", "mux_count", "fault_coverage_pct")
WORK_COUNTS = ("core.regalloc.sd_evals", "bist.alloc_nodes", "gatelevel.faults_graded",
               "rtl.equiv_vectors", "cache.hit_ratio")
# A fixed amount of work, so two runs do exactly the same thing: one pass
# of an in-process workload, seven batches of job-stream (the reference
# batch and six with repeats).
PASSES = {"job-stream": 7}


def run(workload, seed, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", str(trace), "--passes", str(PASSES.get(workload, 1))]
    p = subprocess.run(cmd, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or len(lines) < 2:
        raise RuntimeError("%s exited %d: %s" % (" ".join(cmd), p.returncode, p.stderr[-2000:]))
    record = json.loads(lines[-2])["record"]
    result = json.loads(lines[-1])
    return record, result, {k: v["value"] for k, v in result["metrics"].items()}


def share(m, parts):
    total = sum(v for k, v in m.items() if k.endswith(".self_ms"))
    return sum(m[p] for p in parts) / total if total else 0.0


def shape(workload, m, record):
    """(description, observed, holds)"""
    if workload == "alloc-ladder":
        s = share(m, ("core.regalloc_ms", "bist.alloc_ms"))
        return "regalloc + BIST alloc share of busy time", s, s >= 0.5
    if workload == "signoff":
        s = share(m, ("rtl.equiv_ms", "check.ctx_ms", "check.rules_ms"))
        return "Equiv + Check share of busy time", s, s >= 0.5
    if workload == "bist-grade":
        s = share(m, ("gatelevel.busy_ms", "bist.pareto_ms"))
        return "gate level + Pareto share of busy time", s, s >= 0.5
    s = record["cache_hit_jobs"] / record["jobs_total"]
    return "share of jobs served from the cache", s, 0.2 <= s <= 0.4


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1,4242")
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    args = ap.parse_args()
    failures = []

    def check(ok, what):
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            failures.append(what)

    for seed in [int(s) for s in args.seeds.split(",")]:
        for w in args.workloads.split(","):
            traced = [run(w, seed, 1) for _ in range(2)]
            plain = [run(w, seed, 0) for _ in range(2)]
            tag = "%s seed %d" % (w, seed)
            for rec, res, _ in traced + plain:
                check(res["failed"] == 0 and res["correct"],
                      "%s: oracles pass (%d attempted, misses %s)"
                      % (tag, res["attempted"], rec.get("misses")))
            what, observed, holds = shape(w, traced[0][2], traced[0][0])
            check(holds, "%s: shape: %s = %.3f" % (tag, what, observed))
            (ra, _, ma), (rb, _, mb) = traced
            (pa, _, qa), (pb, _, qb) = plain
            for k in WORK_COUNTS:
                check(ma[k] == mb[k], "%s: determinism: %s %r == %r" % (tag, k, ma[k], mb[k]))
            for k in QUALITY:
                check(qa[k] == qb[k], "%s: determinism: %s %r == %r" % (tag, k, qa[k], qb[k]))
            check(pa["output_digest"] == pb["output_digest"] == ra["output_digest"],
                  "%s: determinism: output digest %s" % (tag, pa["output_digest"]))
    print("%d failure(s)" % len(failures))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
