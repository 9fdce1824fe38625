#!/usr/bin/env python3
"""Repository benchmark: four seeded workloads against the bistpath
libraries and the `synth` binary, checked against independent oracles.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run builds `bench.exe` (this
directory) and `bin/synth.exe` from source into `.bench_build/`. The
last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with `--trace 0`, its per-layer metrics with `--trace 1`.
The line before it is the run's record (`{"record": {...}}`): how the
numbers were produced (nproc, pool width, workers, OCaml version,
commit, seed, run length, sample counts, output digest, oracle misses).

Workloads (README.md in this directory says why each exists):
  alloc-ladder, signoff, bist-grade  in-process, run by bench.exe
  job-stream                         closed batches fed to `synth serve`
"""

import argparse
import hashlib
import json
import math
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time

BUILD_DIR = ".bench_build"
BENCH_EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
SYNTH_EXE = os.path.join(BUILD_DIR, "default", "bin", "synth.exe")
IN_PROCESS = ("alloc-ladder", "signoff", "bist-grade")
WORKLOADS = IN_PROCESS + ("job-stream",)
# job-stream's set-ups per run (bench.exe has its own for the others)
SETUP_REPS = 5
# Domain pool width per in-process workload, nproc where absent. Check.run
# fans its rules out over the pool; on signoff's 20-40 ms items a second
# domain costs more than it gains and makes the figures host-sensitive.
POOL_WIDTH = {"signoff": 1}
# Workloads that keep a second domain busy. Their peak RSS depends on how
# the domains' allocations interleave and moves by +-15% from run to run,
# so peak_rss_mb comes from one pass in a separate one-domain process,
# where it repeats to within 1%. That pass runs the items in the order of
# seed 0: the order moves the peak by up to 6%, and these workloads draw
# nothing else from the seed.
PEAK_AT_ONE_DOMAIN = ("bist-grade",)
# Fixed per workload, so a faster program is not judged at a higher
# percentile; each leaves at least ten samples beyond it in a 20 s run on
# a 2-CPU machine.
TAIL_Q = {"alloc-ladder": 80.0, "signoff": 95.0, "bist-grade": 75.0, "job-stream": 80.0}
CHILD_TIMEOUT_S = 170


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def nproc():
    return len(os.sched_getaffinity(0))


def spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


# --------------------------------------------------------------------
# Build


def dune():
    exe = shutil.which("dune")
    if exe:
        return [exe]
    opam = shutil.which("opam")
    if opam:
        return [opam, "exec", "--", "dune"]
    die("no dune on PATH (and no opam to find one)")


def build():
    # --root pins the project to this checkout: dune must never pick up
    # a dune-project from a parent directory.
    cmd = dune() + ["build", "--root", ".", "--build-dir", BUILD_DIR,
                    "--profile", "release", "./perfbench/bench.exe", "./bin/synth.exe"]
    # no shared dune cache: the build reads and writes only this checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=env,
                       timeout=880)
    if r.returncode != 0:
        die("build failed:\n" + r.stderr.decode(errors="replace")[-4000:], 1)


# --------------------------------------------------------------------
# Provenance


def git_commit():
    # only this checkout's own repository: git would otherwise report the
    # HEAD of whatever repository encloses a plain source tree
    if not os.path.exists(".git"):
        return "none (not a git checkout)"
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.decode().strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "none (not a git checkout)"


def source_digest():
    h = hashlib.md5()
    for top in ("lib", "bin", "perfbench", "data"):
        for dirpath, dirnames, files in os.walk(top):
            dirnames.sort()
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def ocaml_version():
    try:
        r = subprocess.run(["ocamlfind", "ocamlopt", "-version"], capture_output=True, timeout=30)
        if r.returncode == 0:
            return r.stdout.decode().strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


# --------------------------------------------------------------------
# Child processes


def run_child(cmd, stdout, stderr, env=None, stdin=None):
    """Run cmd to completion, feeding it the text [stdin]; return (exit
    code, rusage). A child that outlives CHILD_TIMEOUT_S is killed and
    reported as failed."""
    p = subprocess.Popen(cmd, stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL,
                         stdout=stdout, stderr=stderr, env=env, start_new_session=True)
    killer = threading.Timer(CHILD_TIMEOUT_S, lambda: os.killpg(p.pid, 9))
    killer.start()
    try:
        if stdin is not None:
            try:
                p.stdin.write(stdin.encode())
                p.stdin.close()
            except BrokenPipeError:
                pass  # the child died early; its exit code says so
        _, status, usage = os.wait4(p.pid, 0)
    finally:
        killer.cancel()
    p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, usage


def quiet_env():
    env = dict(os.environ)
    for k in ("BISTPATH_INJECT", "BISTPATH_JOBS"):
        env.pop(k, None)
    return env


# --------------------------------------------------------------------
# In-process workloads


def bench_exe(name, workload, seed, seconds, trace, jobs, out_dir, passes, spans_file=None):
    """One `bench.exe run`; returns its result object."""
    out = os.path.join(out_dir, name + ".out")
    err = os.path.join(out_dir, name + ".err")
    cmd = [BENCH_EXE, "run", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--jobs", str(jobs)]
    if spans_file:
        cmd += ["--trace-out", spans_file]
    if passes is not None:
        cmd += ["--passes", str(passes)]
    with open(out, "wb") as o, open(err, "wb") as e:
        code, _ = run_child(cmd, o, e, env=quiet_env())
    if code != 0:
        with open(err, errors="replace") as e:
            die("%s exited %d:\n%s" % (workload, code, e.read()[-4000:]), 1)
    with open(out) as f:
        return json.loads(f.read().strip().splitlines()[-1])


def in_process(workload, seed, seconds, trace, out_dir, passes=None):
    spans_file = os.path.join(out_dir, "spans.json") if trace else None
    r = bench_exe("bench", workload, seed, seconds, trace, POOL_WIDTH.get(workload, nproc()),
                  out_dir, passes, spans_file)
    if workload in PEAK_AT_ONE_DOMAIN and not trace:
        m = bench_exe("peak", workload, 0, 0, 0, 1, out_dir, 1)
        r["e2e"]["peak_rss_mb"] = m["info"]["pass_peak_rss_mb"][0]
        r["attempted"] += m["attempted"]
        r["failed"] += m["failed"]
        r["misses"] += m["misses"]
    info = r["info"]
    info.update(peak_rss_pool_width=1 if workload in PEAK_AT_ONE_DOMAIN else info["pool_width"])
    info.update(workers=0)
    lat = r["latencies_ms"]
    tail = percentile(TAIL_Q[workload], lat)
    r["e2e"].update(latency_p50_ms=percentile(50.0, lat), latency_tail_ms=tail)
    info.update(tail_percentile=TAIL_Q[workload], tail_samples_beyond=sum(x > tail for x in lat))
    if trace:
        with open(spans_file) as f:
            spans = json.load(f)["spans"]
        r["layer"].update(span_metrics(spans, r["attempted"], info["setup_reps"]))
        r["layer"].update({name: 0.0 for name in SERVICE_METRICS})
    return r["attempted"], r["failed"], r["misses"], r["e2e"], r["layer"], info


# --------------------------------------------------------------------
# job-stream: closed batches through `synth serve --cache --workers N`

# Batch 0 is the same on every seed: its run and coverage jobs give the
# workload's quality figures. Later batches hold four cold jobs on
# seeded random designs and two repeats of earlier run/rtl specs, which
# the result cache serves (a third of the jobs).
REFERENCE_BATCH = [
    ("run", "fir16"), ("run", "fir24"), ("run", "fir32"),
    ("coverage", "ex2"), ("coverage", "Tseng1"), ("verify", "ewf"),
]
MAX_BATCHES = 30
BIG_OPS = (44, 52)    # run/rtl designs: >= 100 ms of flow each
SMALL_OPS = (22, 28)  # check/verify designs: >= 100 ms of Equiv/Check each
REPEATS_PER_BATCH = 2
# Every set-up ends with these jobs served in-process: they load the
# binary and make the set-up long enough to time steadily.
WARMUP_JOBS = [("run", "fir16"), ("verify", "ex2"), ("check", "ewf")]


def job_stream_setup(work, seed):
    """Generate the designs and every batch's job specs; deterministic in
    seed. Each set-up writes a fresh directory: on some filesystems
    rewriting or deleting files costs far more than creating them."""
    designs = os.path.join(work, "designs")
    os.makedirs(designs)
    for prefix, (lo, hi), s in (("big", BIG_OPS, seed), ("small", SMALL_OPS, seed + 7919)):
        code, _ = run_child([BENCH_EXE, "gen", "--seed", str(s), "--dir", designs,
                             "--count", str(2 * MAX_BATCHES), "--ops-lo", str(lo),
                             "--ops-hi", str(hi), "--prefix", prefix],
                            subprocess.DEVNULL, subprocess.DEVNULL)
        if code != 0:
            die("design generation failed", 1)
    rng = random.Random(seed)
    batches = []
    cacheable = []  # (pipeline, design) of earlier run/rtl jobs
    for b in range(MAX_BATCHES):
        if b == 0:
            jobs = list(REFERENCE_BATCH)
        else:
            d = lambda kind, i: os.path.join(designs, "%s%d.dfg" % (kind, i))
            jobs = [("run", d("big", 2 * b)), ("rtl", d("big", 2 * b + 1)),
                    ("check", d("small", 2 * b)), ("verify", d("small", 2 * b + 1))]
            jobs += [rng.choice(cacheable) for _ in range(REPEATS_PER_BATCH)]
            rng.shuffle(jobs)
        cacheable += [j for j in jobs if j[0] in ("run", "rtl") and j not in cacheable]
        named = [("b%dj%d" % (b, i), p, s) for i, (p, s) in enumerate(jobs)]
        specs = "".join(json.dumps({"id": j, "spec": d, "pipeline": p}) + "\n"
                        for j, p, d in named)
        batches.append((os.path.join(work, "b%d" % b), named, specs))
    return batches


def serve(batch, specs, mode, cache_dir, workers, extra=()):
    """One closed batch: the NDJSON specs arrive on stdin, results and
    journal go to batch/<mode>/. Returns (wall s, start ns, exit code,
    stats, rusage)."""
    out = os.path.join(batch, mode)
    os.makedirs(out)
    cmd = [SYNTH_EXE, "serve", "-", "--out", os.path.join(out, "results"),
           "--journal", os.path.join(out, "journal.ndjson"), "--cache", "--cache-dir", cache_dir,
           "--workers", str(workers), "--quiet"] + list(extra)
    stdout = os.path.join(out, "stdout")
    t0 = time.time_ns()
    p0 = time.perf_counter()
    with open(stdout, "wb") as o:
        code, usage = run_child(cmd, o, subprocess.DEVNULL, env=quiet_env(), stdin=specs)
    wall = time.perf_counter() - p0
    try:
        with open(stdout) as f:
            stats = json.loads(f.read().strip().splitlines()[-1])
    except (ValueError, IndexError):
        stats = {}
    return wall, t0, code, stats, usage


def served_all(code, stats, jobs):
    return (code == 0 and stats.get("completed") == len(jobs)
            and stats.get("failed") == 0 and stats.get("degraded") == 0)


def journal(out):
    """Over the supervisor journal and every worker shard: per job id the
    number of started attempts and the done record's cache field, and
    per journal file (a lane: one worker, or the in-process serve) the
    ids in the order their done records were written."""
    starts, cache, lanes = {}, {}, []
    for name in sorted(os.listdir(out)):
        if not name.startswith("journal.ndjson") or name.endswith(".fleet"):
            continue
        lane = []
        with open(os.path.join(out, name)) as f:
            for line in f:
                try:
                    ev = json.loads(line)
                except ValueError:
                    continue
                if ev.get("ev") == "start":
                    starts[ev["id"]] = starts.get(ev["id"], 0) + 1
                elif ev.get("ev") == "done":
                    cache[ev["id"]] = ev.get("cache")
                    lane.append(ev["id"])
        lanes.append(lane)
    return starts, cache, lanes


def job_walls(results, t0_ns, lanes):
    """Per job id: wall time (ms) from the previous result commit in its
    lane (the batch start for a lane's first job) to its own commit."""
    walls = {}
    for lane in lanes:
        prev = t0_ns
        for jid in lane:
            try:
                commit = os.stat(os.path.join(results, jid + ".out")).st_mtime_ns
            except OSError:
                continue
            walls[jid] = (commit - prev) / 1e6
            prev = commit
    return walls


RUN_LINE = re.compile(r"testable flow: (\d+) registers, (\d+) muxes, BIST overhead ([0-9.]+)%")
COVERAGE_LINE = re.compile(r"^\s+\S+: (\d+)/(\d+) stuck-at faults detected", re.M)


def job_oracle(pipeline, text):
    """Independent check of one committed result: None if it passes."""
    if pipeline == "run":
        return None if RUN_LINE.search(text) else "run output lacks the flow summary"
    if pipeline == "rtl":
        return None if "module " in text and "endmodule" in text else "rtl output is not a module"
    if pipeline == "check":
        rep = json.loads(text)
        errors = [f for f in rep.get("findings", []) if f.get("severity") == "error"]
        return None if rep.get("errors") == 0 and not errors else "check error findings"
    if pipeline == "verify":
        return None if json.loads(text).get("equivalent") is True else "not equivalent"
    if pipeline == "coverage":
        return None if COVERAGE_LINE.search(text) else "coverage output lacks unit lines"
    return "unknown pipeline"


def prom_summary(path, name):
    """(sum, count) of a Prometheus summary in the --metrics file."""
    total = count = 0.0
    if os.path.exists(path):
        with open(path) as f:
            for line in f:
                if line.startswith(name + "_sum "):
                    total = float(line.split()[1])
                elif line.startswith(name + "_count "):
                    count = float(line.split()[1])
    return total, count


# Program span names in per-job traces, as benchmark layers.
TRACE_LAYER = {
    "job": "service.job", "attempt": "service.attempt", "pipeline": "service.pipeline",
    "journal.append": "service.journal", "flow": "core.flow", "regalloc": "core.regalloc",
    "interconnect": "datapath.interconnect", "bist_alloc": "bist.alloc",
    "sessions": "bist.sessions",
}


def trace_spans(path):
    """Closed spans of one Chrome-trace file: (name, start us, end us, parent index)."""
    with open(path) as f:
        events = json.load(f).get("traceEvents", [])
    spans, stack = [], []
    counters = {}
    for ev in events:
        ph = ev.get("ph")
        if ph == "B":
            spans.append([ev["name"], ev["ts"], None, stack[-1] if stack else -1])
            stack.append(len(spans) - 1)
        elif ph == "E" and stack:
            spans[stack.pop()][2] = ev["ts"]
        elif ph == "C":
            for k, v in ev.get("args", {}).items():
                counters[ev["name"] if k == "value" else k] = v
    return [s for s in spans if s[2] is not None], counters


def job_stream(seed, seconds, trace, workers, out_dir, fixed_batches=None):
    setup_times = []
    warmup = "".join(json.dumps({"id": "w%d" % i, "spec": d, "pipeline": p}) + "\n"
                     for i, (p, d) in enumerate(WARMUP_JOBS))
    for rep in range(SETUP_REPS):
        work = os.path.join(out_dir, "work", str(rep))
        t0 = time.perf_counter()
        batches = job_stream_setup(work, seed)
        _, _, code, stats, _ = serve(os.path.join(work, "warmup"), warmup, "plain",
                                     os.path.join(work, "cache-warmup"), 0)
        if not served_all(code, stats, WARMUP_JOBS):
            die("warm-up serve failed: exit %d, %s" % (code, stats), 1)
        setup_times.append(time.perf_counter() - t0)

    # One cache per mode, so each sees the same sequence of specs.
    caches = {m: os.path.join(work, "cache-" + m) for m in ("fleet", "plain", "traced")}
    attempted = failed = 0
    misses, latencies = [], []
    first_bytes = {}  # (pipeline, spec) -> result bytes of its first (cold) run
    quality = {"regs": [], "muxes": [], "area": [], "cbilbos": [], "det": 0, "tot": 0}
    hits = lookups = retries = 0
    batch_rss_kb = []
    fleet_wall = plain_wall = traced_wall = 0.0
    lay = {"job_ns": [0.0, 0.0], "cached_ns": [0.0, 0.0], "wait_ns": [0.0, 0.0]}
    overhead_ms = []  # per job: fleet wall minus in-process wall
    counter_sum = {}
    recorded = []  # traced run: every span, written out when the run ends
    digest = hashlib.md5()
    t_start = time.perf_counter()
    last = 0.0
    done_batches = 0
    for b, (batch, jobs, specs) in enumerate(batches):
        # the first two batches always run: the output digest covers them
        if fixed_batches is not None:
            if b >= fixed_batches:
                break
        elif b > 1 and time.perf_counter() - t_start + last > seconds:
            break
        wall, t0_ns, code, stats, usage = serve(batch, specs, "fleet", caches["fleet"], workers)
        last = wall
        done_batches += 1
        fleet_wall += wall
        batch_rss_kb.append(usage.ru_maxrss)
        res = os.path.join(batch, "fleet", "results")
        starts, cache, lanes = journal(os.path.join(batch, "fleet"))
        batch_ok = served_all(code, stats, jobs)
        for jid, pipeline, design in jobs:
            attempted += 1
            path = os.path.join(res, jid + ".out")
            why = None if batch_ok else "serve exit %d, stats %s" % (code, stats)
            text = b""
            if why is None:
                try:
                    with open(path, "rb") as f:
                        text = f.read()
                    latencies.append((os.stat(path).st_mtime_ns - t0_ns) / 1e6)
                    why = job_oracle(pipeline, text.decode())
                except (OSError, ValueError) as e:
                    why = "result unreadable: %s" % e
            key = (pipeline, design)
            if why is None and key in first_bytes and first_bytes[key] != text:
                why = "warm-cache bytes differ from the cold result"
            if why is not None:
                failed += 1
                misses.append("%s (%s %s): %s" % (jid, pipeline, design, why))
                continue
            if key not in first_bytes:
                first_bytes[key] = text
                if b <= 1:
                    digest.update(text)
            retries += max(0, starts.get(jid, 1) - 1)
            if cache.get(jid) is not None:
                lookups += 1
                hits += cache[jid] == "hit"
            if b == 0:
                s = text.decode()
                m = RUN_LINE.search(s)
                if pipeline == "run" and m:
                    quality["regs"].append(int(m.group(1)))
                    quality["muxes"].append(int(m.group(2)))
                    quality["area"].append(float(m.group(3)))
                    quality["cbilbos"].append(len(re.findall(r"^\S+: CBILBO$", s, re.M)))
                for det, tot in COVERAGE_LINE.findall(s):
                    quality["det"] += int(det)
                    quality["tot"] += int(tot)
        if trace:
            # the same batch in-process, untraced and traced, for job
            # times, queue waits, layer spans and the tracing overhead
            prom = os.path.join(batch, "metrics.prom")
            tdir = os.path.join(batch, "traces")
            for mode in ("plain", "traced"):
                extra = []
                if mode == "traced":
                    extra = ["--metrics", prom, "--trace-dir", tdir,
                             "--trace-keep", str(len(jobs) + 1)]
                wall_m, t0_m, code_m, stats_m, _ = serve(batch, specs, mode, caches[mode], 0, extra)
                if not served_all(code_m, stats_m, jobs):
                    die("in-process serve of batch %d failed: exit %d, %s" % (b, code_m, stats_m), 1)
                if mode == "plain":
                    plain_wall += wall_m
                    _, plain_cache, plain_lanes = journal(os.path.join(batch, mode))
                    plain_walls = job_walls(os.path.join(batch, mode, "results"), t0_m,
                                            plain_lanes)
                else:
                    traced_wall += wall_m
                    # the batch is this workload's item: the root span
                    serve_span = len(recorded)
                    recorded.append({"name": "item.job-stream", "item": "b%d" % b,
                                     "parent": -1, "start_ns": t0_m,
                                     "end_ns": t0_m + int(wall_m * 1e9)})
            fleet_walls = job_walls(res, t0_ns, lanes)
            for jid, _, _ in jobs:
                # a repeat the fleet ran beside its cold original misses
                # the cache there, so compare only jobs with the same fate
                if jid in fleet_walls and jid in plain_walls and cache.get(jid) == plain_cache.get(jid):
                    overhead_ms.append(fleet_walls[jid] - plain_walls[jid])
            for k, name in (("job_ns", "bistpath_service_job_ns"),
                            ("cached_ns", "bistpath_service_job_ns_cached"),
                            ("wait_ns", "bistpath_service_queue_wait_ns")):
                s, c = prom_summary(prom, name)
                lay[k][0] += s
                lay[k][1] += c
            for name in sorted(os.listdir(tdir)) if os.path.isdir(tdir) else []:
                if name.endswith(".trace.json"):
                    spans, counters = trace_spans(os.path.join(tdir, name))
                    # the job's own spans, under this batch's traced serve
                    # span; their times count from the job's recorder start
                    base = len(recorded)
                    recorded.extend({"name": TRACE_LAYER.get(n, "service." + n),
                                     "item": name[:-len(".trace.json")], "start_ns": st * 1000,
                                     "end_ns": en * 1000,
                                     "parent": base + par if par >= 0 else serve_span}
                                    for n, st, en, par in spans)
                    for k, v in counters.items():
                        counter_sum[k] = counter_sum.get(k, 0) + v

    if trace:
        with open(os.path.join(out_dir, "spans.json"), "w") as f:
            json.dump({"spans": recorded}, f)
    lat = sorted(latencies)
    tail_q = TAIL_Q["job-stream"]
    tail = percentile(tail_q, lat)
    e2e = {
        "setup_s": statistics.median(setup_times),
        "items_per_s": len(latencies) / fleet_wall if fleet_wall else 0.0,
        "latency_p50_ms": percentile(50.0, lat),
        "latency_tail_ms": tail,
        "peak_rss_mb": statistics.median(batch_rss_kb) / 1024.0,
        "ok_ratio": (attempted - failed) / max(1, attempted),
        "bist_area_pct": statistics.fmean(quality["area"]) if quality["area"] else 0.0,
        "cbilbo_count": float(sum(quality["cbilbos"])),
        "reg_count": float(sum(quality["regs"])),
        "mux_count": float(sum(quality["muxes"])),
        "fault_coverage_pct": 100.0 * quality["det"] / max(1, quality["tot"]),
    }
    layer = {}
    if trace:
        jobs_n = max(1, attempted)
        mean_ms = lambda k: lay[k][0] / lay[k][1] / 1e6 if lay[k][1] else 0.0
        layer = span_metrics(recorded, jobs_n, SETUP_REPS)
        layer.update({
            "cache.hit_ratio": hits / lookups if lookups else 0.0,
            "cache.stores": float(sum(len(fs) for _, _, fs in os.walk(caches["fleet"]))) / jobs_n,
            "service.job_ms": mean_ms("job_ns"),
            "service.job_cached_ms": mean_ms("cached_ns"),
            "service.queue_wait_ms": mean_ms("wait_ns"),
            "service.overhead_ms": statistics.fmean(overhead_ms) if overhead_ms else 0.0,
            "service.retries": retries / jobs_n,
            "core.regalloc.sd_evals": counter_sum.get("regalloc.sd_evals", 0) / jobs_n,
            "bist.alloc_nodes": counter_sum.get("bist.embeddings_explored", 0) / jobs_n,
            "absint.iterations": counter_sum.get("absint.iterations", 0) / jobs_n,
            "trace.overhead_pct": 100.0 * (traced_wall / plain_wall - 1.0) if plain_wall else 0.0,
        })
        # Inside serve these calls record no span or counter of their own,
        # so from outside they stay part of service.pipeline's self time.
        for name in UNOBSERVED_IN_SERVE:
            layer[name] = 0.0
    info = {
        "items_per_pass": len(batches[0][1]),
        "passes": done_batches,
        "samples": len(latencies),
        "samples_per_item": 1,
        "tail_percentile": tail_q,
        "tail_samples_beyond": sum(1 for x in lat if x > tail),
        "measured_s": time.perf_counter() - t_start,
        "setup_reps": SETUP_REPS,
        "pool_width": 1,
        "workers": workers,
        "output_digest": digest.hexdigest(),
        "cache_hit_jobs": hits,
        "jobs_total": attempted,
    }
    return attempted, failed, misses, e2e, layer, info


UNOBSERVED_IN_SERVE = (
    "core.regalloc_exp", "bist.alloc_exact_ratio", "bist.pareto_points", "rtl.emit_bytes",
    "rtl.equiv_vectors", "rtl.mutants_caught_ratio", "check.error_findings",
    "gatelevel.faults_graded", "gatelevel.podem_decided_ratio",
)

# The in-process workloads never call the service or the result cache.
SERVICE_METRICS = (
    "cache.hit_ratio", "cache.stores", "service.job_ms", "service.job_cached_ms",
    "service.queue_wait_ms", "service.overhead_ms", "service.retries",
)


def _inc_beta(a, b, x):
    """Regularized incomplete beta I_x(a, b), continued fraction (Lentz)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _inc_beta(b, a, 1.0 - x)
    front = math.exp(a * math.log(x) + b * math.log(1.0 - x) - math.lgamma(a)
                     - math.lgamma(b) + math.lgamma(a + b)) / a
    tiny = 1e-300
    f, c, d = 1.0, 1.0, 0.0
    for i in range(401):
        m = i // 2
        if i == 0:
            num = 1.0
        elif i % 2 == 0:
            num = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        else:
            num = -((a + m) * (a + b + m) * x) / ((a + 2 * m) * (a + 2 * m + 1))
        d = 1.0 + num * d
        d = 1.0 / (d if abs(d) >= tiny else tiny)
        c = 1.0 + num / c
        c = c if abs(c) >= tiny else tiny
        f *= c * d
        if abs(1.0 - c * d) < 1e-12:
            break
    return front * (f - 1.0)


def percentile(q, xs):
    """Harrell-Davis estimate of the q-th percentile: a Beta-weighted mean
    of every order statistic. On a workload made of a few item kinds with
    very different latencies it moves smoothly where a single order
    statistic jumps from one kind to the next."""
    s = sorted(xs)
    n = len(s)
    if n < 2:
        return s[0] if s else 0.0
    a, b = q / 100.0 * (n + 1), (1.0 - q / 100.0) * (n + 1)
    acc = prev = 0.0
    for i in range(1, n + 1):
        cur = _inc_beta(a, b, i / n)
        acc += (cur - prev) * s[i - 1]
        prev = cur
    return acc


# Per-layer time metrics: the summed duration of the spans of one name,
# per item.
SPAN_METRICS = {
    "core.regalloc_ms": "core.regalloc", "datapath.interconnect_ms": "datapath.interconnect",
    "bist.alloc_ms": "bist.alloc", "bist.sessions_ms": "bist.sessions",
    "bist.pareto_ms": "bist.pareto", "rtl.emit_ms": "rtl.emit", "rtl.parse_ms": "rtl.parse",
    "rtl.equiv_ms": "rtl.equiv", "check.ctx_ms": "check.ctx", "check.rules_ms": "check.rules",
    "absint.solve_ms": "absint.solve", "gatelevel.bist_sim_ms": "gatelevel.bist_sim",
    "gatelevel.podem_ms": "gatelevel.podem",
}
LAYERS = ("core", "datapath", "bist", "rtl", "check", "absint", "gatelevel", "service", "dfg")


def span_metrics(spans, items, setup_reps):
    """Per-layer metrics of a traced run's spans (name "<layer>.<call>",
    item, parent index, start_ns, end_ns). Spans of item -1 belong to the
    set-up; a root span named "item.<workload>" covers one item. A
    layer's busy time is covered by its spans whose parent is in another
    layer, its self time that minus their children in other layers;
    unattributed is the item time no layer span covers."""
    dur = [(s["end_ns"] - s["start_ns"]) / 1e6 for s in spans]
    self_t = list(dur)
    for s, d in zip(spans, dur):
        if s["parent"] >= 0:
            self_t[s["parent"]] -= d
    layer_of = lambda s: s["name"].split(".")[0]
    by_name, setup_by_name, busy, self_ms = {}, {}, {}, {}
    add = lambda tbl, k, v: tbl.__setitem__(k, tbl.get(k, 0.0) + v)
    item_ms = unattributed = 0.0
    for s, d, own in zip(spans, dur, self_t):
        l = layer_of(s)
        if s["item"] == -1:
            add(setup_by_name, s["name"], d)
        elif l == "item":
            item_ms += d
            unattributed += own
        else:
            add(by_name, s["name"], d)
            add(self_ms, l, own)
            if s["parent"] < 0 or layer_of(spans[s["parent"]]) != l:
                add(busy, l, d)
    per_item = lambda ms: ms / max(1, items)
    m = {metric: per_item(by_name.get(name, 0.0)) for metric, name in SPAN_METRICS.items()}
    m["dfg.parse_ms"] = setup_by_name.get("dfg.parse", 0.0) / setup_reps
    m["trace.unattributed_pct"] = 100.0 * unattributed / item_ms if item_ms else 0.0
    for l in LAYERS:
        m[l + ".busy_ms"] = per_item(busy.get(l, 0.0))
        m[l + ".self_ms"] = per_item(self_ms.get(l, 0.0))
    return m


# --------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--passes", type=int, default=None,
                    help="run exactly this many passes (job-stream: batches) instead of "
                         "filling --seconds: the self-tests' fixed amount of work")
    args = ap.parse_args()

    # Refuse to run anywhere but a full checkout: the benchmark builds the
    # program from its sources.
    for need in ("dune-project", "lib", "bin/synth.ml", "perfbench/dune", "BENCHMARK.json"):
        if not os.path.exists(need):
            die("not at the root of a bistpath checkout (missing %s)" % need)
    bench = spec()
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    build()

    width = nproc()
    out_dir = os.path.join(BUILD_DIR, "out", "%s-seed%d-trace%d-%d" % (
        args.workload, args.seed, args.trace, time.time_ns()))
    os.makedirs(out_dir)
    # Everything a run writes stays under out_dir (ignored by git). It is
    # not deleted: on some filesystems removing the job-stream's few
    # thousand small files takes longer than the run itself.
    if args.workload == "job-stream":
        attempted, failed, misses, e2e, layer, info = job_stream(
            args.seed, seconds, args.trace, width, out_dir, args.passes)
    else:
        attempted, failed, misses, e2e, layer, info = in_process(
            args.workload, args.seed, seconds, args.trace, out_dir, args.passes)

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    got = layer if args.trace else e2e
    missing = [m["name"] for m in wanted if m["name"] not in got]
    if missing:
        die("workload %s did not report %s" % (args.workload, ", ".join(missing)), 1)
    info.update(
        nproc=width, seed=args.seed, run_seconds=seconds, trace=args.trace,
        ocaml_version=info.get("ocaml_version") or ocaml_version(),
        git_commit=git_commit(), source_digest=source_digest(),
        failed_ratio=failed / max(1, attempted), misses=misses[:20],
        spans_file=os.path.join(out_dir, "spans.json") if args.trace else None)
    print(json.dumps({"record": dict(workload=args.workload, **info)}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": got[m["name"]], "unit": m["unit"]} for m in wanted},
    }))


if __name__ == "__main__":
    main()
